from __future__ import annotations

import random

import pytest

from vodprefetch.logs import (
    AccessEvent,
    LogParseError,
    LogRecord,
    group_sessions_by_window,
    parse_log_file,
    parse_log_line,
    parse_log_lines,
    preprocess,
    segment_sessions,
)

from conftest import make_event


def test_parse_basic_line():
    rec = parse_log_line("c1 u1 1000 v42 200 512")
    assert rec == LogRecord("c1", "u1", 1000, "v42", 200, 512)


def test_parse_ignores_trailing_fields():
    rec = parse_log_line("c1 u1 1000 v42 200 512 extra junk")
    assert rec.bytes_sent == 512


def test_parse_too_few_fields():
    with pytest.raises(LogParseError) as err:
        parse_log_line("c1 u1 1000", 17)
    assert err.value.line_number == 17
    assert "line 17" in str(err.value)


@pytest.mark.parametrize(
    "line",
    [
        "c1 u1 notatime v42 200 512",
        "c1 u1 1000 v42 OK 512",
        "c1 u1 1000 v42 200 half",
    ],
)
def test_parse_non_numeric_fields(line):
    with pytest.raises(LogParseError):
        parse_log_line(line, 3)


def test_parse_negative_timestamp_rejected():
    with pytest.raises(LogParseError):
        parse_log_line("c1 u1 -5 v42 200 512", 1)


def test_parse_csv_variant():
    rec = parse_log_line("c1, u1, 1000, v42, 200, 512", delimiter=",")
    assert rec == LogRecord("c1", "u1", 1000, "v42", 200, 512)


def test_parse_lines_skips_blanks_and_comments():
    lines = [
        "# header comment",
        "",
        "c1 u1 1000 v1 200 10",
        "   ",
        "c2 u2 2000 v2 404 20",
    ]
    records = parse_log_lines(lines)
    assert [r.client_id for r in records] == ["c1", "c2"]


def test_parse_lines_reports_real_line_number():
    lines = ["# ok", "c1 u1 1000 v1 200 10", "broken"]
    with pytest.raises(LogParseError) as err:
        parse_log_lines(lines)
    assert err.value.line_number == 3


def test_parse_log_file_roundtrip(tmp_path):
    path = tmp_path / "trace.log"
    path.write_text("# comment\nc1 u1 1000 v1 200 10\n", encoding="utf-8")
    records = parse_log_file(path)
    assert records == [LogRecord("c1", "u1", 1000, "v1", 200, 10)]


# --- preprocessing ---


def test_preprocess_filters_statuses():
    records = [
        LogRecord("c1", "u1", 1, "v1", 200, 1),
        LogRecord("c1", "u1", 2, "v2", 404, 1),
        LogRecord("c1", "u1", 3, "v3", 500, 1),
    ]
    events = preprocess(records)
    assert [e.video_id for e in events] == ["v1"]


def test_preprocess_custom_filter():
    records = [
        LogRecord("c1", "u1", 1, "v1", 200, 1),
        LogRecord("c1", "u1", 2, "v2", 206, 1),
    ]
    events = preprocess(records, status_filter={200, 206})
    assert [e.video_id for e in events] == ["v1", "v2"]


def test_preprocess_empty():
    assert preprocess([]) == []


def test_preprocess_drops_unused_fields():
    (event,) = preprocess([LogRecord("c1", "u9", 50, "v1", 200, 912)])
    assert event == AccessEvent("c1", 50, "v1")


# --- session segmentation ---


def test_segmentation_splits_on_large_gap():
    events = [make_event("c1", t, "v") for t in (0, 100, 2000)]
    sessions = segment_sessions(events, maximum_idle_time=900)
    assert [(s.start, s.end) for s in sessions] == [(0, 100), (2000, 2000)]


def test_segmentation_gap_equal_to_idle_stays_open():
    events = [make_event("c1", t, "v") for t in (0, 1800)]
    (session,) = segment_sessions(events, maximum_idle_time=1800)
    assert (session.start, session.end) == (0, 1800)


def test_segmentation_gap_just_above_idle_splits():
    events = [make_event("c1", t, "v") for t in (0, 1801)]
    sessions = segment_sessions(events, maximum_idle_time=1800)
    assert [(s.start, s.end) for s in sessions] == [(0, 0), (1801, 1801)]


def test_segmentation_separates_clients():
    events = [make_event("c1", 0, "v"), make_event("c2", 10, "v")]
    sessions = segment_sessions(events)
    assert [(s.client_id, s.start) for s in sessions] == [("c1", 0), ("c2", 10)]


def test_segmentation_orders_out_of_order_events():
    events = [make_event("c1", 500, "b"), make_event("c1", 0, "a")]
    (session,) = segment_sessions(events)
    assert [e.timestamp for e in session.events] == [0, 500]


def test_segmentation_equal_timestamps_keep_input_order():
    events = [make_event("c1", 100, "first"), make_event("c1", 100, "second")]
    (session,) = segment_sessions(events)
    assert [e.video_id for e in session.events] == ["first", "second"]


def test_segmentation_rejects_nonpositive_idle():
    with pytest.raises(ValueError):
        segment_sessions([], maximum_idle_time=0)


def test_segmentation_empty():
    assert segment_sessions([]) == []


def test_segmentation_partition_property():
    # Random streams: sessions must partition each client's events exactly,
    # with intra-session gaps <= idle and inter-session gaps > idle.
    rng = random.Random(4242)
    idle = 300
    for _ in range(25):
        events = []
        for c in range(8):
            t = 0
            for _ in range(rng.randrange(0, 40)):
                t += rng.randrange(0, 900)
                events.append(make_event(f"c{c}", t, f"v{rng.randrange(5)}"))
        rng.shuffle(events)
        sessions = segment_sessions(events, maximum_idle_time=idle)

        regrouped: dict[str, list[AccessEvent]] = {}
        for session in sessions:
            assert session.start == session.events[0].timestamp
            assert session.end == session.events[-1].timestamp
            for a, b in zip(session.events, session.events[1:]):
                assert 0 <= b.timestamp - a.timestamp <= idle
            assert len({e.client_id for e in session.events}) == 1
            regrouped.setdefault(session.client_id, []).extend(session.events)
        for client, evs in regrouped.items():
            original = sorted(
                (e for e in events if e.client_id == client), key=lambda e: e.timestamp
            )
            assert sorted(evs, key=lambda e: e.timestamp) == original
        by_client: dict[str, list] = {}
        for session in sessions:
            by_client.setdefault(session.client_id, []).append(session)
        for runs in by_client.values():
            for a, b in zip(runs, runs[1:]):
                assert b.start - a.end > idle


def test_session_id_format():
    events = [make_event("c9", 123, "v")]
    (session,) = segment_sessions(events)
    assert session.session_id == "c9:123"


# --- window grouping ---


def test_window_grouping_buckets_by_start():
    sessions = segment_sessions(
        [make_event("c1", 10, "v"), make_event("c1", 86410, "v"), make_event("c2", 50, "v")]
    )
    windows = group_sessions_by_window(sessions, 86400)
    assert [len(w) for w in windows] == [2, 1]
    assert [s.client_id for s in windows[0]] == ["c1", "c2"]


def test_window_grouping_keeps_interior_empty_windows():
    sessions = segment_sessions(
        [make_event("c1", 0, "v"), make_event("c1", 3 * 86400 + 5, "v")]
    )
    windows = group_sessions_by_window(sessions, 86400)
    assert [len(w) for w in windows] == [1, 0, 0, 1]


def test_window_grouping_alignment_is_absolute():
    # Buckets align to multiples of the spacing, not to the earliest session,
    # so a later-starting client cannot drag windows out of phase.
    sessions = segment_sessions(
        [make_event("c1", 5000, "v"), make_event("c2", 86400 + 100, "v")]
    )
    windows = group_sessions_by_window(sessions, 86400)
    assert [len(w) for w in windows] == [1, 1]


def test_window_grouping_empty():
    assert group_sessions_by_window([], 86400) == []


def test_window_grouping_rejects_bad_spacing():
    with pytest.raises(ValueError):
        group_sessions_by_window([], 0)
