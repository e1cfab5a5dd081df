from __future__ import annotations

import sys
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodprefetch.logs import (
    AccessEvent,
    LogParseError,
    group_sessions_by_window,
    iter_events,
    parse_log_file,
    parse_log_lines,
    preprocess,
    segment_sessions,
)
from vodprefetch.workload import LogRecord, WorkloadConfig, generate, render_trace_log

from conftest import make_event


def test_parse_basic_line():
    records = parse_log_lines(["c1 u1 1000 v42 200 512"])
    assert records == [LogRecord("c1", "u1", 1000, "v42", 200, 512)]


def test_parse_ignores_trailing_fields():
    (rec,) = parse_log_lines(["c1 u1 1000 v42 200 512 extra junk"])
    assert rec.bytes_sent == 512


def test_parse_csv_variant():
    line = "c1, u1, 1000, v42, 200, 512"
    assert list(iter_events([line], delimiter=",")) == [AccessEvent("c1", 1000, "v42")]
    assert parse_log_lines([line], delimiter=",") == [
        LogRecord("c1", "u1", 1000, "v42", 200, 512)
    ]


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


def test_parse_log_file_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "trace.log"
    path.write_text("\ufeffc1 u1 1000 v1 200 10\n", encoding="utf-8")
    assert parse_log_file(path) == [LogRecord("c1", "u1", 1000, "v1", 200, 10)]


# --- preprocessing ---


def test_preprocess_filters_statuses():
    records = [
        LogRecord("c1", "u1", 1, "v1", 200, 1),
        LogRecord("c1", "u1", 2, "v2", 404, 1),
        LogRecord("c1", "u1", 3, "v3", 500, 1),
    ]
    events = preprocess(records)
    assert [e.video_id for e in events] == ["v1"]


def test_preprocess_empty():
    assert preprocess([]) == []


def test_preprocess_drops_unused_fields():
    (event,) = preprocess([LogRecord("c1", "u9", 50, "v1", 200, 912)])
    assert event == AccessEvent("c1", 50, "v1")


# --- one-pass reading ---

STATUSES = (200, 206, 304, 404, 500)
ids = st.text(alphabet="abc019", min_size=1, max_size=3)


@st.composite
def record_fields(draw):
    return [
        draw(ids),
        draw(ids),
        str(draw(st.integers(0, 10**6))),
        draw(ids),
        str(draw(st.sampled_from(STATUSES))),
        str(draw(st.integers(0, 10**6))),
    ]


def bad_fields(draw, fields, delimiter):
    """Break one well-formed line in a way parsing must reject."""
    kinds = ["short", "non-numeric", "negative timestamp", "huge timestamp", "negative bytes"]
    if delimiter:
        kinds += ["empty client", "empty video"]
    kind = draw(st.sampled_from(kinds))
    if kind == "short":
        return fields[: draw(st.integers(1, 5))]
    if kind == "non-numeric":
        fields[draw(st.sampled_from([2, 4, 5]))] = "x1"
    elif kind == "negative timestamp":
        fields[2] = "-" + str(draw(st.integers(1, 10**6)))
    elif kind == "huge timestamp":
        fields[2] = str(2**63 + draw(st.integers(0, 10**6)))
    elif kind == "negative bytes":
        fields[5] = "-" + str(draw(st.integers(1, 10**6)))
    elif kind == "empty client":
        fields[0] = ""
    else:
        fields[3] = " "
    return fields


@st.composite
def logs(draw):
    """(lines, delimiter, has_bad_line): a random log, maybe with one malformed line."""
    delimiter = draw(st.sampled_from([None, ","]))
    sep = draw(st.sampled_from([",", ", "] if delimiter else [" ", "\t", "  "]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record", "record", "record", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["", "  "])) + "# client_id user_id ...")
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            fields = draw(record_fields()) + draw(st.lists(ids, max_size=2))
            lines.append(draw(st.sampled_from(["", "  "])) + sep.join(fields))
    has_bad_line = draw(st.booleans())
    if has_bad_line:
        bad = sep.join(bad_fields(draw, draw(record_fields()), delimiter))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return [line + "\n" for line in lines], delimiter, has_bad_line


def outcome(read):
    try:
        return read(), None
    except LogParseError as exc:
        return None, (str(exc), exc.line_number)


# The `iter_events` tests check its events, read into a list.


@given(logs())
@settings(max_examples=400, deadline=None)
def test_iter_events_equals_parse_then_preprocess(log):
    lines, delimiter, has_bad_line = log
    one_pass = outcome(lambda: list(iter_events(lines, delimiter=delimiter)))
    two_pass = outcome(lambda: preprocess(parse_log_lines(lines, delimiter=delimiter)))
    assert one_pass == two_pass
    assert (one_pass[1] is not None) == has_bad_line


# Whitespace, line endings and number spellings that `logs()` never draws:
# `str.split()` and `str.strip()` treat all of these separators as
# whitespace, and `int` reads each spelling of a good number below.
SPACES = (" ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "　")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
spaces = st.sampled_from([a + b for a in SPACES for b in ("", *SPACES)])


@st.composite
def spelled(draw, values, allow_bad):
    """One field for a number drawn from `values`, maybe malformed."""
    if allow_bad:
        kind = draw(st.sampled_from(["good"] * 6 + ["negative", "non-numeric", "too long"]))
        if kind == "negative":
            return "-" + str(draw(st.integers(1, 10**6)))
        if kind == "non-numeric":
            return draw(st.sampled_from(["x1", "7_", "1__0", "_7", "٧x", "--1"]))
        if kind == "too long":
            return "1" * 4301
    digits = str(draw(values))
    return draw(st.sampled_from([
        digits, "+" + digits, "00" + digits, "0_" + digits, digits.translate(ARABIC_INDIC),
    ]))


@st.composite
def whitespace_logs(draw):
    """Lines of a whitespace log with odd separators, endings and numbers."""
    allow_bad = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["record", "record", "record", "comment", "blank"]))
        if kind == "blank":
            lines.append(draw(spaces))
            continue
        fields = [
            draw(ids),
            draw(ids),
            draw(spelled(st.integers(0, 10**6), allow_bad)),
            draw(ids),
            draw(spelled(st.sampled_from(STATUSES), allow_bad)),
            draw(spelled(st.integers(0, 10**6), allow_bad)),
        ] + draw(st.lists(ids, max_size=2))
        if kind == "comment":
            fields[0] = "#" + fields[0]
        elif allow_bad and draw(st.integers(0, 3)) == 0:
            fields = fields[: draw(st.integers(1, 5))]
        line = "".join(draw(spaces) + field for field in fields)
        if not draw(st.booleans()):
            line = line.lstrip()
        lines.append(line + draw(st.sampled_from(["", " ", "\x0c"])))
    ending = draw(st.sampled_from(["", "\n", "\r\n"]))
    return [line + ending for line in lines]


@given(whitespace_logs())
@settings(max_examples=200, deadline=None)
def test_whitespace_iter_events_equals_reference_on_odd_input(lines):
    one_pass = outcome(lambda: list(iter_events(lines)))
    two_pass = outcome(lambda: preprocess(parse_log_lines(lines)))
    assert one_pass == two_pass


# One case per branch of the reader, each against the reference.


def read_both(lines, delimiter=None):
    """iter_events's outcome as a list, after checking it equals the two-step reference's."""
    one_pass = outcome(lambda: list(iter_events(lines, delimiter=delimiter)))
    two_pass = outcome(lambda: preprocess(parse_log_lines(lines, delimiter=delimiter)))
    assert one_pass == two_pass
    return one_pass


NON_EMPTY = "client_id and video_id must be non-empty"


@pytest.mark.parametrize(
    "lines, expected",
    [
        (["   ", "c1,u1,10,v1,200,5", "c1,u1,20,v2,404,5"],
         ([AccessEvent("c1", 10, "v1")], None)),
        (["  # c1,u1,10,v1,200,5", "c1,u1,20,v2,200,5"], ([AccessEvent("c1", 20, "v2")], None)),
        (["#,client_id,user_id,timestamp,video_id,status_code,bytes_sent", "c1,u1,10,v1,200,5"],
         ([AccessEvent("c1", 10, "v1")], None)),
        (["c1 , u1 ,10, v1 , 200 ,5 "], ([AccessEvent("c1", 10, "v1")], None)),
        (["c1,u1,10,v1,200,5,extra"], ([AccessEvent("c1", 10, "v1")], None)),
        (["c1,u1,10,v1,200,5", ",u1,20,v2,200,5"], (None, (f"line 2: {NON_EMPTY}", 2))),
        (["c1,u1,10, \t,200,5"], (None, (f"line 1: {NON_EMPTY}", 1))),
    ],
    ids=["blank", "indented-comment", "header", "spaced-commas", "seven-fields",
         "empty-client", "blank-video"],
)
def test_csv_read_events(lines, expected):
    assert read_both(lines, delimiter=",") == expected


def one_line(status="200", raw_bytes="5"):
    """Client c1's request of v1 at 10 s, with these status and bytes fields."""
    return f"c1 u1 10 v1 {status} {raw_bytes}"


def non_numeric(line, number=1):
    """read_both's outcome when line `number` of a log, `line`, holds a number int() cannot read."""
    return None, (f"line {number}: non-numeric timestamp, status or bytes in {line.split()!r}",
                  number)


KEPT = ([AccessEvent("c1", 10, "v1")], None)
NON_NUMERIC_LINES = {"timestamp": "c1 u1 notatime v42 200 512",
                     "status": "c1 u1 1000 v42 OK 512", "bytes": "c1 u1 1000 v42 200 half"}
# The fast path takes at most 640 decimal digits; every other spelling
# that int() reads goes through the shared step, with the same result.
GOOD_BYTES = {"arabic-indic": "٥", "fullwidth": "５", "plus": "+5", "underscore": "5_0",
              "640-zeros": "0" * 640, "640-digits": "1" * 640, "641-digits": "1" * 641,
              "641-arabic-indic": "٥" * 641}
BAD_BYTES = {"superscript": "²", "digit-superscript": "5²", "circled": "①",
             "arabic-indic-x": "٥x", "4301-digits": "1" * 4301}
WHITESPACE_READS = {
    "too-few-fields": (["#"] * 16 + ["c1 u1 1000"],
                       (None, ("line 17: expected at least 6 fields, got 3", 17))),
    **{f"non-numeric-{name}": (["# comment", "", line], non_numeric(line, 3))
       for name, line in NON_NUMERIC_LINES.items()},
    "negative-timestamp": (["c1 u1 -5 v42 200 512"], (None, ("line 1: negative timestamp -5", 1))),
    "bad-line-with-filtered-status": (["c1 u1 10 v1 200 5", "c1 u1 20 v2 404 -5"],
                                      (None, ("line 2: negative bytes_sent -5", 2))),
    "six-token-comment": (["# u1 10 v1 200 5", "c1 u1 20 v2 200 5"],
                          ([AccessEvent("c1", 20, "v2")], None)),
    "seven-fields": (["c1 u1 10 v1 200 5 extra", "c1 u1 20 v2 200 5"],
                     ([AccessEvent("c1", 10, "v1"), AccessEvent("c1", 20, "v2")], None)),
    **{f"bytes-{name}": ([one_line(raw_bytes=raw)], KEPT) for name, raw in GOOD_BYTES.items()},
    **{f"bad-bytes-{name}": ([one_line(raw_bytes=raw)], non_numeric(one_line(raw_bytes=raw)))
       for name, raw in BAD_BYTES.items()},
}


@pytest.mark.parametrize("lines, expected", WHITESPACE_READS.values(), ids=list(WHITESPACE_READS))
def test_whitespace_read_events(lines, expected):
    assert read_both(lines) == expected


@pytest.mark.parametrize("status", ["0200", "+200", "00200", "+0200", "2_00", "٢٠٠"])
def test_iter_events_keeps_other_spellings_of_a_passing_status(status):
    assert read_both([one_line(status=status)]) == KEPT


@pytest.mark.parametrize("status", ["0404", "+404", "2000", "20", "-200", "٢٠٦"])
def test_iter_events_filters_other_spellings_by_value(status):
    assert read_both([one_line(status=status)]) == ([], None)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit on this Python"
)
def test_iter_events_agrees_with_reference_at_the_lowest_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert read_both(["c1 u1 10 v1 200 " + "1" * 640]) == ([AccessEvent("c1", 10, "v1")], None)
        fields = ["c1", "u1", "10", "v1", "200", "1" * 641]
        events, error = read_both([" ".join(fields)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert events is None
    assert error == (f"line 1: non-numeric timestamp, status or bytes in {fields!r}", 1)


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("delimiter", [None, ","], ids=["whitespace", "csv"])
def test_timestamps_up_to_int64_max_are_kept(delimiter):
    line = (delimiter or " ").join(["c1", "u1", "{}", "v1", "200", "5"])
    top = [line.format(INT64_MAX)]
    assert read_both(top, delimiter) == ([AccessEvent("c1", INT64_MAX, "v1")], None)
    (session,) = segment_sessions(iter_events(top, delimiter=delimiter))
    assert (session.start, session.end) == (INT64_MAX, INT64_MAX)
    above = [*top, line.format(INT64_MAX + 1)]
    assert read_both(above, delimiter) == (
        None, (f"line 2: timestamp {INT64_MAX + 1} above 2**63 - 1", 2)
    )


@pytest.mark.parametrize("timestamp", [INT64_MAX + 1, -(2**63) - 1])
def test_segmentation_rejects_timestamps_outside_int64(timestamp):
    events = [("c1", 0, "v1"), ("c1", timestamp, "v2")]
    with pytest.raises(ValueError, match=f"^timestamp {timestamp} outside the int64 range$"):
        segment_sessions(events)


# --- session segmentation ---


def reference_segments(events, maximum_idle_time):
    """Segmentation over AccessEvents as it was before sessions held columns.

    Returns (client_id, events) pairs in segment_sessions's order.
    """
    by_client: dict[str, list[AccessEvent]] = {}
    for event in events:
        by_client.setdefault(event.client_id, []).append(event)
    segments = []
    for client_id in sorted(by_client):
        run: list[AccessEvent] = []
        for event in sorted(by_client[client_id], key=attrgetter("timestamp")):
            if run and event.timestamp - run[-1].timestamp > maximum_idle_time:
                segments.append((client_id, tuple(run)))
                run = []
            run.append(event)
        if run:
            segments.append((client_id, tuple(run)))
    return segments


@st.composite
def event_streams(draw):
    """(events, idle): several clients' events, shuffled or in time order.

    Steps between a client's events are 0 (equal timestamps), 1, or the
    idle bound minus one, exactly, or plus one.
    """
    idle = draw(st.integers(1, 6))
    steps = st.sampled_from([0, 0, 1, idle - 1, idle, idle + 1])
    events = []
    for client_id in draw(st.lists(st.sampled_from(["c1", "c2", "c3", "c10"]), unique=True)):
        timestamp = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(1, 12))):
            timestamp += draw(steps)
            events.append(AccessEvent(client_id, timestamp, draw(st.sampled_from(["v1", "v2", "v3"]))))
    if draw(st.booleans()):
        events = draw(st.permutations(events))
    else:
        events.sort(key=attrgetter("timestamp"))  # clients interleaved, each in order
    return events, idle


@given(event_streams())
@settings(max_examples=300, deadline=None)
def test_segmentation_equals_event_based_reference(stream):
    events, idle = stream
    expected = reference_segments(events, idle)
    for given_events in (events, [tuple(event) for event in events]):
        sessions = segment_sessions(iter(given_events), idle)
        assert len(sessions) == len(expected)
        for session, (client_id, run) in zip(sessions, expected):
            assert session.client_id == client_id
            assert session.timestamps.typecode == "q"
            assert tuple(session.timestamps) == tuple(event.timestamp for event in run)
            assert session.videos == tuple(event.video_id for event in run)
            assert (session.start, session.end) == (run[0].timestamp, run[-1].timestamp)
            assert session.events == run


@given(logs())
@settings(max_examples=200, deadline=None)
def test_streamed_segmentation_equals_segmentation_of_listed_iter_events(log):
    lines, delimiter, _ = log

    def sessions(read):
        return outcome(lambda: segment_sessions(read(iter(lines), delimiter=delimiter), 5000))

    def listed(*args, **kwargs):
        return list(iter_events(*args, **kwargs))

    assert sessions(iter_events) == sessions(listed)


def test_streamed_segmentation_raises_at_the_bad_line():
    lines = ["# header", "c1 u1 10 v1 200 5", "c2 u2 20 v2 404 5", "", "c1 u1 30 x1 OK 5"]
    with pytest.raises(LogParseError) as streamed:
        segment_sessions(iter_events(iter(lines)))
    with pytest.raises(LogParseError) as listed:
        list(iter_events(lines))
    assert str(streamed.value) == str(listed.value)
    assert streamed.value.line_number == listed.value.line_number == 5


def test_streamed_segmentation_peaks_below_the_event_list():
    # About 30k log lines. Streaming keeps only each client's timestamp and
    # video columns, where the listed baseline first holds a tuple per line.
    records, _ = generate(WorkloadConfig(num_clients=20, num_session_windows=5, seed=11,
                                         requests_min=280, requests_max=320))
    lines = render_trace_log(records).splitlines(keepends=True)
    del records
    assert 25_000 <= len(lines) <= 35_000

    def peak(segment):
        tracemalloc.start()
        try:
            sessions = segment()
            return tracemalloc.get_traced_memory()[1], sessions
        finally:
            tracemalloc.stop()

    streamed, streamed_sessions = peak(lambda: segment_sessions(iter_events(lines)))
    listed, listed_sessions = peak(lambda: segment_sessions(list(iter_events(lines))))
    assert streamed_sessions == listed_sessions
    assert streamed <= 0.6 * listed, (streamed, listed)


def test_segmentation_keeps_at_most_24_bytes_per_event():
    # The ~30k-line log of the test above. The sessions' int64 timestamp
    # columns and video tuples cost 16 bytes per event, plus each
    # session's headers; int objects in a list would cost about 44.
    records, _ = generate(WorkloadConfig(num_clients=20, num_session_windows=5, seed=11,
                                         requests_min=280, requests_max=320))
    lines = render_trace_log(records).splitlines(keepends=True)
    del records
    tracemalloc.start()
    try:
        sessions = segment_sessions(iter_events(lines))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept = sum(len(session.videos) for session in sessions)
    assert kept >= 25_000
    assert held <= 24 * kept, (held, kept)


@pytest.mark.parametrize(
    "read", [iter_events, lambda lines: preprocess(parse_log_lines(lines))],
    ids=["iter_events", "preprocess"],
)
def test_sessions_hold_one_string_per_id(read):
    # Ids of several characters, which CPython does not share by itself;
    # each client's five lines make three sessions.
    lines = [f"client-{c} u1 {t} video-{t % 3} 200 5"
             for c in "ab" for t in (10, 20, 5000, 5010, 9000)]
    sessions = segment_sessions(read(lines))
    assert len(sessions) == 6
    videos = [video for session in sessions for video in session.videos]
    assert len(set(map(id, videos))) == len(set(videos)) == 3
    clients = [session.client_id for session in sessions]
    assert len(set(map(id, clients))) == len(set(clients)) == 2


def test_segmentation_empty():
    assert segment_sessions([]) == []


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


@pytest.mark.parametrize(
    "reject, message",
    [
        (lambda: segment_sessions([], maximum_idle_time=0), "maximum_idle_time must be positive"),
        (lambda: group_sessions_by_window([], 0), "window_spacing must be positive"),
    ],
    ids=["idle-time", "window-spacing"],
)
def test_rejected_bounds_name_their_cause(reject, message):
    with pytest.raises(ValueError) as err:
        reject()
    assert str(err.value) == message
