from __future__ import annotations

import random

import pytest

from vodprefetch.patterns import (
    BaseVector,
    UnknownVideoError,
    build_base_vector,
    patterns_for_sessions,
    render_pattern_matrix,
)

from conftest import make_event, make_session


def test_base_vector_sorted_distinct():
    events = [make_event("c", t, v) for t, v in [(0, "v2"), (1, "v1"), (2, "v2")]]
    base = build_base_vector(events)
    assert base.urls == ("v1", "v2")
    assert base.size == 2


def test_base_vector_stable_under_shuffle():
    events = [make_event("c", i, f"v{i:03d}") for i in range(200)]
    shuffled = list(events)
    random.Random(3).shuffle(shuffled)
    assert build_base_vector(events).urls == build_base_vector(shuffled).urls
    assert build_base_vector(events).size == 200


def test_base_vector_empty_corpus():
    with pytest.raises(ValueError):
        build_base_vector([])


def test_base_vector_rejects_duplicate_urls():
    with pytest.raises(ValueError, match="base vector URLs must be distinct"):
        BaseVector.from_urls(["v1", "v2", "v1"])


def test_extract_pattern_frequency_threshold():
    session = make_session("c1", [(0, "v1"), (1, "v1"), (2, "v1"), (3, "v2")])
    base = build_base_vector(list(session.events))
    (pattern,), dropped = patterns_for_sessions([session], base, freq_threshold=2)
    assert pattern.bits == (1, 0)
    assert pattern.client_id == "c1"
    assert dropped == 0


def test_extract_pattern_threshold_one_marks_any_request():
    session = make_session("c1", [(0, "v1"), (1, "v2")])
    base = build_base_vector(list(session.events))
    (pattern,), _ = patterns_for_sessions([session], base, freq_threshold=1)
    assert pattern.bits == (1, 1)


def test_extract_pattern_all_below_threshold():
    session = make_session("c1", [(0, "v1"), (1, "v2")])
    base = build_base_vector(list(session.events))
    assert patterns_for_sessions([session], base, freq_threshold=2) == ([], 1)


def test_extract_pattern_unknown_video():
    session = make_session("c1", [(0, "v1"), (1, "vX")])
    base = build_base_vector([make_event("c1", 0, "v1")])
    with pytest.raises(UnknownVideoError) as err:
        patterns_for_sessions([session], base)
    assert err.value.video_id == "vX"
    assert "vX" in str(err.value)


def test_extract_pattern_rejects_bad_threshold():
    session = make_session("c1", [(0, "v1")])
    base = build_base_vector(list(session.events))
    with pytest.raises(ValueError):
        patterns_for_sessions([session], base, freq_threshold=0)


def test_bad_threshold_is_rejected_without_sessions():
    base = build_base_vector([make_event("c1", 0, "v1")])
    with pytest.raises(ValueError, match="^freq_threshold must be >= 1$"):
        patterns_for_sessions([], base, 0)


def bits_of(session, base):
    """The session's pattern bits, all zeros when its pattern is dropped."""
    kept, _ = patterns_for_sessions([session], base)
    return kept[0].bits if kept else (0,) * base.size


def test_extract_pattern_order_invariance():
    rng = random.Random(17)
    base = build_base_vector([make_event("c", i, f"v{i}") for i in range(6)])
    for _ in range(50):
        requests = [(t, f"v{rng.randrange(6)}") for t in range(rng.randrange(1, 20))]
        session = make_session("c1", requests)
        reference = bits_of(session, base)
        shuffled = list(requests)
        rng.shuffle(shuffled)
        shuffled = [(t, v) for t, (_, v) in zip(range(len(shuffled)), shuffled)]
        assert bits_of(make_session("c1", shuffled), base) == reference


def test_extract_pattern_duplicates_never_clear_bits():
    rng = random.Random(23)
    base = build_base_vector([make_event("c", i, f"v{i}") for i in range(5)])
    for _ in range(50):
        requests = [(t, f"v{rng.randrange(5)}") for t in range(rng.randrange(1, 12))]
        before = bits_of(make_session("c1", requests), base)
        extra = requests + [(len(requests), requests[rng.randrange(len(requests))][1])]
        after = bits_of(make_session("c1", extra), base)
        assert all(b >= a for a, b in zip(before, after))


def test_patterns_for_sessions_drops_zero_rows():
    base = build_base_vector([make_event("c", 0, "v1"), make_event("c", 1, "v2")])
    solid = make_session("c1", [(0, "v1"), (1, "v1")])
    hollow = make_session("c2", [(5, "v2")])
    kept, dropped = patterns_for_sessions([solid, hollow], base)
    assert [p.client_id for p in kept] == ["c1"]
    assert dropped == 1


def test_pattern_rows_are_binary_and_sized():
    # A mixed bag of sessions yields rows of base width with only 0/1 values.
    rng = random.Random(5)
    base = build_base_vector([make_event("c", i, f"v{i:02d}") for i in range(12)])
    sessions = []
    for c in range(10):
        requests = [
            (t, f"v{rng.randrange(12):02d}") for t in range(rng.randrange(2, 30))
        ]
        sessions.append(make_session(f"c{c}", requests))
    kept, _ = patterns_for_sessions(sessions, base)
    assert kept
    for pattern in kept:
        assert len(pattern.bits) == 12
        assert set(pattern.bits) <= {0, 1}


def test_render_pattern_matrix():
    base = build_base_vector([make_event("c", 0, "v1"), make_event("c", 1, "v2")])
    session = make_session("c1", [(0, "v1"), (1, "v1")])
    kept, _ = patterns_for_sessions([session], base)
    assert render_pattern_matrix(kept, base) == "v1,v2\n1,0\n"


def test_render_pattern_matrix_width_mismatch():
    base = build_base_vector([make_event("c", 0, "v1"), make_event("c", 1, "v2")])
    session = make_session("c1", [(0, "v1"), (1, "v1")])
    kept, _ = patterns_for_sessions([session], base)
    bigger = build_base_vector([make_event("c", i, f"v{i}") for i in (1, 2, 3)])
    with pytest.raises(ValueError):
        render_pattern_matrix(kept, bigger)
