from __future__ import annotations

import random

import pytest

from vodprefetch.art1 import Art1Config, ClusterReport
from vodprefetch.logs import group_sessions_by_window, segment_sessions
from vodprefetch.patterns import BaseVector, build_base_vector
from vodprefetch.prefetch import (
    CacheMetrics,
    build_plan,
    evaluate_plan,
    member_weighted_accuracy,
    render_metrics_csv,
    sliding_run,
)

from conftest import make_event, make_session


def base_of(*urls):
    return BaseVector.from_urls(urls)


def report(cluster, prototype, clients=("c1",)):
    return ClusterReport(cluster, tuple(clients), tuple(prototype), len(clients))


# --- plan building ---


def test_build_plan_lists_set_bits_in_order():
    base = base_of("v1", "v2", "v3", "v4")
    plan = build_plan([report(0, (0, 1, 1, 0))], base)
    assert plan.urls_by_cluster == {0: ("v2", "v3")}


def test_build_plan_empty_prototype():
    base = base_of("v1", "v2")
    plan = build_plan([report(0, (0, 0))], base)
    assert plan.urls_by_cluster == {0: ()}


def test_build_plan_full_prototype_length():
    urls = tuple(f"v{i:02d}" for i in range(36))
    plan = build_plan([report(2, (1,) * 36)], BaseVector.from_urls(urls))
    assert len(plan.urls_by_cluster[2]) == 36


def test_build_plan_width_mismatch():
    with pytest.raises(ValueError):
        build_plan([report(0, (1, 0, 1))], base_of("v1", "v2"))


# --- evaluation ---


def test_evaluate_counts_distinct_hits():
    base = base_of("v1", "v2", "v3")
    plan = build_plan([report(0, (1, 1, 0))], base)
    sessions = [make_session("c1", [(0, "v1"), (1, "v1"), (2, "v3")])]
    result = evaluate_plan(plan, sessions, {"c1": 0})
    (metric,) = result.metrics
    assert metric == CacheMetrics(0, 1, 2, 1, 0.5)


def test_evaluate_accuracy_fraction():
    # 36 prefetched, 34 requested: accuracy mirrors a hits/prefetched ratio
    urls = tuple(f"v{i:02d}" for i in range(40))
    base = BaseVector.from_urls(urls)
    prototype = tuple(1 if i < 36 else 0 for i in range(40))
    plan = build_plan([report(0, prototype)], base)
    requests = [(t, f"v{t:02d}") for t in range(34)]
    result = evaluate_plan(plan, [make_session("c1", requests)], {"c1": 0})
    (metric,) = result.metrics
    assert metric.hits == 34
    assert metric.accuracy == pytest.approx(34 / 36)


def test_evaluate_empty_plan_has_zero_accuracy():
    base = base_of("v1")
    plan = build_plan([report(0, (0,))], base)
    result = evaluate_plan(plan, [make_session("c1", [(0, "v1")])], {"c1": 0})
    (metric,) = result.metrics
    assert metric.prefetched_count == 0
    assert metric.hits == 0
    assert metric.accuracy == 0.0


def test_evaluate_unclustered_bucket():
    base = base_of("v1", "v2")
    plan = build_plan([report(0, (1, 0))], base)
    sessions = [
        make_session("c1", [(0, "v1")]),
        make_session("cX", [(1, "v2")]),
        make_session("cY", [(2, "v1")]),
    ]
    result = evaluate_plan(plan, sessions, {"c1": 0})
    assert result.unclustered_clients == ("cX", "cY")
    (metric,) = result.metrics
    assert metric.hits == 1  # cY's request does not count toward cluster 0


def test_evaluate_nonmember_requests_do_not_hit():
    base = base_of("v1", "v2")
    plan = build_plan([report(0, (1, 0)), report(1, (0, 1))], base)
    sessions = [make_session("c2", [(0, "v1")])]  # c2 belongs to cluster 1
    result = evaluate_plan(plan, sessions, {"c1": 0, "c2": 1})
    assert [m.hits for m in result.metrics] == [0, 0]


def test_evaluate_event_order_invariance():
    rng = random.Random(31)
    base = base_of(*(f"v{i}" for i in range(8)))
    plan = build_plan([report(0, (1, 1, 1, 0, 0, 0, 1, 0))], base)
    sessions = [
        make_session(f"c{c}", [(t, f"v{rng.randrange(8)}") for t in range(10)])
        for c in range(4)
    ]
    membership = {f"c{c}": 0 for c in range(4)}
    reference = evaluate_plan(plan, sessions, membership)
    for _ in range(5):
        shuffled = list(sessions)
        rng.shuffle(shuffled)
        assert evaluate_plan(plan, shuffled, membership) == reference


def test_metrics_validation():
    with pytest.raises(ValueError):
        CacheMetrics(0, 1, 2, 3, 1.5)


def test_member_weighted_accuracy():
    rows = [
        (0, type("R", (), {"metrics": (CacheMetrics(0, 8, 36, 34, 34 / 36),
                                       CacheMetrics(1, 2, 10, 5, 0.5))})()),
    ]
    expected = (8 * 34 / 36 + 2 * 0.5) / 10
    assert member_weighted_accuracy(rows) == pytest.approx(expected)
    assert member_weighted_accuracy([]) == 0.0


# --- sliding windows ---


def _two_window_sessions(day=86400):
    # Window 0: two clients with stable per-session favourites.
    # Window 1: the same favourites requested again (once is enough to hit).
    events = []
    for t0, client, video in [
        (0, "a", "v1"),
        (0, "b", "v2"),
        (day, "a", "v1"),
        (day, "b", "v2"),
    ]:
        events.append(make_event(client, t0 + 10, video))
        events.append(make_event(client, t0 + 20, video))
    return segment_sessions(events)


def test_sliding_run_perfect_rerequest():
    sessions = _two_window_sessions()
    base = build_base_vector([e for s in sessions for e in s.events])
    windows = group_sessions_by_window(sessions, 86400)
    results = sliding_run(windows, base, Art1Config(base.size, 0.5, 10, 10))
    assert len(results) == 1
    window, result = results[0]
    assert window == 0
    assert all(m.accuracy == 1.0 for m in result.metrics)
    assert member_weighted_accuracy(results) == 1.0


def test_sliding_run_disjoint_next_window():
    events = []
    for t in (10, 20):
        events.append(make_event("a", t, "v1"))
    for t in (86410, 86420):
        events.append(make_event("a", t, "v2"))
    sessions = segment_sessions(events)
    base = build_base_vector([e for s in sessions for e in s.events])
    windows = group_sessions_by_window(sessions, 86400)
    results = sliding_run(windows, base, Art1Config(base.size, 0.5, 10, 10))
    (window, result), = results
    (metric,) = result.metrics
    assert metric.hits == 0 and metric.accuracy == 0.0


def test_sliding_run_needs_two_windows():
    base = base_of("v1")
    with pytest.raises(ValueError):
        sliding_run([[]], base, Art1Config(1, 0.5, 1, 1))


def test_sliding_run_empty_window_yields_empty_result():
    sessions = _two_window_sessions(day=3 * 86400)
    base = build_base_vector([e for s in sessions for e in s.events])
    windows = group_sessions_by_window(sessions, 86400)
    assert [len(w) for w in windows] == [2, 0, 0, 2]
    results = sliding_run(windows, base, Art1Config(base.size, 0.5, 10, 10))
    assert len(results) == 3
    # windows 1 and 2 retrain on cumulative history and still produce rows
    assert results[1][1].metrics and results[2][1].metrics


def test_sliding_run_history_restriction():
    # With history_windows=1 the window-2 model sees only window 2 patterns.
    events = []
    for t in (10, 20):
        events.append(make_event("a", t, "v1"))
    for t in (86400 + 10, 86400 + 20):
        events.append(make_event("a", t, "v2"))
    for t in (2 * 86400 + 10, 2 * 86400 + 20):
        events.append(make_event("a", t, "v2"))
    sessions = segment_sessions(events)
    base = build_base_vector([e for s in sessions for e in s.events])
    windows = group_sessions_by_window(sessions, 86400)
    cumulative = sliding_run(windows, base, Art1Config(base.size, 0.9, 10, 10))
    restricted = sliding_run(
        windows, base, Art1Config(base.size, 0.9, 10, 10), history_windows=1
    )
    # cumulative keeps both v1 and v2 clusters; the restricted run has only
    # the v2 cluster by window 1 and scores it cleanly
    assert len(cumulative[1][1].metrics) == 2
    assert len(restricted[1][1].metrics) == 1
    assert restricted[1][1].metrics[0].accuracy == 1.0


def test_sliding_run_ignores_future_windows():
    # Appending a third window must not change the window-0 evaluation.
    sessions = _two_window_sessions()
    extra = segment_sessions(
        [make_event("a", 2 * 86400 + 5, "v9"), make_event("a", 2 * 86400 + 6, "v9")]
    )
    all_sessions = sessions + extra
    base = build_base_vector([e for s in all_sessions for e in s.events])
    short = group_sessions_by_window(sessions, 86400)
    full = group_sessions_by_window(all_sessions, 86400)
    config = Art1Config(base.size, 0.5, 10, 10)
    assert sliding_run(short, base, config)[0] == sliding_run(full, base, config)[0]


def _windows_of(day_requests, day=86400):
    # day_requests[d] lists (client, video) pairs; each is requested twice
    # on day d, so it sets one pattern bit at the default threshold.
    events = []
    for d, requests in enumerate(day_requests):
        for client, video in requests:
            events.append(make_event(client, d * day + 10, video))
            events.append(make_event(client, d * day + 20, video))
    sessions = segment_sessions(events)
    base = build_base_vector([e for s in sessions for e in s.events])
    return group_sessions_by_window(sessions, day), base


def test_sliding_run_capacity_error_stays_in_its_window():
    # Window 1 holds two disjoint patterns, which one cluster at vigilance
    # 0.9 cannot hold; windows 0 and 2 hold one pattern each.
    windows, base = _windows_of(
        [[("a", "v1")], [("a", "v1"), ("b", "v2")], [("a", "v1")], [("a", "v1")]]
    )
    results = sliding_run(
        windows, base, Art1Config(base.size, 0.9, 1, 10), history_windows=1
    )
    assert [w for w, _ in results] == [0, 1, 2]
    failed = results[1][1]
    assert failed.metrics == () and "no free cluster" in failed.error
    for w in (0, 2):
        assert results[w][1].error is None
        assert [m.accuracy for m in results[w][1].metrics] == [1.0]
    lines = render_metrics_csv(results).splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "2"]


def test_render_metrics_csv_format():
    sessions = _two_window_sessions()
    base = build_base_vector([e for s in sessions for e in s.events])
    windows = group_sessions_by_window(sessions, 86400)
    results = sliding_run(windows, base, Art1Config(base.size, 0.5, 10, 10))
    text = render_metrics_csv(results)
    lines = text.splitlines()
    assert lines[0] == "window,cluster,members,prefetched,hits,accuracy"
    assert lines[1] == "0,0,1,1,1,1.0000"
    assert lines[2] == "0,1,1,1,1,1.0000"
