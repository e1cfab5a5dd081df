from __future__ import annotations

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodprefetch import prefetch
from vodprefetch.art1 import Art1Config, CapacityError, init_network, train
from vodprefetch.logs import group_sessions_by_window, segment_sessions
from vodprefetch.patterns import BaseVector, build_base_vector, patterns_for_sessions
from vodprefetch.prefetch import (
    CacheMetrics,
    EvaluationResult,
    build_plan,
    evaluate_plan,
    member_weighted_accuracy,
    render_metrics_csv,
    sliding_run,
    sweep_vigilance,
)

from conftest import make_event, make_session


def base_of(*urls):
    return BaseVector.from_urls(urls)


def net_of(dim, *prototypes):
    """A network whose prototype masks are set directly (bit i = input i)."""
    net = init_network(Art1Config(dim, 0.5, len(prototypes)))
    net.prototypes = list(prototypes)
    return net


# --- plan building ---


def test_build_plan_lists_set_bits_in_order():
    base = base_of("v1", "v2", "v3", "v4")
    plan = build_plan(net_of(4, 0b1011, 0b0110), [1, 0], base)
    assert plan == {0: ("v1", "v2", "v4"), 1: ("v2", "v3")}
    assert list(plan) == [0, 1]


def test_build_plan_lists_each_cluster_once():
    base = base_of("v1", "v2")
    plan = build_plan(net_of(2, 0b01, 0b10), (1, 1, 0, 1, 0), base)
    assert plan == {0: ("v1",), 1: ("v2",)}


def test_build_plan_skips_clusters_without_members():
    # At vigilance 0.5 the first epoch creates cluster 0 for pattern 0,
    # which later moves to cluster 2, leaving cluster 0 with no members.
    base = base_of("v1", "v2", "v3", "v4")
    net = init_network(Art1Config(4, 0.5, 8))
    patterns = [(1, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    assignment = train(net, patterns)
    assert assignment.clusters == (2, 1, 1, 1)
    assert net.active_clusters == 3
    plan = build_plan(net, assignment.clusters, base)
    assert plan == {1: ("v3", "v4"), 2: ("v1", "v2", "v4")}


def test_build_plan_empty_prototype():
    base = base_of("v1", "v2")
    assert build_plan(net_of(2, 0), [0], base) == {0: ()}


def test_build_plan_full_prototype_length():
    urls = tuple(f"v{i:02d}" for i in range(36))
    plan = build_plan(net_of(36, 0, 0, (1 << 36) - 1), [2], BaseVector.from_urls(urls))
    assert plan == {2: urls}


def test_build_plan_width_mismatch():
    with pytest.raises(ValueError, match="input_dim 3 does not match base size 2"):
        build_plan(net_of(3, 0b101), [0], base_of("v1", "v2"))


# --- evaluation ---


def test_evaluate_counts_distinct_hits():
    plan = {0: ("v1", "v2")}
    sessions = [make_session("c1", [(0, "v1"), (1, "v1"), (2, "v3")])]
    result = evaluate_plan(plan, sessions, {"c1": 0})
    (metric,) = result.metrics
    assert metric == CacheMetrics(0, 1, 2, 1)


def test_evaluate_accuracy_fraction():
    # 36 prefetched, 34 requested: accuracy mirrors a hits/prefetched ratio
    urls = tuple(f"v{i:02d}" for i in range(40))
    plan = {0: urls[:36]}
    requests = [(t, f"v{t:02d}") for t in range(34)]
    result = evaluate_plan(plan, [make_session("c1", requests)], {"c1": 0})
    (metric,) = result.metrics
    assert metric.hits == 34
    assert metric.accuracy == pytest.approx(34 / 36)


def test_evaluate_empty_plan_has_zero_accuracy():
    plan = {0: ()}
    result = evaluate_plan(plan, [make_session("c1", [(0, "v1")])], {"c1": 0})
    (metric,) = result.metrics
    assert metric.prefetched_count == 0
    assert metric.hits == 0
    assert metric.accuracy == 0.0


def test_evaluate_unclustered_bucket():
    plan = {0: ("v1",)}
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
    plan = {0: ("v1",), 1: ("v2",)}
    sessions = [make_session("c2", [(0, "v1")])]  # c2 belongs to cluster 1
    result = evaluate_plan(plan, sessions, {"c1": 0, "c2": 1})
    assert [m.hits for m in result.metrics] == [0, 0]


def test_evaluate_event_order_invariance():
    rng = random.Random(31)
    plan = {0: ("v0", "v1", "v2", "v6")}
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


def test_member_weighted_accuracy():
    rows = [
        (0, type("R", (), {"metrics": (CacheMetrics(0, 8, 36, 34),
                                       CacheMetrics(1, 2, 10, 5))})()),
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


def test_sliding_run_empty_window_keeps_cumulative_history():
    sessions = _two_window_sessions(day=3 * 86400)
    base = build_base_vector([e for s in sessions for e in s.events])
    windows = group_sessions_by_window(sessions, 86400)
    assert [len(w) for w in windows] == [2, 0, 0, 2]
    results = sliding_run(windows, base, Art1Config(base.size, 0.5, 10, 10))
    assert len(results) == 3
    # windows 1 and 2 retrain on cumulative history and still produce rows
    assert results[1][1].metrics and results[2][1].metrics


def test_sliding_run_empty_history_yields_empty_result():
    sessions = _two_window_sessions(day=3 * 86400)
    base = build_base_vector([e for s in sessions for e in s.events])
    windows = group_sessions_by_window(sessions, 86400)
    assert [len(w) for w in windows] == [2, 0, 0, 2]
    results = sliding_run(
        windows, base, Art1Config(base.size, 0.5, 10, 10), history_windows=1
    )
    # the one-window history of window 1 is the empty window itself
    assert results[1] == (1, EvaluationResult((), ()))


def test_sliding_run_rejects_negative_history():
    windows = group_sessions_by_window(_two_window_sessions(), 86400)
    with pytest.raises(ValueError, match="history_windows must be >= 0"):
        sliding_run(windows, base_of("v1", "v2"), Art1Config(2, 0.5, 1, 1), history_windows=-1)


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


def test_cluster_left_by_its_clients_keeps_a_zero_member_row():
    # c1's window-0 pattern {v0, v1} still ends window 1's training in
    # cluster 0, but c1's latest pattern {v2, v3} is in cluster 1, so
    # cluster 0 is planned with no members.
    windows, base = _windows_of(
        [[("c1", "v0"), ("c1", "v1")], [("c1", "v2"), ("c1", "v3")], [("c1", "v2")]]
    )
    results = sliding_run(windows, base, Art1Config(base.size, 0.9, 10, 10))
    assert [w for w, _ in results] == [0, 1]
    assert results[1][1].metrics == (
        CacheMetrics(0, 0, 2, 0),
        CacheMetrics(1, 1, 2, 1),
    )
    # Two member-weighted rows (0.0 in window 0, 0.5 in window 1); the
    # zero-member row adds no weight.
    assert member_weighted_accuracy(results) == 0.25


# --- one training path: the sweep and the sliding run against direct trainings ---


class _Logged(logging.Handler):
    """Collects the (level, message) of what `prefetch` logs at WARNING and
    above while installed."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelname, record.getMessage()))

    def __enter__(self):
        logging.getLogger("vodprefetch.prefetch").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("vodprefetch.prefetch").removeHandler(self)


def _direct_training(config, bits):
    """init_network + train, as the pipeline's own helper should run them."""
    net = init_network(config)
    try:
        return net, train(net, bits), None
    except CapacityError as exc:
        return None, None, str(exc)


def _outcome(label, assignment, error):
    """What the pipeline's training helper should log for one training."""
    if error is not None:
        return [("ERROR", f"{label}: {error}")]
    logged = []
    if not assignment.converged:
        logged.append(
            ("WARNING", f"{label}: training did not converge in {assignment.epochs} epochs")
        )
    # A force-assign fallback ends in a cluster that rejected it.
    fallbacks = sum(c in r for c, r in zip(assignment.clusters, assignment.rejections))
    if fallbacks:
        logged.append(("WARNING", f"{label}: {fallbacks} of {len(assignment.clusters)}"
                       " presentations in the last epoch fell back to the closest cluster"
                       " (--force-assign)"))
    return logged


pattern_sets = st.integers(1, 6).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(
            st.lists(st.integers(0, 1), min_size=dim, max_size=dim)
            .map(tuple)
            .filter(any),
            min_size=1,
            max_size=8,
        ),
    )
)


@given(
    pattern_sets,
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=5),
    st.integers(1, 4),
    st.integers(1, 3),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_sweep_equals_direct_trainings(case, grid, max_clusters, max_epochs, force_assign):
    dim, patterns = case
    with _Logged() as logged:
        points = sweep_vigilance(
            patterns, tuple(grid), input_dim=dim, max_clusters=max_clusters,
            max_epochs=max_epochs, force_assign=force_assign,
        )
    expected = []
    for point, value in zip(points, grid, strict=True):
        config = Art1Config(dim, value, max_clusters, max_epochs, force_assign)
        net, assignment, error = _direct_training(config, patterns)
        assert (point.vigilance, point.error) == (value, error)
        if error is None:
            assert point.network.config == config
            assert point.network.prototypes == net.prototypes
            assert point.clusters == net.active_clusters
        else:
            assert point.network is None and point.clusters is None
        expected += _outcome(f"vigilance {value:g}", assignment, error)
    assert logged == expected


def test_force_assign_fallbacks_warn_once_per_training():
    # One cluster at vigilance 0.9: (1, 1, 0) founds it, (1, 0, 1) falls back
    # and shrinks it to (1, 0, 0), which (1, 0, 0) then passes. In the second
    # and last epoch the first two fall back. At 0.4 every pattern passes.
    patterns = [(1, 1, 0), (1, 0, 1), (1, 0, 0)]
    with _Logged() as logged:
        points = sweep_vigilance(patterns, (0.4, 0.9), input_dim=3, max_clusters=1,
                                 force_assign=True)
    assert [point.clusters for point in points] == [1, 1]
    assert logged == [("WARNING", "vigilance 0.9: 2 of 3 presentations in the last epoch"
                                  " fell back to the closest cluster (--force-assign)")]


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="sweep grid must not be empty"):
        sweep_vigilance([(1, 0)], (), input_dim=2, max_clusters=1)


@pytest.mark.parametrize("name", ["vigilance", "colour"])
def test_sweep_forwards_only_the_other_config_fields(name):
    # The grid sets vigilance; every other setting is an Art1Config field.
    with pytest.raises(TypeError, match=f"'{name}'"):
        sweep_vigilance([(1, 0)], (0.5,), input_dim=2, max_clusters=1, **{name: 0.5})


@pytest.mark.parametrize("history_windows", [0, 1])
@pytest.mark.parametrize("seed", range(8))
def test_sliding_run_equals_direct_trainings(seed, history_windows):
    rng = random.Random(seed)
    clients, videos = ("a", "b", "c", "d"), ("v1", "v2", "v3", "v4", "v5")
    windows, base = _windows_of(
        [
            [(c, v) for c in clients if rng.random() < 0.5 for v in rng.sample(videos, 2)]
            for _ in range(5)
        ]
    )
    config = Art1Config(base.size, 0.6, 3, 1 + seed % 2)
    with _Logged() as logged:
        results = sliding_run(windows, base, config, history_windows=history_windows)
    # The per-window lists a caller extracted give the same results and log.
    window_patterns = [patterns_for_sessions(window, base)[0] for window in windows]
    with _Logged() as given_logged:
        given = sliding_run(
            windows, base, config, patterns=window_patterns, history_windows=history_windows
        )
    assert (given, given_logged) == (results, logged)
    assert (results, logged) == _direct_sliding_run(windows, base, config, history_windows)


def _direct_sliding_run(windows, base, config, history_windows):
    """What sliding_run should return and log: one direct training of each
    window's whole history, however often it repeats."""
    results, logged = [], []
    for w in range(len(windows) - 1):
        history = windows[max(0, w + 1 - history_windows) if history_windows else 0 : w + 1]
        patterns = [p for window in history for p in patterns_for_sessions(window, base)[0]]
        if not patterns:
            results.append((w, EvaluationResult((), ())))
            continue
        net, assignment, error = _direct_training(config, [p.bits for p in patterns])
        logged += _outcome(f"window {w}", assignment, error)
        if error is not None:
            results.append((w, EvaluationResult((), (), error)))
            continue
        membership = {p.client_id: c for p, c in zip(patterns, assignment.clusters)}
        plan = build_plan(net, assignment.clusters, base)
        results.append((w, evaluate_plan(plan, windows[w + 1], membership)))
    return results, logged


@pytest.mark.parametrize("history_windows, trained", [(0, [1, 2]), (2, [1, 1])])
def test_sliding_run_trains_each_distinct_history_once(monkeypatch, history_windows, trained):
    # Windows 1 and 3 are empty, so window 1's history repeats window 0's and
    # window 3's repeats window 2's, over all windows and over the last two.
    # At cap 1 the all-window history of windows 2 and 3 fails, so its
    # error is reused and logged again.
    windows, base = _windows_of([[("a", "v1")], [], [("b", "v2")], [], [("a", "v2")]])
    config = Art1Config(base.size, 0.9, 1)
    calls = []

    def counted(net, patterns):
        calls.append(len(patterns))
        return train(net, patterns)

    monkeypatch.setattr(prefetch, "train", counted)
    with _Logged() as logged:
        results = sliding_run(windows, base, config, history_windows=history_windows)
    assert calls == trained
    assert (results, logged) == _direct_sliding_run(windows, base, config, history_windows)
    assert (results[3][1].error is not None) == (history_windows == 0)


def test_sliding_run_needs_one_pattern_list_per_window():
    windows, base = _windows_of([[("a", "v1")], [("a", "v1")], [("a", "v1")]])
    patterns = [patterns_for_sessions(window, base)[0] for window in windows[:-1]]
    with pytest.raises(ValueError, match="2 pattern lists for 3 windows"):
        sliding_run(windows, base, Art1Config(base.size, 0.5, 10, 10), patterns=patterns)


def test_sliding_run_trains_on_the_given_patterns():
    # Every video is requested twice, so at threshold 3 no bit is set and
    # every window's kept list is empty: nothing trains or scores.
    windows, base = _windows_of([[("a", "v1")], [("a", "v1")], [("a", "v1")]])
    config = Art1Config(base.size, 0.5, 10, 10)
    assert [r.metrics for _, r in sliding_run(windows, base, config)] == [
        (CacheMetrics(0, 1, 1, 1),),
        (CacheMetrics(0, 1, 1, 1),),
    ]
    strict = [patterns_for_sessions(window, base, 3)[0] for window in windows]
    assert strict == [[], [], []]
    assert sliding_run(windows, base, config, patterns=strict) == [
        (0, EvaluationResult((), ())),
        (1, EvaluationResult((), ())),
    ]
