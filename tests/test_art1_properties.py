from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodprefetch.art1 import (
    Art1Config,
    CapacityError,
    init_network,
    load_snapshot,
    present_pattern,
    save_snapshot,
    train,
)

from reference_art1 import reference_train


def nonzero_pattern(dim):
    return (
        st.lists(st.integers(0, 1), min_size=dim, max_size=dim)
        .map(tuple)
        .filter(lambda bits: any(bits))
    )


def pattern_sets():
    return st.integers(1, 8).flatmap(
        lambda dim: st.lists(nonzero_pattern(dim), min_size=1, max_size=8).map(
            lambda patterns: (dim, patterns)
        )
    )


vigilances = st.sampled_from([0.0, 0.25, 0.4, 0.5, 0.75, 1.0])


@given(pattern_sets(), vigilances)
@settings(max_examples=300, deadline=None)
def test_prototypes_stay_binary(case, vigilance):
    dim, patterns = case
    net = init_network(Art1Config(dim, vigilance, len(patterns), 10))
    train(net, patterns)
    for row in net.top_down:
        assert set(row) <= {0, 1}
    for row in net.bottom_up:
        assert all(0.0 <= w <= 1.0 for w in row)


@given(pattern_sets(), vigilances)
@settings(max_examples=300, deadline=None)
def test_prototypes_only_shrink(case, vigilance):
    dim, patterns = case
    net = init_network(Art1Config(dim, vigilance, len(patterns), 1))
    snapshots: list[list[list[int]]] = []
    for pattern in patterns:
        present_pattern(net, pattern)
        snapshots.append([list(row) for row in net.top_down])
    for before, after in zip(snapshots, snapshots[1:]):
        for row_before, row_after in zip(before, after):
            assert all(b >= a for b, a in zip(row_before, row_after))


@given(pattern_sets(), vigilances)
@settings(max_examples=300, deadline=None)
def test_weights_track_prototypes_exactly(case, vigilance):
    dim, patterns = case
    net = init_network(Art1Config(dim, vigilance, len(patterns), 1))
    for pattern in patterns:
        present_pattern(net, pattern)
        for proto, weights in zip(net.top_down, net.bottom_up):
            scale = 1.0 / (0.5 + sum(proto))
            assert weights == [scale if t else 0.0 for t in proto]


@given(pattern_sets())
@settings(max_examples=300, deadline=None)
def test_zero_vigilance_single_cluster(case):
    dim, patterns = case
    net = init_network(Art1Config(dim, 0.0, len(patterns), 10))
    assignment = train(net, patterns)
    assert net.active_clusters == 1
    assert set(assignment.clusters) == {0}


@given(pattern_sets())
@settings(max_examples=300, deadline=None)
def test_full_vigilance_joins_only_supersets(case):
    dim, patterns = case
    net = init_network(Art1Config(dim, 1.0, len(patterns), 1))
    for pattern in patterns:
        before = [list(row) for row in net.top_down]
        index = present_pattern(net, pattern)
        if index < len(before):
            # joining an existing cluster requires x to sit inside the old
            # prototype, which then survives the AND unchanged on x's bits
            assert all(t == 1 for x, t in zip(pattern, before[index]) if x)


@given(pattern_sets(), vigilances, st.sampled_from([1, 10]))
@settings(max_examples=300, deadline=None)
def test_training_agrees_with_reference(case, vigilance, epochs):
    dim, patterns = case
    net = init_network(Art1Config(dim, vigilance, len(patterns), epochs))
    assignment = train(net, patterns)
    ref_asg, ref_proto, ref_weights, _, _ = reference_train(
        patterns, vigilance, len(patterns), epochs
    )
    assert list(assignment.clusters) == ref_asg
    assert net.top_down == ref_proto
    assert net.bottom_up == ref_weights


def test_stopping_rule_matches_reference():
    # Convergence on the last allowed epoch must still count: a repeat there
    # returns converged=True with epochs == max_epochs. Hundreds of these
    # seeded cases land exactly on that boundary.
    rng = random.Random(2009)
    at_last_epoch = 0
    for _ in range(3000):
        dim = rng.randint(1, 8)
        masks = [rng.randrange(1, 1 << dim) for _ in range(rng.randint(1, 6))]
        patterns = [tuple(mask >> i & 1 for i in range(dim)) for mask in masks]
        vigilance = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        max_epochs = rng.randint(1, 4)
        net = init_network(Art1Config(dim, vigilance, len(patterns), max_epochs))
        assignment = train(net, patterns)
        ref_asg, ref_proto, _, ref_epochs, ref_converged = reference_train(
            patterns, vigilance, len(patterns), max_epochs
        )
        assert list(assignment.clusters) == ref_asg
        assert (assignment.epochs, assignment.converged) == (ref_epochs, ref_converged)
        assert net.top_down == ref_proto
        at_last_epoch += ref_converged and ref_epochs == max_epochs
    assert at_last_epoch >= 500


def _straight_line_train(
    patterns, vigilance, max_clusters, max_epochs, force_assign, prototypes=()
):
    """Cluster search spelled out as repeated first-maximum scans.

    Starts from the dense `prototypes` rows given (none by default). Returns
    (clusters, rejections, prototypes, capacity) for the last epoch run;
    capacity is (best_cluster, best_similarity) when a presentation found no
    cluster and force_assign was off, and training stops there.
    """
    prototypes = [list(row) for row in prototypes]
    previous = None
    clusters: list[int] = []
    rejections: list[tuple[int, ...]] = []
    for _ in range(max_epochs):
        clusters, rejections = [], []
        for x in patterns:
            values = []
            for proto in prototypes:
                scale = 1.0 / (0.5 + sum(proto))
                total = 0.0
                for bit, t in zip(x, proto):
                    total += bit * (scale if t else 0.0)
                values.append(total)
            rejected: list[int] = []
            tested: list[tuple[float, int]] = []
            while True:
                # The largest value not yet rejected; ties to the lowest index.
                winner = None
                for j, candidate in enumerate(values):
                    if j not in rejected and (winner is None or candidate > values[winner]):
                        winner = j
                if winner is None:
                    break
                t = prototypes[winner]
                value = sum(a & b for a, b in zip(x, t)) / sum(x)
                if value >= vigilance:
                    break
                rejected.append(winner)
                tested.append((value, winner))
            learns = True
            if winner is None:
                if len(prototypes) < max_clusters:
                    prototypes.append(list(x))
                    winner = len(prototypes) - 1
                else:
                    best = max(v for v, _ in tested)
                    winner = min(j for v, j in tested if v == best)
                    if not force_assign:
                        return clusters, rejections, prototypes, (winner, best)
                    # A fallback that shares no bit with its cluster does not learn.
                    learns = best > 0
            if learns:
                prototypes[winner] = [a & b for a, b in zip(prototypes[winner], x)]
            clusters.append(winner)
            rejections.append(tuple(rejected))
        if clusters == previous:
            break
        previous = list(clusters)
    return clusters, rejections, prototypes, None


@given(
    pattern_sets().flatmap(
        lambda case: st.tuples(st.just(case), st.integers(1, max(1, len(case[1]) - 1)))
    ),
    vigilances,
    st.integers(1, 5),
    st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_search_order_matches_straight_line_scan(case_cap, vigilance, epochs, force):
    (dim, patterns), cap = case_cap
    net = init_network(Art1Config(dim, vigilance, cap, epochs, force))
    clusters, rejections, prototypes, capacity = _straight_line_train(
        patterns, vigilance, cap, epochs, force
    )
    try:
        assignment = train(net, patterns)
    except CapacityError as exc:
        assert capacity == (exc.best_cluster, exc.best_similarity)
    else:
        assert capacity is None
        assert list(assignment.clusters) == clusters
        assert list(assignment.rejections) == rejections
    assert net.top_down == prototypes


@given(
    pattern_sets().flatmap(lambda case: st.tuples(st.just(case), st.integers(1, len(case[1])))),
    vigilances.filter(bool),
    st.integers(1, 5),
)
@settings(max_examples=300, deadline=None)
def test_force_assign_never_empties_a_prototype(case_cap, vigilance, epochs):
    # Above vigilance 0 a passing pattern shares a bit with its cluster, so
    # only a fallback could empty a prototype. (At vigilance 0 a disjoint
    # pattern passes and learns, as in the reference.)
    (dim, patterns), cap = case_cap
    net = init_network(Art1Config(dim, vigilance, cap, epochs, force_assign=True))
    train(net, patterns)
    assert all(net.prototypes)


def _wide_patterns(seed, count):
    """Sparse patterns 64 to 400 wide: noisy copies of overlapping templates.

    The templates share one small pool of inputs, so at vigilance 0.6 the
    search resets often and ends with dozens of clusters.
    """
    rng = random.Random(seed)
    dim = rng.randint(64, 400)
    pool = rng.sample(range(dim), 40)
    templates = [rng.sample(pool, rng.randint(4, 14)) for _ in range(rng.randint(6, 12))]
    patterns = []
    for _ in range(count):
        bits = {i for i in rng.choice(templates) if rng.random() < 0.8}
        bits.update(rng.sample(range(dim), rng.randint(1, 3)))
        patterns.append(tuple(int(i in bits) for i in range(dim)))
    return dim, patterns


def _assert_train_matches_straight_line(net, patterns):
    cfg = net.config
    clusters, rejections, prototypes, capacity = _straight_line_train(
        patterns, cfg.vigilance, cfg.max_clusters, cfg.max_epochs, cfg.force_assign, net.top_down
    )
    try:
        assignment = train(net, patterns)
    except CapacityError as exc:
        assert capacity == (exc.best_cluster, exc.best_similarity)
    else:
        assert capacity is None
        assert list(assignment.clusters) == clusters
        assert list(assignment.rejections) == rejections
    assert net.top_down == prototypes
    return capacity, rejections


@pytest.mark.parametrize(
    "epochs, capped, force", itertools.product((1, 2, 3, 4), (False, True), (False, True))
)
def test_wide_patterns_match_straight_line(epochs, capped, force):
    seed = 10 * epochs + 2 * capped + force
    dim, patterns = _wide_patterns(seed, 100)
    cap = 30 if capped else len(patterns)
    net = init_network(Art1Config(dim, 0.6, cap, epochs, force))
    capacity, rejections = _assert_train_matches_straight_line(net, patterns)
    # The data must exercise what the test is for: many clusters, and
    # many resets in a first epoch or an exhausted cap.
    if capped:
        assert net.active_clusters == cap
        assert force or capacity is not None
    else:
        assert net.active_clusters >= 40
    if epochs == 1 and capacity is None:
        assert sum(map(len, rejections)) >= 100


@pytest.mark.parametrize("capped", [False, True])
def test_train_resumes_from_existing_clusters(tmp_path, capped):
    dim, patterns = _wide_patterns(7, 120)
    first, second = patterns[:60], patterns[60:]
    cap = 25 if capped else len(patterns)
    net = init_network(Art1Config(dim, 0.6, cap, 2, force_assign=True))
    train(net, first)
    path = tmp_path / "net.snapshot"
    save_snapshot(net, path)
    loaded = load_snapshot(path)
    assert loaded.prototypes == net.prototypes
    # Like max_epochs, force_assign is not in the snapshot.
    assert not loaded.config.force_assign
    loaded.config = loaded.config._replace(force_assign=True)
    # A second train call on the same network, and one on the reloaded copy,
    # both start their search from the prototypes already learned.
    _assert_train_matches_straight_line(net, second)
    _assert_train_matches_straight_line(loaded, second)
