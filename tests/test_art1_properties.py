from __future__ import annotations

import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vodprefetch import art1
from vodprefetch.art1 import (
    Art1Config,
    CapacityError,
    init_network,
    load_snapshot,
    save_snapshot,
    train,
)
from vodprefetch.patterns import BaseVector, patterns_for_sessions

from conftest import make_session
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


def _trained(config, patterns):
    """A fresh network's assignment, or its CapacityError text, and its prototypes."""
    net = init_network(config)
    try:
        outcome = train(net, patterns)
    except CapacityError as exc:
        outcome = str(exc)
    return outcome, net.prototypes


@given(
    pattern_sets().flatmap(lambda case: st.tuples(st.just(case), st.integers(1, len(case[1])))),
    vigilances,
    st.integers(1, 5),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_extracted_bytes_patterns_train_as_their_tuples(case_cap, vigilance, epochs, force):
    # Session k requests video i twice for each set bit i of pattern k, so
    # patterns_for_sessions gives the patterns back, as bytes.
    (dim, patterns), cap = case_cap
    base = BaseVector.from_urls([f"v{i}" for i in range(dim)])
    sessions = [
        make_session(f"c{k}", [(0, f"v{i}") for i, bit in enumerate(p) if bit for _ in "ab"])
        for k, p in enumerate(patterns)
    ]
    extracted = [p.bits for p in patterns_for_sessions(sessions, base)[0]]
    assert all(type(bits) is bytes for bits in extracted)
    assert list(map(tuple, extracted)) == patterns
    config = Art1Config(dim, vigilance, cap, epochs, force)
    assert _trained(config, extracted) == _trained(config, patterns)


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


# --- replay: train skips a search whose outcome cannot have changed ---


@st.composite
def replay_cases(draw):
    """Wide patterns, most of them prefixes of one short list of inputs.

    A prefix, with up to two of the list's inputs toggled, overlaps many
    others and nests inside longer ones, so across epochs clusters shrink
    and overtake the cluster a pattern joined last time. In about one case
    in five every pattern has inputs of its own instead, so no pattern
    overlaps any other or any prototype.
    """
    dim = draw(st.integers(1, 400))
    count = draw(st.integers(1, 20))
    if count <= dim and draw(st.integers(0, 4)) == 0:
        inputs = draw(st.permutations(range(dim)))
        width = dim // count
        masks = [set(inputs[k * width:(k + 1) * width]) for k in range(count)]
    else:
        inputs = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=10, unique=True))
        masks = []
        for _ in range(count):
            bits = set(inputs[: draw(st.integers(1, len(inputs)))])
            bits.symmetric_difference_update(draw(st.lists(st.sampled_from(inputs), max_size=2)))
            masks.append(bits or {inputs[0]})
    patterns = [tuple(int(i in bits) for i in range(dim)) for bits in masks]
    vigilance = draw(st.sampled_from([0.3, 0.0, 0.2, 1.0, 0.4, 0.5, 0.6, 1.0]))
    cap = draw(st.integers(1, count)) if draw(st.booleans()) else count
    epochs = draw(st.integers(1, 6))
    force = draw(st.booleans())
    # Train this many of the patterns first, save the network and train all
    # of them on the reloaded copy: a start that already has clusters.
    warm = draw(st.sampled_from([0, 0, draw(st.integers(1, count))]))
    return patterns, Art1Config(dim, vigilance, cap, epochs, force), warm


@seed(31)
@given(replay_cases())
@settings(max_examples=150, deadline=None)
def test_replayed_training_matches_straight_line(case):
    patterns, config, warm = case
    net = init_network(config)
    if warm:
        try:
            train(net, patterns[:warm])
        except CapacityError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.snapshot"
            save_snapshot(net, path)
            net = load_snapshot(path)
        # Snapshots keep neither max_epochs nor force_assign.
        net.config = config
    _assert_train_matches_straight_line(net, patterns)


@given(pattern_sets(), vigilances)
@settings(max_examples=300, deadline=None)
def test_a_pick_after_a_reset_shrinks_its_cluster(case, vigilance):
    # So train only replays first picks, which reject nothing. (With a cap
    # of one cluster per pattern, no presentation falls back.) One epoch of
    # one pattern is one search, and rejections[0] lists its resets.
    dim, patterns = case
    net = init_network(Art1Config(dim, vigilance, len(patterns), 1))
    for pattern in patterns:
        before = list(net.prototypes)
        assignment = train(net, [pattern])
        (index,), (rejected,) = assignment.clusters, assignment.rejections
        if rejected and index < len(before):
            assert net.prototypes[index] != before[index]


def test_replay_skips_searches_on_a_converging_set(monkeypatch):
    dim, patterns = _wide_patterns(5, 100)
    net = init_network(Art1Config(dim, 0.6, len(patterns), 10))
    searches = []
    search = art1._present

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(art1, "_present", counted)
    assignment = train(net, patterns)
    assert assignment.converged and assignment.epochs >= 3
    assert len(searches) < len(patterns) * assignment.epochs
