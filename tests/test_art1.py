from __future__ import annotations

import random
from array import array

import pytest

from vodprefetch.art1 import (
    Art1Config,
    CapacityError,
    _match_table,
    _to_mask,
    init_network,
    load_snapshot,
    present_pattern,
    render_snapshot,
    save_snapshot,
    train,
)

from reference_art1 import ReferenceCapacity, reference_train


def net_with(vigilance=0.5, dim=3, cap=8, epochs=10):
    return init_network(Art1Config(dim, vigilance, cap, epochs))


# --- initialization ---


def test_init_network_is_empty():
    net = net_with(dim=5)
    assert net.active_clusters == 0
    assert net.top_down == [] and net.bottom_up == []


# --- dense pattern to bitmask ---


def loop_mask(pattern, dim, name="pattern"):
    """The element-by-element conversion the fast path must agree with."""
    if len(pattern) != dim:
        raise ValueError(f"{name} has length {len(pattern)}, expected {dim}")
    mask = 0
    for i, value in enumerate(pattern):
        if value == 1:
            mask |= 1 << i
        elif value != 0:
            raise ValueError(f"{name} element {i} is {value!r}, expected 0 or 1")
    return mask


def test_to_mask_agrees_with_element_loop():
    rng = random.Random(5)
    for _ in range(300):
        dim = rng.randint(1, 500)
        bits = [int(rng.random() < rng.random()) for _ in range(dim)]
        # array("H") exposes two bytes per element, so bytes() of it is no
        # longer one byte per input.
        for pattern in (tuple(bits), bits, bytes(bits), array("B", bits), array("H", bits)):
            assert _to_mask(pattern, dim) == loop_mask(pattern, dim)
    assert _to_mask((), 0) == loop_mask((), 0) == 0


def test_to_mask_accepts_bool_and_float_ones():
    pattern = (True, 0, 1.0, False, 0.0)
    assert _to_mask(pattern, 5) == loop_mask(pattern, 5) == 0b101


@pytest.mark.parametrize(
    "pattern, dim",
    [
        ((1, 0, 1), 4),
        (b"\x01\x00", 3),
        ((0, 1, 2), 3),
        ((1, -1, 0), 3),
        ((0.5, 1, 0), 3),
        ((1, 0, None), 3),
        (("1", 0, 1), 3),
        ("101", 3),
        (b"\x01\x02", 2),
        (array("b", [0, -1]), 2),
        (array("H", [0, 2]), 2),
    ],
)
def test_to_mask_errors_match_element_loop(pattern, dim):
    with pytest.raises(ValueError) as expected:
        loop_mask(pattern, dim, "pattern 4")
    with pytest.raises(ValueError) as actual:
        _to_mask(pattern, dim, "pattern 4")
    assert str(actual.value) == str(expected.value)


# --- match values ---


def test_match_values_dot_product():
    net = net_with(vigilance=0.5)
    present_pattern(net, (1, 1, 1))  # weights 1/3.5 on every input
    # (1, 0, 1) shares 2 bits with the prototype.
    assert _match_table(net.prototypes[0].bit_count())[2] == 1 / 3.5 + 1 / 3.5


def test_match_values_zero_pattern_is_zero():
    for size in range(5):
        assert _match_table(size)[0] == 0.0


def test_match_values_dimension_mismatch():
    with pytest.raises(ValueError):
        present_pattern(net_with(dim=3), (1, 0))


def test_match_values_rejects_non_binary():
    with pytest.raises(ValueError):
        present_pattern(net_with(dim=3), (1, 2, 0))


def test_match_values_against_dense_sum():
    # Networks trained at the benchmark's width: entry k of a prototype's
    # match table must equal the ascending-index dot product with its derived
    # weight row of every pattern sharing k bits with it, including cases
    # where k * scale rounds differently from that sum.
    rng = random.Random(8)
    dim = 400
    k_times_scale_differs = 0
    for vigilance in (0.2, 0.5):
        net = net_with(vigilance=vigilance, dim=dim, cap=40)
        patterns = []
        for _ in range(40):
            bits = [0] * dim
            for i in rng.sample(range(dim), rng.randint(20, 120)):
                bits[i] = 1
            patterns.append(tuple(bits))
        train(net, patterns)
        rows = net.bottom_up
        assert rows and len(rows) == net.active_clusters
        for x in patterns[:20]:
            for row, proto in zip(rows, net.top_down):
                total = 0.0
                for i in range(dim):
                    total += x[i] * row[i]
                common = sum(1 for i in range(dim) if x[i] and row[i])
                assert _match_table(sum(proto))[common] == total
                k_times_scale_differs += common * max(row) != total
    assert k_times_scale_differs > 0


# --- similarity ---


def test_similarity_exact_fractions():
    # Vigilance compares |x & t| / |x|, an exact fraction: (1, 0, 1, 1)
    # shares 1 of its 3 bits with the only prototype.
    net = net_with(vigilance=1.0, dim=4, cap=1)
    present_pattern(net, (1, 1, 0, 0))
    with pytest.raises(CapacityError) as err:
        present_pattern(net, (1, 0, 1, 1))
    assert err.value.best_similarity == 1 / 3


# --- single presentations ---


def test_present_to_empty_network_creates_cluster():
    net = net_with(vigilance=0.5)
    assert present_pattern(net, (1, 0, 1)) == 0
    assert net.top_down == [[1, 0, 1]]
    assert net.bottom_up == [[0.4, 0.0, 0.4]]


def test_present_identical_pattern_rejoins_unchanged():
    net = net_with(vigilance=0.5)
    present_pattern(net, (1, 0, 1))
    assert present_pattern(net, (1, 0, 1)) == 0
    assert net.top_down == [[1, 0, 1]]
    assert net.bottom_up == [[0.4, 0.0, 0.4]]


def test_present_join_shrinks_prototype():
    net = net_with(vigilance=0.6)
    present_pattern(net, (1, 1, 1))
    assert present_pattern(net, (1, 1, 0)) == 0
    assert net.top_down == [[1, 1, 0]]
    assert net.bottom_up == [[0.4, 0.4, 0.0]]


def test_present_vigilance_failure_spawns_cluster():
    net = net_with(vigilance=0.8)
    present_pattern(net, (1, 1, 0))
    assert present_pattern(net, (0, 1, 1)) == 1
    assert net.top_down == [[1, 1, 0], [0, 1, 1]]


def test_present_retries_next_best_cluster():
    # Cluster 0 wins the match but fails vigilance; cluster 1 accepts.
    net = net_with(vigilance=0.6, dim=4, cap=4)
    assert present_pattern(net, (1, 0, 0, 0)) == 0  # b scale 1/1.5
    assert present_pattern(net, (1, 1, 1, 0)) == 1  # b scale 1/3.5
    x = (1, 1, 0, 0)
    assert _match_table(1)[1] > _match_table(3)[2]  # 2/3 beats 2/3.5
    assert present_pattern(net, x) == 1
    assert net.top_down == [[1, 0, 0, 0], [1, 1, 0, 0]]


def test_present_ties_go_to_lowest_index():
    net = net_with(vigilance=0.5, dim=4, cap=4)
    assert present_pattern(net, (1, 1, 0, 0)) == 0
    assert present_pattern(net, (0, 0, 1, 1)) == 1
    # Both match at 1/2.5 and both pass vigilance at 1/2.
    assert present_pattern(net, (1, 0, 1, 0)) == 0
    assert net.top_down == [[1, 0, 0, 0], [0, 0, 1, 1]]


def test_present_zero_pattern_rejected():
    with pytest.raises(ValueError):
        present_pattern(net_with(), (0, 0, 0))


def test_capacity_error_reports_best_candidate():
    net = net_with(vigilance=1.0, dim=2, cap=1)
    present_pattern(net, (1, 0))
    with pytest.raises(CapacityError) as err:
        present_pattern(net, (0, 1))
    assert err.value.best_cluster == 0
    assert err.value.best_similarity == 0.0
    assert net.top_down == [[1, 0]]  # failed presentation must not learn


def test_force_assign_commits_best_cluster():
    net = init_network(Art1Config(2, 1.0, 1, force_assign=True))
    assignment = train(net, [(1, 0), (0, 1)])
    assert assignment.clusters == (0, 0)
    assert net.top_down == [[1, 0]]  # a disjoint fallback does not learn


def test_present_pattern_follows_force_assign():
    # One cluster at vigilance 1: (0, 1, 1) falls back and shrinks it to
    # (0, 1, 0); (1, 0, 1) shares no bit with it, falls back and leaves it.
    net = init_network(Art1Config(3, 1.0, 1, force_assign=True))
    assert [present_pattern(net, p) for p in [(1, 1, 0), (0, 1, 1), (1, 0, 1)]] == [0, 0, 0]
    assert net.top_down == [[0, 1, 0]]


# --- training ---


def test_train_single_pattern():
    net = net_with()
    assignment = train(net, [(1, 0, 1)])
    assert assignment.clusters == (0,)
    assert assignment.converged
    assert net.active_clusters == 1


def test_train_identical_patterns_share_cluster():
    net = net_with(vigilance=0.9)
    assignment = train(net, [(1, 0, 1), (1, 0, 1), (1, 0, 1)])
    assert assignment.clusters == (0, 0, 0)
    assert net.active_clusters == 1


def test_train_empty_pattern_list():
    net = net_with()
    assignment = train(net, [])
    assert assignment.clusters == ()
    assert assignment.converged and assignment.epochs == 0


def test_train_rejects_zero_pattern_upfront():
    net = net_with()
    with pytest.raises(ValueError):
        train(net, [(1, 0, 1), (0, 0, 0)])
    assert net.active_clusters == 0  # validation happens before any learning


def test_train_rejects_width_mismatch():
    with pytest.raises(ValueError):
        train(net_with(dim=3), [(1, 0)])


def test_train_single_pass_mode():
    net = net_with(vigilance=0.5, epochs=1)
    assignment = train(net, [(1, 0, 1), (0, 1, 1)])
    assert assignment.epochs == 1
    assert not assignment.converged


def test_train_records_rejections():
    net = net_with(vigilance=0.8, dim=4, cap=4, epochs=1)
    assignment = train(net, [(1, 1, 0, 0), (1, 1, 1, 0)])
    # second pattern matches cluster 0 best (2 common bits) but 2/3 < 0.8
    assert assignment.clusters == (0, 1)
    assert assignment.rejections[1] == (0,)


def test_train_capacity_matches_reference():
    patterns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    net = init_network(Art1Config(3, 1.0, 2, 1))
    with pytest.raises(CapacityError) as engine_err:
        train(net, patterns)
    with pytest.raises(ReferenceCapacity) as ref_err:
        reference_train(patterns, 1.0, 2, 1)
    assert engine_err.value.best_cluster == ref_err.value.best_cluster
    assert engine_err.value.best_similarity == ref_err.value.best_similarity


# --- snapshots ---


def test_snapshot_roundtrip_bytes(tmp_path):
    rng = random.Random(77)
    net = init_network(Art1Config(12, 0.475, 20, 10))
    patterns = []
    for _ in range(15):
        bits = [rng.randrange(2) for _ in range(12)]
        if not any(bits):
            bits[0] = 1
        patterns.append(tuple(bits))
    train(net, patterns)
    first = tmp_path / "one.snapshot"
    second = tmp_path / "two.snapshot"
    save_snapshot(net, first)
    loaded = load_snapshot(first)
    save_snapshot(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.top_down == net.top_down
    assert loaded.bottom_up == net.bottom_up
    assert loaded.config.vigilance == net.config.vigilance


def test_snapshot_format_shape():
    net = net_with(vigilance=0.5, dim=3, cap=7)
    present_pattern(net, (1, 0, 1))
    text = render_snapshot(net)
    lines = text.splitlines()
    assert lines[0] == "3 7 0.5 1"
    assert lines[1] == "101"
    assert lines[2].split() == ["0.40000000000000002", "0", "0.40000000000000002"]


def test_snapshot_accepts_derived_weights_in_short_form(tmp_path):
    path = tmp_path / "short.snapshot"
    path.write_text("3 7 0.5 1\n101\n0.4 0 0.4\n", encoding="utf-8")
    net = load_snapshot(path)
    assert net.top_down == [[1, 0, 1]]
    assert net.bottom_up == [[0.4, 0.0, 0.4]]


def test_snapshot_empty_network(tmp_path):
    net = net_with(dim=4, cap=3)
    path = tmp_path / "empty.snapshot"
    save_snapshot(net, path)
    loaded = load_snapshot(path)
    assert loaded.active_clusters == 0
    assert loaded.config.input_dim == 4


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 7 0.5\n",
        "3 7 0.5 1\n10\n0.4 0 0.4\n",
        "3 7 0.5 1\n102\n0.4 0 0.4\n",
        "3 7 0.5 1\n101\n0.4 0\n",
        "3 7 0.5 1\n101\n0.4 0 1.5\n",
        "3 7 0.5 2\n101\n0.4 0 0.4\n",
        "3 7 0.5 1\n110\n0.9 0 0.7\n",
    ],
)
def test_snapshot_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.snapshot"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        load_snapshot(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2 x 1\n", "malformed snapshot header: '3 2 x 1'"),
        ("3 2 0.5 3\n", "active cluster count 3 outside [0, 2]"),
        (
            "3 7 0.5 2\n101\n0.4 0 0.4\n110\n0.4 0.4 x\n",
            "bad weight row for cluster 1: could not convert string to float: 'x'",
        ),
    ],
    ids=["header-value", "active-count", "weight-token"],
)
def test_snapshot_errors_name_their_cause(tmp_path, text, message):
    path = tmp_path / "bad.snapshot"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_snapshot(path)
    assert str(info.value) == message
