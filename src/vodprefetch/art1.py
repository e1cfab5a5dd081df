"""Binary adaptive-resonance (ART1) clustering engine.

Patterns reach clusters through real-valued bottom-up weights, the best
match must pass a vigilance test on binary similarity, and an accepted
pattern is folded into the winning prototype by bitwise AND (fast
learning). Clusters are created on demand up to a fixed cap.

Each cluster is stored as its prototype alone, an int bitmask with bit i
set when input i is. Fast learning makes the bottom-up weights a function
of the prototype, t / (0.5 + |t|), so they are derived, never stored.

Everything is plain Python floats and ints on purpose: matching values
are sums of exact dyadic-free fractions and the winner rule breaks ties
by index, so the summation order is part of the contract. Weights are
accumulated in ascending index order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cache

from .fileio import atomic_write

DEFAULT_MAX_EPOCHS = 10


class CapacityError(RuntimeError):
    """Every allowed cluster exists and none passed vigilance."""

    def __init__(self, best_cluster: int, best_similarity: float) -> None:
        super().__init__(
            "no free cluster and none passed vigilance "
            f"(best: cluster {best_cluster}, similarity {best_similarity:.6f})"
        )
        self.best_cluster = best_cluster
        self.best_similarity = best_similarity


class Art1Config(
    namedtuple("Art1Config", "input_dim vigilance max_clusters max_epochs force_assign",
               defaults=(DEFAULT_MAX_EPOCHS, False))
):
    """Network shape and training rules, checked when built.

    With `force_assign`, a pattern that every allowed cluster rejects goes to
    the closest one instead of raising CapacityError. Snapshots keep neither
    it nor `max_epochs`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Art1Config:
        config = super().__new__(cls, *args, **kwargs)
        if config.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {config.input_dim}")
        if not 0.0 <= config.vigilance <= 1.0:
            raise ValueError(f"vigilance must be in [0, 1], got {config.vigilance}")
        if config.max_clusters < 1:
            raise ValueError(f"max_clusters must be >= 1, got {config.max_clusters}")
        if config.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {config.max_epochs}")
        return config

    @classmethod
    def _make(cls, iterable) -> Art1Config:
        # namedtuple's _replace builds through _make, which skips __new__.
        return cls(*iterable)


class Art1Network:
    """Mutable clustering state: one prototype bitmask per cluster."""

    def __init__(self, config: Art1Config) -> None:
        self.config = config
        self.prototypes: list[int] = []  # bit i = input i

    @property
    def active_clusters(self) -> int:
        return len(self.prototypes)

    @property
    def top_down(self) -> list[list[int]]:
        """Dense binary prototype rows, rebuilt on every access."""
        dim = self.config.input_dim
        return [[int(ch) for ch in _digits(t, dim)] for t in self.prototypes]

    @property
    def bottom_up(self) -> list[list[float]]:
        """Dense weight rows t / (0.5 + |t|), rebuilt on every access."""
        dim = self.config.input_dim
        return [_weight_row(t, dim) for t in self.prototypes]


class Assignment(namedtuple("Assignment", "clusters rejections converged epochs")):
    """Final pattern-to-cluster mapping with per-pattern vigilance rejections.

    `clusters[k]` is the cluster of pattern k after the last epoch and
    `rejections[k]` is the tuple of clusters that won the match but failed the
    vigilance test for pattern k during that epoch, in ascending index order.
    """

    __slots__ = ()


def init_network(config: Art1Config) -> Art1Network:
    """Fresh network with no committed clusters."""
    return Art1Network(config)


# Byte 0 and byte 1 become their digits; every other byte becomes "2", which
# int(..., 2) rejects.
_BINARY_DIGITS = b"01" + b"2" * 254


def _to_mask(pattern: Sequence[int], dim: int, name: str = "pattern") -> int:
    """Bitmask of a dense 0/1 pattern of length dim; all zeros give 0, which callers reject."""
    if len(pattern) != dim:
        raise ValueError(f"{name} has length {len(pattern)}, expected {dim}")
    # Fast path: a pattern of small ints becomes one byte per element, and a
    # bytes pattern, as patterns_for_sessions makes, is used as it is; when
    # every byte is 0 or 1 they are the mask's digits. Any other pattern goes
    # through the element loop, which names the bad entry.
    try:
        raw = bytes(pattern)
        if len(raw) == dim:
            return int(raw[::-1].translate(_BINARY_DIGITS), 2)
    except (TypeError, ValueError):
        pass
    mask = 0
    for i, value in enumerate(pattern):
        if value == 1:
            mask |= 1 << i
        elif value != 0:
            raise ValueError(f"{name} element {i} is {value!r}, expected 0 or 1")
    return mask


def _digits(mask: int, dim: int) -> str:
    """The mask as dim '0'/'1' characters, input 0 first."""
    return format(mask, f"0{dim}b")[::-1]


def _weight_row(mask: int, dim: int) -> list[float]:
    scale = 1.0 / (0.5 + mask.bit_count())
    return [scale if ch == "1" else 0.0 for ch in _digits(mask, dim)]


@cache
def _match_table(size: int) -> tuple[float, ...]:
    # Entry k is 1 / (0.5 + size) added k times: the ascending-index dot
    # product of a pattern sharing k bits with a prototype of `size` bits,
    # since the zero weights in between leave the running sum unchanged.
    # k * scale would round differently and move ties.
    scale = 1.0 / (0.5 + size)
    table = [0.0]
    for _ in range(size):
        table.append(table[-1] + scale)
    return tuple(table)


@cache
def _every_cluster(count: int) -> tuple[int, ...]:
    # A fallback's resets: one shared tuple per cluster count, which train's
    # replayed fallbacks return again.
    return tuple(range(count))


def _tables(protos: list[int]) -> list[tuple[float, ...]]:
    return [_match_table(t.bit_count()) for t in protos]


def _learn(
    protos: list[int], tables: list[tuple[float, ...]], log: list[int], j: int, x: int
) -> None:
    """Fold x into prototype j; when that shrinks it, log j."""
    t = protos[j]
    if t & x != t:
        protos[j] = t = t & x
        tables[j] = _match_table(t.bit_count())
        log.append(j)


def _present(
    net: Art1Network, tables: list[tuple[float, ...]], x: int, log: list[int]
) -> tuple[int, tuple[int, ...]]:
    """One search: (cluster, its resets in index order), as present_pattern.

    Appends to `log` every cluster that it creates or shrinks.
    """
    # tables[j] is _match_table(|t_j|) for prototype j; _learn and cluster
    # creation keep it in step with net.prototypes.
    protos = net.prototypes
    size = x.bit_count()
    vigilance = net.config.vigilance
    overlaps = [(x & t).bit_count() for t in protos]
    if len(protos) >= net.config.max_clusters:
        # Similarity grows with overlap, so when the largest overlap fails
        # vigilance every cluster fails, and the search ends in a fallback to
        # the closest cluster, the lowest-index largest overlap, without the
        # match values below. Below the cap this test costs more than it saves.
        best = max(overlaps)
        if best / size < vigilance:
            best_cluster = overlaps.index(best)
            if not net.config.force_assign:
                raise CapacityError(best_cluster, best / size)
            # With no shared bit, learning would leave an all-zero prototype.
            if best:
                _learn(protos, tables, log, best_cluster, x)
            return best_cluster, _every_cluster(len(protos))
    if overlaps:
        values = [table[k] for table, k in zip(tables, overlaps)]
        # Clusters rank by descending match value, ties to the lowest index,
        # and the search picks the first that passes vigilance; every cluster
        # ranked ahead of it is reset. The first, the lowest-index maximum, is
        # tested alone. On the seed-7 benchmark traces the searches end in a
        # first pick / a pick after a reset / a new cluster / a fallback
        # 2433/1277/584/0 times on sweep-heavy (4294 searches of 6720
        # presentations; train replays the rest), 2913/0/65/0 times on
        # ingest-heavy (2978 of 3800) and 433/154/160/1224 times on
        # sliding-capped (1971 of 3360), where the full-network test above
        # settles every fallback that train does not replay.
        j = values.index(max(values))
        if overlaps[j] / size >= vigilance:
            _learn(protos, tables, log, j, x)
            return j, ()
        passing = [c for c, k in enumerate(overlaps) if k / size >= vigilance]
        if passing:
            # max keeps the first of equal values, the lowest index.
            j = max(passing, key=values.__getitem__)
            value = values[j]
            # j shares more bits with x than the clusters ranked ahead of it,
            # so it is no subset of x (k / (0.5 + |t|) <= k / (0.5 + k), which
            # grows with k) and shrinks here.
            _learn(protos, tables, log, j, x)
            resets = [c for c, v in enumerate(values) if v > value or (v == value and c < j)]
            return j, tuple(resets)
    # No cluster passed, so the network is below its cap: a full one that
    # gets here has a cluster that passes.
    log.append(len(protos))
    protos.append(x)
    tables.append(_match_table(size))
    return len(protos) - 1, tuple(range(len(protos) - 1))


def present_pattern(net: Art1Network, pattern: Sequence[int]) -> int:
    """Assign one pattern and return its cluster index.

    Clusters are tried in one pass from the best match down, ties to the
    lowest index, until one passes vigilance; each failure is a reset. When no
    candidate is left, a new cluster is created from the pattern if the cap
    allows. Otherwise, under config.force_assign, the pattern joins the
    closest rejected cluster, which learns it only when they share a bit;
    without it, CapacityError reports that cluster.
    """
    x = _to_mask(pattern, net.config.input_dim)
    if not x:
        raise ValueError("cannot present an all-zero pattern")
    return _present(net, _tables(net.prototypes), x, [])[0]


def train(net: Art1Network, patterns: Sequence[Sequence[int]]) -> Assignment:
    """Present every pattern repeatedly until assignments stabilise.

    Full passes run until two consecutive epochs produce identical
    assignments or config.max_epochs is reached; max_epochs=1 gives a
    plain single pass. `converged` reports which way the loop ended. Each
    presentation follows present_pattern, config.force_assign included.

    A presentation whose outcome cannot have changed is replayed without a
    search. Prototypes only ever lose bits, so a cluster that was neither
    created nor shrunk since pattern x was last presented still has the same
    match value and vigilance outcome for it. Let C be the clusters created
    or shrunk since, and j the cluster that presentation returned.
    - It picked existing cluster j first and left it unchanged (t_j inside
      x). When j is not in C and every cluster in C ranks after j (a lower
      value, or an equal one and a higher index), the search would pick j
      first again, rejecting nothing, and j would learn nothing. A pick
      after a reset always shrinks its cluster, so no such pick is replayed.
    - It fell back to j in a full network, and j then learned x. When j is
      not in C, x falls back to j again with the same resets, every cluster:
      the network cannot grow, other clusters' overlaps with x can only
      fall, so j stays the lowest-index largest overlap and still fails
      vigilance, and j learns nothing, since t_j lies inside x (or, with no
      shared bit, every overlap stays 0).
    """
    masks = []
    for k, pattern in enumerate(patterns):
        x = _to_mask(pattern, net.config.input_dim, f"pattern {k}")
        if not x:
            raise ValueError(f"pattern {k} is all zeros")
        masks.append(x)
    if not masks:
        return Assignment((), (), True, 0)
    previous: list[int] | None = None
    protos = net.prototypes
    tables = _tables(protos)
    # log lists, in order, every cluster created or shrunk by this call, and
    # replays[k] is (len(log), j, resets) after pattern k's last presentation
    # when train may repeat it: a first pick of existing cluster j that
    # rejected and logged nothing, or a full network's fallback to j.
    log: list[int] = []
    replays: list[tuple[int, int, tuple[int, ...]] | None] = [None] * len(masks)
    for epochs in range(1, net.config.max_epochs + 1):
        clusters: list[int] = []
        rejections: list[tuple[int, ...]] = []
        for k, x in enumerate(masks):
            replay = replays[k]
            if replay is not None:
                start, index, rejected = replay
                changed = log[start:]
                if index not in changed:
                    # A fallback repeats whatever else changed. A first pick
                    # repeats unless a changed cluster now ranks ahead of j;
                    # t_j lies inside x, so j's value is its table's last entry.
                    value = tables[index][-1]
                    for c in () if rejected else set(changed):
                        v = tables[c][(x & protos[c]).bit_count()]
                        if v > value or (v == value and c < index):
                            break
                    else:
                        replays[k] = len(log), index, rejected
                        clusters.append(index)
                        rejections.append(rejected)
                        continue
            start = len(log)
            index, rejected = _present(net, tables, x, log)
            # Only a full network's fallback resets every cluster; its record
            # is taken after j learned x.
            repeatable = len(rejected) == len(protos) if rejected else len(log) == start
            replays[k] = (len(log), index, rejected) if repeatable else None
            clusters.append(index)
            rejections.append(rejected)
        if clusters == previous:
            return Assignment(tuple(clusters), tuple(rejections), True, epochs)
        previous = clusters
    return Assignment(tuple(clusters), tuple(rejections), False, epochs)


def render_snapshot(net: Art1Network) -> str:
    """Plain-text dump of a network.

    Line 1 holds `input_dim max_clusters vigilance active_clusters`; each
    cluster then contributes one line of input_dim prototype digits and one
    line of input_dim weights. Floats use 17 significant digits, enough to
    reload every double bit for bit.
    """
    cfg = net.config
    lines = [f"{cfg.input_dim} {cfg.max_clusters} {cfg.vigilance:.17g} {net.active_clusters}"]
    for t in net.prototypes:
        digits = _digits(t, cfg.input_dim)
        lines.append(digits)
        # replace never rescans what it inserts, so the weight's own 1s stay.
        lines.append(" ".join(digits).replace("1", f"{1.0 / (0.5 + t.bit_count()):.17g}"))
    return "\n".join(lines) + "\n"


def save_snapshot(net: Art1Network, path) -> None:
    atomic_write(path, render_snapshot(net))


def load_snapshot(path) -> Art1Network:
    """Inverse of save_snapshot; a loaded network re-saves byte-identically.

    Weight rows are checked, not trusted: each must equal the t / (0.5 + |t|)
    that its prototype row implies.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError("empty snapshot file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError(f"malformed snapshot header: {lines[0]!r}")
    try:
        dim, cap = int(header[0]), int(header[1])
        vigilance = float(header[2])
        active = int(header[3])
    except ValueError:
        raise ValueError(f"malformed snapshot header: {lines[0]!r}") from None
    config = Art1Config(input_dim=dim, vigilance=vigilance, max_clusters=cap)
    if not 0 <= active <= cap:
        raise ValueError(f"active cluster count {active} outside [0, {cap}]")
    if len(lines) != 1 + 2 * active:
        raise ValueError(f"expected {1 + 2 * active} lines, found {len(lines)}")
    net = Art1Network(config)
    for c in range(active):
        proto_line = lines[1 + 2 * c]
        weight_line = lines[2 + 2 * c]
        if len(proto_line) != dim or any(ch not in "01" for ch in proto_line):
            raise ValueError(f"bad prototype row for cluster {c}: {proto_line!r}")
        try:
            weights = [float(token) for token in weight_line.split()]
        except ValueError as exc:
            raise ValueError(f"bad weight row for cluster {c}: {exc}") from None
        if len(weights) != dim:
            raise ValueError(f"bad weight row for cluster {c}: expected {dim} values")
        t = int(proto_line[::-1], 2)
        if weights != _weight_row(t, dim):
            raise ValueError(
                f"weight row of cluster {c} is not t / (0.5 + |t|) of its prototype"
            )
        net.prototypes.append(t)
    return net
