"""ART1 training for the sliding run and the sweep; prototype prefetch plans and their scores."""

from __future__ import annotations

import logging
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .art1 import Art1Config, Art1Network, Assignment, CapacityError, init_network, train
from .fileio import atomic_write
from .logs import Session
from .patterns import BaseVector, PatternVector, patterns_for_sessions

log = logging.getLogger(__name__)

METRICS_HEADER = "window,cluster,members,prefetched,hits,accuracy"


class CacheMetrics(
    namedtuple("CacheMetrics", "cluster_index member_count prefetched_count hits")
):
    """Prefetch score of one cluster; hits can never exceed what was prefetched.

    `accuracy` is hits over prefetched count, zero for an empty plan.
    """

    __slots__ = ()

    def __new__(
        cls, cluster_index: int, member_count: int, prefetched_count: int, hits: int
    ) -> CacheMetrics:
        if not 0 <= hits <= prefetched_count:
            raise ValueError(f"hits {hits} outside [0, prefetched {prefetched_count}]")
        return super().__new__(cls, cluster_index, member_count, prefetched_count, hits)

    @classmethod
    def _make(cls, iterable) -> CacheMetrics:
        # namedtuple's _replace builds through _make, which skips __new__.
        return cls(*iterable)

    @property
    def accuracy(self) -> float:
        return self.hits / self.prefetched_count if self.prefetched_count else 0.0


class EvaluationResult(
    namedtuple("EvaluationResult", "metrics unclustered_clients error", defaults=(None,))
):
    """Scores of one window: a tuple of CacheMetrics and one of the unclustered client
    ids. `error`, the CapacityError text, is set, with no metrics, when training failed."""

    __slots__ = ()


class SweepPoint(namedtuple("SweepPoint", "vigilance error network", defaults=(None, None))):
    """One vigilance grid point: its Art1Network when training succeeded, else the error.

    `clusters` is the network's active cluster count, None without a network.
    """

    __slots__ = ()

    @property
    def clusters(self) -> int | None:
        return None if self.network is None else self.network.active_clusters


def _train_fresh(
    config: Art1Config, patterns: list[Sequence[int]], label: str
) -> tuple[Art1Network, Assignment, None, int] | tuple[None, None, str, int]:
    """Train a fresh network: (network, assignment, None, fallbacks), or (None, None, the
    CapacityError text, 0). `_log_training` reports the outcome under `label`.

    `fallbacks` counts the last epoch's force-assign fallbacks, for a caller that
    logs the outcome again."""
    net = init_network(config)
    try:
        assignment = train(net, patterns)
    except CapacityError as exc:
        _log_training(label, None, str(exc), 0)
        return None, None, str(exc), 0
    # Only a full network's force-assign fallback resets every cluster of the
    # final network: a new cluster or a pick after a reset leaves one out.
    fallbacks = sum(len(r) == net.active_clusters for r in assignment.rejections)
    _log_training(label, assignment, None, fallbacks)
    return net, assignment, None, fallbacks


def _log_training(
    label: str, assignment: Assignment | None, error: str | None, fallbacks: int
) -> None:
    """Log a training's error, or warnings for non-convergence and fallbacks, under `label`."""
    if error is not None:
        log.error("%s: %s", label, error)
        return
    if not assignment.converged:
        log.warning("%s: training did not converge in %d epochs", label, assignment.epochs)
    if fallbacks:
        log.warning("%s: %d of %d presentations in the last epoch fell back to the closest"
                    " cluster (--force-assign)", label, fallbacks, len(assignment.clusters))


def build_plan(
    net: Art1Network, clusters: Iterable[int], base: BaseVector
) -> dict[int, tuple[str, ...]]:
    """URLs to prefetch for each distinct cluster in `clusters`, ascending.

    A cluster's URLs are those of the set bits of its prototype mask, in
    base-vector order.
    """
    if net.config.input_dim != base.size:
        raise ValueError(
            f"network input_dim {net.config.input_dim} does not match base size {base.size}"
        )
    urls = base.urls
    plan = {}
    for cluster in sorted(set(clusters)):
        digits = format(net.prototypes[cluster], "b")[::-1]  # input 0 first
        plan[cluster] = tuple(urls[i] for i, ch in enumerate(digits) if ch == "1")
    return plan


def evaluate_plan(
    plan: Mapping[int, tuple[str, ...]],
    next_sessions: Sequence[Session],
    membership: Mapping[str, int],
    *,
    members: Mapping[int, int] | None = None,
) -> EvaluationResult:
    """Score a plan, cluster to prefetched URLs, against the next window's demand.

    A hit is a distinct prefetched video requested at least once by any
    member of the cluster; accuracy is hits over prefetched count (zero for
    an empty plan). Clients without a membership entry land in the
    unclustered bucket and count toward no cluster. `members`, each
    cluster's client count, is counted from `membership` when not given;
    a caller scoring one membership against many windows counts it once.
    """
    requested: dict[int, set[str]] = {c: set() for c in plan}
    unclustered: set[str] = set()
    for session in next_sessions:
        cluster = membership.get(session.client_id)
        if cluster is None:
            unclustered.add(session.client_id)
        elif cluster in requested:
            requested[cluster].update(session.videos)
    if members is None:
        members = Counter(membership.values())
    metrics = []
    for cluster in sorted(plan):
        urls = plan[cluster]
        wanted = requested[cluster]
        # Nothing to intersect when the cluster's members requested nothing.
        hits = len(wanted.intersection(urls)) if wanted else 0
        metrics.append(CacheMetrics(cluster, members[cluster], len(urls), hits))
    return EvaluationResult(tuple(metrics), tuple(sorted(unclustered)))


def sliding_run(
    windows: Sequence[Sequence[Session]],
    base: BaseVector,
    art_config: Art1Config,
    *,
    patterns: Sequence[list[PatternVector]] | None = None,
    history_windows: int = 0,
) -> list[tuple[int, EvaluationResult]]:
    """Re-cluster at the end of every window and score against the next one.

    For window w a fresh network is trained on the patterns of the trailing
    history (all windows up to w by default; only the most recent
    `history_windows` of them when positive) and the resulting plan is
    evaluated on window w+1, so no training input ever postdates the
    evaluation window. Every cluster that a history pattern ends training
    in is planned and gets a metric row. A client's membership is the
    cluster of its latest pattern, and a row's member_count counts only
    those clients, so a cluster whose patterns all belong to clients with a
    later pattern elsewhere has a row with member_count 0 and no hits,
    which carries no weight in member_weighted_accuracy. Windows with no
    usable patterns yield an empty result; a window whose training runs
    out of clusters records the error on its result and the remaining
    windows still run. Each training runs through `_train_fresh`, labelled
    `window W`, under `art_config` (its force_assign rule included). Window w
    retrains only when it or the window leaving its range kept patterns; any
    other window reuses the last training's plan, membership and counts of
    members and fallbacks, with no rebuild, no training and no recount. It
    still scores that plan against its own next window, and logs the
    training's outcome again.

    It trains on `patterns`, the kept patterns of each window in window
    order, as the caller extracted them; every history that includes a
    window reuses its list. Without `patterns`, each window's are
    extracted here at the default frequency threshold.
    """
    if len(windows) < 2:
        raise ValueError("sliding evaluation needs at least two session windows")
    if history_windows < 0:
        raise ValueError("history_windows must be >= 0")
    if patterns is None:
        patterns = [patterns_for_sessions(window, base)[0] for window in windows]
    elif len(patterns) != len(windows):
        raise ValueError(f"{len(patterns)} pattern lists for {len(windows)} windows")
    results: list[tuple[int, EvaluationResult]] = []
    history: list[PatternVector] = []
    for w in range(len(windows) - 1):
        first = max(0, w + 1 - history_windows) if history_windows else 0
        if patterns[w] or (first and patterns[first - 1]):
            history = [pattern for i in range(first, w + 1) for pattern in patterns[i]]
            if history:
                net, assignment, error, fallbacks = _train_fresh(
                    art_config, [p.bits for p in history], f"window {w}"
                )
                if error is None:
                    # A client's latest pattern sets its membership.
                    membership = {p.client_id: c for p, c in zip(history, assignment.clusters)}
                    members = Counter(membership.values())
                    plan = build_plan(net, assignment.clusters, base)
        elif history:
            _log_training(f"window {w}", assignment, error, fallbacks)
        if history and error is None:
            results.append(
                (w, evaluate_plan(plan, windows[w + 1], membership, members=members))
            )
        else:
            results.append((w, EvaluationResult((), (), error if history else None)))
    return results


def sweep_vigilance(
    patterns: list[Sequence[int]], grid: tuple[float, ...], **settings
) -> list[SweepPoint]:
    """Train one network per grid value under `Art1Config(vigilance=value, **settings)`.

    A capacity failure is recorded on its own point and the remaining points
    still run; each successful point keeps the network it trained. Each
    training runs through `_train_fresh`, labelled `vigilance V`.
    """
    if not grid:
        raise ValueError("sweep grid must not be empty")
    points = []
    for value in grid:
        config = Art1Config(vigilance=value, **settings)
        net, _, error, _ = _train_fresh(config, patterns, f"vigilance {value:g}")
        points.append(SweepPoint(value, error, net))
    return points


def member_weighted_accuracy(results: Sequence[tuple[int, EvaluationResult]]) -> float:
    """Mean accuracy over all metric rows, weighted by cluster member count."""
    numerator = 0.0
    denominator = 0
    for _, result in results:
        for metric in result.metrics:
            numerator += metric.member_count * metric.accuracy
            denominator += metric.member_count
    return numerator / denominator if denominator else 0.0


def render_metrics_csv(results: Sequence[tuple[int, EvaluationResult]]) -> str:
    lines = [METRICS_HEADER]
    for window, result in results:
        for m in result.metrics:
            lines.append(
                f"{window},{m.cluster_index},{m.member_count},"
                f"{m.prefetched_count},{m.hits},{m.accuracy:.4f}"
            )
    return "\n".join(lines) + "\n"


def write_metrics_csv(results, path) -> None:
    atomic_write(path, render_metrics_csv(results))
