"""Prototype-driven prefetch plans and their hit/accuracy scoring."""

from __future__ import annotations

import logging
from collections import Counter, deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .art1 import (
    Art1Config,
    CapacityError,
    ClusterReport,
    init_network,
    report_clusters,
    train,
)
from .fileio import atomic_write
from .logs import Session
from .patterns import BaseVector, PatternVector, patterns_for_sessions

log = logging.getLogger(__name__)

METRICS_HEADER = "window,cluster,members,prefetched,hits,accuracy"


@dataclass(frozen=True)
class PrefetchPlan:
    """URLs to pull into the cache for each cluster, in base-vector order."""

    urls_by_cluster: Mapping[int, tuple[str, ...]]


@dataclass(frozen=True)
class CacheMetrics:
    cluster_index: int
    member_count: int
    prefetched_count: int
    hits: int
    accuracy: float

    def __post_init__(self) -> None:
        if not 0 <= self.hits <= self.prefetched_count:
            raise ValueError(
                f"hits {self.hits} outside [0, prefetched {self.prefetched_count}]"
            )


@dataclass(frozen=True)
class EvaluationResult:
    """Scores of one window; `error` is set, with no metrics, when training failed."""

    metrics: tuple[CacheMetrics, ...]
    unclustered_clients: tuple[str, ...]
    error: str | None = None


def build_plan(reports: Sequence[ClusterReport], base: BaseVector) -> PrefetchPlan:
    """List each prototype's set-bit URLs in index order."""
    plan: dict[int, tuple[str, ...]] = {}
    for report in reports:
        if len(report.prototype) != base.size:
            raise ValueError(
                f"prototype length {len(report.prototype)} does not match base size {base.size}"
            )
        plan[report.cluster_index] = tuple(
            base.urls[i] for i, bit in enumerate(report.prototype) if bit
        )
    return PrefetchPlan(plan)


def evaluate_plan(
    plan: PrefetchPlan,
    next_sessions: Sequence[Session],
    membership: Mapping[str, int],
) -> EvaluationResult:
    """Score a plan against the demand of the following window.

    A hit is a distinct prefetched video requested at least once by any
    member of the cluster; accuracy is hits over prefetched count (zero for
    an empty plan). Clients without a membership entry land in the
    unclustered bucket and count toward no cluster.
    """
    requested: dict[int, set[str]] = {c: set() for c in plan.urls_by_cluster}
    unclustered: set[str] = set()
    for session in next_sessions:
        cluster = membership.get(session.client_id)
        if cluster is None:
            unclustered.add(session.client_id)
            continue
        bucket = requested.setdefault(cluster, set())
        for event in session.events:
            bucket.add(event.video_id)
    member_counts = Counter(membership.values())
    metrics = []
    for cluster in sorted(plan.urls_by_cluster):
        urls = plan.urls_by_cluster[cluster]
        hits = len(set(urls) & requested.get(cluster, set()))
        accuracy = hits / len(urls) if urls else 0.0
        metrics.append(
            CacheMetrics(cluster, member_counts.get(cluster, 0), len(urls), hits, accuracy)
        )
    return EvaluationResult(tuple(metrics), tuple(sorted(unclustered)))


def sliding_run(
    windows: Sequence[Sequence[Session]],
    base: BaseVector,
    art_config: Art1Config,
    *,
    freq_threshold: int = 2,
    history_windows: int = 0,
    force_assign: bool = False,
) -> list[tuple[int, EvaluationResult]]:
    """Re-cluster at the end of every window and score against the next one.

    For window w a fresh network is trained on the patterns of the trailing
    history (all windows up to w by default; only the most recent
    `history_windows` of them when positive) and the resulting plan is
    evaluated on window w+1, so no training input ever postdates the
    evaluation window. A client's membership is the cluster of its latest
    pattern. Windows with no usable patterns yield an empty result; a window
    whose training runs out of clusters records the error on its result and
    the remaining windows still run. Each window's patterns are extracted
    once and reused by every history that includes it.
    """
    if len(windows) < 2:
        raise ValueError("sliding evaluation needs at least two session windows")
    if history_windows < 0:
        raise ValueError("history_windows must be >= 0")
    recent: deque[list[PatternVector]] = deque(maxlen=history_windows or None)
    results: list[tuple[int, EvaluationResult]] = []
    for w in range(len(windows) - 1):
        kept, dropped = patterns_for_sessions(windows[w], base, freq_threshold)
        if dropped:
            log.info("window %d: dropped %d all-zero patterns", w, dropped)
        recent.append(kept)
        patterns = [pattern for batch in recent for pattern in batch]
        if not patterns:
            results.append((w, EvaluationResult((), ())))
            continue
        net = init_network(art_config)
        try:
            assignment = train(net, [p.bits for p in patterns], force_assign=force_assign)
        except CapacityError as exc:
            results.append((w, EvaluationResult((), (), str(exc))))
            continue
        membership: dict[str, int] = {}
        for pattern, cluster in zip(patterns, assignment.clusters):
            membership[pattern.client_id] = cluster  # later sessions overwrite
        reports = report_clusters(net, assignment, [p.client_id for p in patterns])
        plan = build_plan(reports, base)
        results.append((w, evaluate_plan(plan, windows[w + 1], membership)))
    return results


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
