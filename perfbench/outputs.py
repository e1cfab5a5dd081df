"""Fingerprints and consistency checks for one run's output directory."""

from __future__ import annotations

import hashlib
from pathlib import Path

FINGERPRINT_FILES = ("metrics.csv", "cluster_counts.csv", "network.snapshot")
METRICS_HEADER = "window,cluster,members,prefetched,hits,accuracy"
CLUSTER_COUNTS_HEADER = "vigilance,clusters"


class OutputError(ValueError):
    """A run's outputs are missing, malformed or inconsistent."""


def fingerprint(out_dir: Path) -> str:
    """sha256 over the name and bytes of every fingerprinted output file."""
    digest = hashlib.sha256()
    for name in FINGERPRINT_FILES:
        path = out_dir / name
        if not path.is_file():
            raise OutputError(f"missing output {name}")
        digest.update(name.encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cluster_counts(out_dir: Path) -> dict[str, int]:
    """The `cluster_counts.csv` rows as {vigilance text: clusters}."""
    lines = (out_dir / "cluster_counts.csv").read_text().splitlines()
    if not lines or lines[0] != CLUSTER_COUNTS_HEADER:
        raise OutputError("cluster_counts.csv has a wrong header")
    counts = {}
    for line in lines[1:]:
        vigilance, clusters = line.split(",")
        counts[vigilance] = int(clusters)
    return counts


def prefetch_accuracy(out_dir: Path) -> float:
    """Member-weighted accuracy recomputed from the hit columns of metrics.csv.

    Also checks every row: hits within [0, prefetched] and an accuracy
    column equal to hits / prefetched at four decimals.
    """
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise OutputError("metrics.csv has a wrong header")
    if len(lines) < 2:
        raise OutputError("metrics.csv has no rows")
    numerator = 0.0
    members_total = 0
    for line in lines[1:]:
        window, cluster, members, prefetched, hits, accuracy = line.split(",")
        members, prefetched, hits = int(members), int(prefetched), int(hits)
        if not 0 <= hits <= prefetched:
            raise OutputError(f"metrics.csv row {line!r}: hits outside [0, prefetched]")
        exact = hits / prefetched if prefetched else 0.0
        if accuracy != f"{exact:.4f}":
            raise OutputError(f"metrics.csv row {line!r}: accuracy is not hits / prefetched")
        numerator += members * exact
        members_total += members
    if members_total == 0:
        raise OutputError("metrics.csv counts no cluster members")
    return numerator / members_total


def check_snapshot(out_dir: Path, vigilance: float, counts: dict[str, int]) -> None:
    """The snapshot is well formed, its weights are t / (0.5 + |t|) exactly,
    and its cluster count matches the sweep point at the same vigilance."""
    lines = (out_dir / "network.snapshot").read_text().splitlines()
    dim, cap, snap_vigilance, active = lines[0].split()
    dim, cap, active = int(dim), int(cap), int(active)
    if float(snap_vigilance) != vigilance:
        raise OutputError(f"snapshot vigilance {snap_vigilance} is not {vigilance}")
    if not 1 <= active <= cap or len(lines) != 1 + 2 * active:
        raise OutputError(f"snapshot declares {active} clusters in {len(lines)} lines")
    for c in range(active):
        proto, weights = lines[1 + 2 * c], lines[2 + 2 * c].split()
        if len(proto) != dim or len(weights) != dim or set(proto) - {"0", "1"}:
            raise OutputError(f"snapshot cluster {c} has a malformed row")
        scale = 1.0 / (0.5 + proto.count("1"))
        for bit, weight in zip(proto, weights):
            if float(weight) != (scale if bit == "1" else 0.0):
                raise OutputError(f"snapshot cluster {c} has a weight that is not t/(0.5+|t|)")
    for key, clusters in counts.items():
        if float(key) == vigilance and clusters != active:
            raise OutputError(
                f"snapshot has {active} clusters, sweep point {key} has {clusters}"
            )


def check_outputs(out_dir: Path, vigilance: float, grid: list[float]) -> tuple[str, float]:
    """Validate one run's outputs; returns (fingerprint, prefetch accuracy)."""
    digest = fingerprint(out_dir)
    counts = cluster_counts(out_dir)
    if [float(key) for key in counts] != grid:
        raise OutputError(f"cluster_counts.csv covers {list(counts)}, expected {grid}")
    if any(clusters < 1 for clusters in counts.values()):
        raise OutputError("a sweep point reports no clusters")
    check_snapshot(out_dir, vigilance, counts)
    return digest, prefetch_accuracy(out_dir)
