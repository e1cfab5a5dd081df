"""The benchmark's workloads: trace shape, CLI flags and what each one stresses.

Every workload is replay mode. The benchmark writes the trace from the
seed with the package's public generator, and the program under test
only ever sees the log file and the flags. The workloads vary the shape
of the input, not only its size, so that a gain in one layer shows on
the workload built for it and is predicted to be absent on the others.
Sizes are chosen so that one run takes a few seconds and a 40-second
measurement holds several runs.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # WorkloadConfig fields other than the seed.
    generator: dict
    vigilance: float = 0.4
    sweep: tuple[float, ...] = (0.30, 0.35, 0.40, 0.45, 0.475, 0.50)
    # Further flags for `vodprefetch`.
    flags: tuple[str, ...] = ()
    # Share of trace lines rewritten to a non-200 status, from the seed.
    status_rewrite: float = 0.0

    def argv(self, trace: str, out_dir: str) -> list[str]:
        """The `vodprefetch` command line for one run on `trace`."""
        return [
            "--input", trace,
            "--out", out_dir,
            "--vigilance", f"{self.vigilance:g}",
            "--sweep", " ".join(f"{value:g}" for value in self.sweep),
            *self.flags,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-heavy",
            why=(
                "ART1 match/create/commit with a growing, uncapped cluster set "
                "(about 80 clusters of 240 patterns at vigilance 0.4, 28 of 400 "
                "bits set). The CLI trains the full pattern set seven times: six "
                "sweep points and the final network. Every training stops at 4 "
                "epochs, which none finishes in fewer, so the ART1 work is the "
                "same on every seed instead of varying by an epoch or two. "
                "Training is about 90% of a run and ingest about 10%, so a "
                "faster ART1 engine, training each vigilance once or a parallel "
                "sweep moves this workload and ingest work does not."
            ),
            generator=dict(num_clients=80, num_videos=400, num_groups=8, num_session_windows=3),
            flags=("--max-epochs", "4"),
        ),
        Workload(
            name="ingest-heavy",
            why=(
                "Parse, status filter, sessionize and memory: about 300k lines, "
                "a seeded 20% of them rewritten to status 206, 304 or 404. "
                "Patterns are dense (about 66 of 200 bits) and form 5 clusters, "
                "so ART1 barely runs (under 10% of a run) while parse, "
                "preprocess and segment take about two thirds. sliding_run "
                "re-extracts all history for every window (4.5 extractions per "
                "session), so pattern-extraction caching shows here. The ART1 "
                "engine should not move anything on this workload."
            ),
            generator=dict(
                num_clients=25,
                num_videos=200,
                num_groups=5,
                num_session_windows=8,
                requests_min=1400,
                requests_max=1600,
            ),
            status_rewrite=0.2,
        ),
        Workload(
            name="sliding-capped",
            why=(
                "ART1's vigilance-reset search and force-assign path instead of "
                "cluster creation: with 32 clusters allowed, about 90% of all "
                "pattern-cluster pairs of a training's last epoch are resets. "
                "Four trailing-history trainings run in the sliding evaluation, "
                "and the single sweep point equals the final vigilance, so the "
                "final training repeats the sweep training exactly. Every "
                "training stops at 3 epochs before it converges, so the ART1 "
                "work is the same on every seed (4560 presentations) instead "
                "of varying by an epoch or two. A parallel sweep should show "
                "no gain here; training each vigilance once should show a "
                "large one."
            ),
            generator=dict(
                num_clients=80,
                num_videos=400,
                num_groups=8,
                num_session_windows=5,
                requests_min=60,
                requests_max=80,
                in_group_prob=0.8,
            ),
            sweep=(0.4,),
            flags=(
                "--history-windows", "3",
                "--max-clusters", "32",
                "--force-assign",
                "--max-epochs", "3",
            ),
        ),
    )
}

# Which end-to-end metrics each group of per-layer metrics should move,
# and on which workloads. Written down before any optimization is tried.
LAYER_MAP = (
    (
        "logs.parse_s logs.preprocess_s logs.segment_s logs.window_s logs.records "
        "logs.status_dropped logs.sessions logs.windows logs.peak_alloc_mb",
        "run_s cpu_s peak_rss_mb",
        "ingest-heavy",
    ),
    (
        "patterns.base_s patterns.extract_s patterns.sessions_extracted "
        "patterns.reextract_ratio patterns.kept patterns.dropped "
        "patterns.bits_per_pattern patterns.input_dim",
        "run_s",
        "ingest-heavy sliding-capped",
    ),
    (
        "art1.train_s art1.train_calls art1.train_call_s.p50 art1.train_call_s.max "
        "art1.epochs art1.presentations art1.clusters art1.last_epoch_resets "
        "art1.reset_ratio art1.nonconverged art1.capacity_errors art1.snapshot_s",
        "run_s cpu_s",
        "sweep-heavy sliding-capped",
    ),
    (
        "prefetch.sliding_s prefetch.sliding_self_s prefetch.evaluate_s "
        "prefetch.report_s prefetch.windows_scored prefetch.prefetched "
        "prefetch.hits prefetch.hit_ratio",
        "run_s prefetch_accuracy",
        "sliding-capped",
    ),
    (
        "cli.self_s cli.sweep_s cli.sweep_points cli.sweep_failed "
        "cli.final_train_s cli.repeat_trainings",
        "run_s",
        "sweep-heavy sliding-capped",
    ),
    (
        "fileio.write_s fileio.files fileio.bytes_written",
        "run_s (small)",
        "sweep-heavy ingest-heavy sliding-capped",
    ),
)
