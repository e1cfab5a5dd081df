"""Experiment runner and command-line interface.

Ties the pipeline together: generate or ingest a trace, extract
per-session request patterns, cluster them over sliding windows, score
prototype prefetching, sweep the vigilance grid, and write CSV results
plus the snapshot of the network trained at the configured vigilance.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from typing import TYPE_CHECKING, NamedTuple

from .art1 import Art1Config, Art1Network, CapacityError, init_network, save_snapshot, train
from .fileio import atomic_write
from .logs import (
    DEFAULT_MAX_IDLE_SECONDS,
    LogParseError,
    group_sessions_by_window,
    parse_log_file,  # unused here; the benchmark's tracer wraps cli.parse_log_file by name
    preprocess,
    read_events,
    segment_sessions,
)
from .patterns import (
    DEFAULT_FREQ_THRESHOLD,
    PatternVector,
    build_base_vector,
    patterns_for_sessions,
    write_pattern_matrix,
)
from .prefetch import (
    METRICS_HEADER,
    member_weighted_accuracy,
    sliding_run,
    write_metrics_csv,
)

# The generator (and with it `random` and `dataclasses`) is imported only by
# the generated-mode and --config code paths; a replay run never loads it.
if TYPE_CHECKING:
    from .workload import WorkloadConfig

log = logging.getLogger(__name__)

DEFAULT_SWEEP = (0.30, 0.35, 0.40, 0.45, 0.475, 0.50)

CLUSTER_COUNTS_HEADER = "vigilance,clusters"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CAPACITY = 3


class UsageError(Exception):
    """Bad flags or config values."""


class DataError(Exception):
    """The input trace cannot be used."""


class ExperimentConfig:
    """Every knob of one run; the class attributes are the defaults.

    Built with keyword arguments, e.g. ExperimentConfig(vigilance=0.5), and
    mutable, so that a config file and then the flags can override it.
    """

    source: str = "generated"  # "generated" or a log file path
    log_format: str = "whitespace"  # or "csv"
    out_dir: str = "out"
    seed: int = 7
    maximum_idle_time: int = DEFAULT_MAX_IDLE_SECONDS
    freq_threshold: int = DEFAULT_FREQ_THRESHOLD
    window_spacing: int = 86400
    history_windows: int = 0  # 0 = use all history
    vigilance: float = 0.4
    max_clusters: int = 0  # 0 = one slot per training pattern (can never cap)
    max_epochs: int = 10
    sweep: tuple[float, ...] = DEFAULT_SWEEP
    dump_patterns: bool = False
    force_assign: bool = False
    workload: WorkloadConfig | None = None

    def __init__(self, **overrides) -> None:
        for name, value in overrides.items():
            if name not in ExperimentConfig.__annotations__:
                raise TypeError(f"ExperimentConfig got an unexpected keyword argument {name!r}")
            setattr(self, name, value)

    def validate(self) -> None:
        if not 0.0 <= self.vigilance <= 1.0:
            raise UsageError(f"vigilance must be in [0, 1], got {self.vigilance}")
        for value in self.sweep:
            if not 0.0 <= value <= 1.0:
                raise UsageError(f"sweep value {value} outside [0, 1]")
        if not self.sweep:
            raise UsageError("sweep grid must not be empty")
        if self.maximum_idle_time <= 0:
            raise UsageError("session idle bound must be positive")
        if self.freq_threshold < 1:
            raise UsageError("freq_threshold must be >= 1")
        if self.window_spacing <= 0:
            raise UsageError("window_spacing must be positive")
        if self.history_windows < 0:
            raise UsageError("history_windows must be >= 0")
        if self.max_clusters < 0:
            raise UsageError("max_clusters must be >= 0")
        if self.max_epochs < 1:
            raise UsageError("max_epochs must be >= 1")
        if self.log_format not in ("whitespace", "csv"):
            raise UsageError(f"unknown log format {self.log_format!r}")


class SweepPoint(NamedTuple):
    """One vigilance grid point; == and hash leave out the trained `network`."""

    vigilance: float
    clusters: int | None
    error: str | None = None
    network: Art1Network | None = None

    def __eq__(self, other):
        if not isinstance(other, SweepPoint):
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):
        # Needed as well: tuple's own __ne__ would compare the network.
        if not isinstance(other, SweepPoint):
            return NotImplemented
        return self[:3] != other[:3]

    def __hash__(self) -> int:
        return hash(self[:3])


def sweep_vigilance(
    patterns: list[tuple[int, ...]],
    grid: tuple[float, ...],
    *,
    input_dim: int,
    max_clusters: int,
    max_epochs: int = 10,
    force_assign: bool = False,
) -> list[SweepPoint]:
    """Train one independent network per grid value on the same patterns.

    Grid points are mutually independent; a capacity failure is recorded on
    its own point and the remaining points still run. Each successful point
    keeps the network it trained; one that reaches max_epochs without
    converging logs a warning.
    """
    if not grid:
        raise ValueError("sweep grid must not be empty")
    points = []
    for value in grid:
        config = Art1Config(input_dim, value, max_clusters, max_epochs)
        net = init_network(config)
        try:
            assignment = train(net, patterns, force_assign=force_assign)
        except CapacityError as exc:
            points.append(SweepPoint(value, None, str(exc)))
            continue
        if not assignment.converged:
            log.warning(
                "vigilance %g: training did not converge in %d epochs", value, assignment.epochs
            )
        points.append(SweepPoint(value, net.active_clusters, network=net))
    return points


def render_cluster_counts(points: list[SweepPoint]) -> str:
    lines = [CLUSTER_COUNTS_HEADER]
    for point in points:
        if point.error is None:
            lines.append(f"{point.vigilance:g},{point.clusters}")
    return "\n".join(lines) + "\n"


def run(config: ExperimentConfig) -> int:
    """Run one experiment end to end; returns the process exit code."""
    config.validate()
    out = config.out_dir or os.curdir
    os.makedirs(out, exist_ok=True)

    if config.source == "generated":
        if config.workload is None:
            raise UsageError("generated mode needs a workload config")
        from .workload import generate, write_ground_truth, write_trace_log

        records, truth = generate(config.workload)
        write_trace_log(records, os.path.join(out, "trace.log"))
        write_ground_truth(truth, os.path.join(out, "ground_truth.csv"))
        log.info("generated %d records for %d clients", len(records), config.workload.num_clients)
        events = preprocess(records)
    else:
        delimiter = "," if config.log_format == "csv" else None
        try:
            with open(config.source, "r", encoding="utf-8") as handle:
                events = read_events(handle, delimiter=delimiter)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {config.source}: {exc}") from exc

    if not events:
        raise DataError("no usable events after status filtering")
    base = build_base_vector(events)
    sessions = segment_sessions(events, config.maximum_idle_time)
    windows = group_sessions_by_window(sessions, config.window_spacing)

    all_patterns: list[PatternVector] = []
    dropped = 0
    for window in windows:
        kept, d = patterns_for_sessions(window, base, config.freq_threshold)
        all_patterns.extend(kept)
        dropped += d
    if dropped:
        log.info("dropped %d all-zero patterns", dropped)
    if not all_patterns:
        raise DataError("no pattern cleared the frequency threshold; nothing to cluster")

    if config.dump_patterns:
        write_pattern_matrix(all_patterns, base, os.path.join(out, "patterns.csv"))

    # The sentinel gives every pattern its own potential cluster, so the cap
    # only ever binds when the user asks for one explicitly.
    max_clusters = config.max_clusters or len(all_patterns)
    art_config = Art1Config(base.size, config.vigilance, max_clusters, config.max_epochs)

    capacity_failures: list[str] = []

    if len(windows) >= 2:
        results = sliding_run(
            windows,
            base,
            art_config,
            freq_threshold=config.freq_threshold,
            history_windows=config.history_windows,
            force_assign=config.force_assign,
        )
        # A window that ran out of clusters has no rows; the others still count.
        for window, result in results:
            if result.error is not None:
                log.error(
                    "window %d: prefetch evaluation ran out of clusters: %s",
                    window,
                    result.error,
                )
                capacity_failures.append(result.error)
        write_metrics_csv(results, os.path.join(out, "metrics.csv"))
        log.info(
            "member-weighted prefetch accuracy %.4f over %d windows",
            member_weighted_accuracy(results),
            len(windows),
        )
    else:
        atomic_write(os.path.join(out, "metrics.csv"), METRICS_HEADER + "\n")
        log.warning("only one session window; prefetch metrics skipped")

    bit_rows = [p.bits for p in all_patterns]
    train_args = dict(
        input_dim=base.size,
        max_clusters=max_clusters,
        max_epochs=config.max_epochs,
        force_assign=config.force_assign,
    )
    points = sweep_vigilance(bit_rows, config.sweep, **train_args)
    atomic_write(os.path.join(out, "cluster_counts.csv"), render_cluster_counts(points))
    # The snapshot is the network of the grid point at the configured
    # vigilance; only a vigilance off the grid needs a training of its own.
    final = next((point for point in points if point.vigilance == config.vigilance), None)
    if final is None:
        final = sweep_vigilance(bit_rows, (config.vigilance,), **train_args)[0]
        points.append(final)
    for point in points:
        if point.error is not None:
            log.error("vigilance %g: %s", point.vigilance, point.error)
            capacity_failures.append(point.error)
    if final.network is not None:
        save_snapshot(final.network, os.path.join(out, "network.snapshot"))

    return EXIT_CAPACITY if capacity_failures else EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # instead so the documented code (1) is used.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="vodprefetch",
        description="Cluster per-session video request patterns and score prototype prefetching.",
    )
    parser.add_argument("--config", help="INI experiment config file")
    parser.add_argument("--input", help="replay this log file instead of generating a trace")
    parser.add_argument("--csv", action="store_true", help="input log fields are comma separated")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--vigilance", type=float, help="vigilance threshold in [0, 1]")
    parser.add_argument("--sweep", help="vigilance grid, comma or space separated")
    parser.add_argument("--max-clusters", type=int, help="cluster cap (0 = one per pattern)")
    parser.add_argument("--max-epochs", type=int, help="training pass limit")
    parser.add_argument("--session-idle", type=int, help="maximum idle seconds inside a session")
    parser.add_argument("--freq-threshold", type=int, help="requests per session to set a bit")
    parser.add_argument("--window-spacing", type=int, help="session window width in seconds")
    parser.add_argument("--history-windows", type=int, help="trailing windows to train on (0 = all)")
    parser.add_argument("--seed", type=int, help="workload generator seed")
    parser.add_argument(
        "--force-assign",
        action="store_true",
        help="on capacity exhaustion, assign to the closest cluster instead of failing",
    )
    parser.add_argument("--dump-patterns", action="store_true", help="write patterns.csv")
    return parser


def _parse_float_list(raw: str) -> tuple[float, ...]:
    tokens = [token for token in re.split(r"[,\s]+", raw.strip()) if token]
    if not tokens:
        raise UsageError("empty sweep grid")
    try:
        return tuple(float(token) for token in tokens)
    except ValueError:
        raise UsageError(f"bad sweep grid {raw!r}") from None


def _parse_hour_key(key: str) -> list[int]:
    match = re.fullmatch(r"(\d{1,2})(?:-(\d{1,2}))?", key.strip())
    if not match:
        raise UsageError(f"bad schedule hour {key!r} (use H or H1-H2)")
    first = int(match.group(1))
    last = int(match.group(2)) if match.group(2) else first
    if not (0 <= first <= 23 and 0 <= last <= 23 and first <= last):
        raise UsageError(f"schedule hours {key!r} outside 0-23 or reversed")
    return list(range(first, last + 1))


def _load_config_file(path: str) -> ExperimentConfig:
    import configparser
    import dataclasses

    from .workload import WorkloadConfig

    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"bad config {path}: {exc}") from exc

    config = ExperimentConfig()
    try:
        if parser.has_section("experiment"):
            exp = parser["experiment"]
            config.source = exp.get("source", config.source)
            config.log_format = exp.get("format", config.log_format)
            config.out_dir = exp.get("out", config.out_dir)
            config.seed = exp.getint("seed", config.seed)
            config.maximum_idle_time = exp.getint("maximum_idle_time", config.maximum_idle_time)
            config.freq_threshold = exp.getint("freq_threshold", config.freq_threshold)
            config.window_spacing = exp.getint("window_spacing", config.window_spacing)
            config.history_windows = exp.getint("history_windows", config.history_windows)
            config.dump_patterns = exp.getboolean("dump_patterns", config.dump_patterns)
            config.force_assign = exp.getboolean("force_assign", config.force_assign)
        if parser.has_section("clustering"):
            art = parser["clustering"]
            config.vigilance = art.getfloat("vigilance", config.vigilance)
            config.max_clusters = art.getint("max_clusters", config.max_clusters)
            config.max_epochs = art.getint("max_epochs", config.max_epochs)
            if art.get("sweep", None):
                config.sweep = _parse_float_list(art["sweep"])
        workload_kwargs = {}
        if parser.has_section("workload"):
            # Every WorkloadConfig number except those [experiment] and
            # [schedule] set, read as the type of its default.
            kinds = {
                f.name: type(f.default)
                for f in dataclasses.fields(WorkloadConfig)
                if f.name not in ("seed", "window_spacing", "category_schedule")
            }
            for key, raw in parser["workload"].items():
                if key not in kinds:
                    raise UsageError(f"bad config {path}: unknown [workload] key {key!r}")
                workload_kwargs[key] = kinds[key](raw)
        schedule: dict[int, tuple[float, ...]] = {}
        if parser.has_section("schedule"):
            for key, raw in parser["schedule"].items():
                multipliers = _parse_float_list(raw)
                for hour in _parse_hour_key(key):
                    schedule[hour] = multipliers
        if schedule:
            workload_kwargs["category_schedule"] = schedule
        config.workload = WorkloadConfig(
            seed=config.seed, window_spacing=config.window_spacing, **workload_kwargs
        )
    except ValueError as exc:
        raise UsageError(f"bad config {path}: {exc}") from exc
    return config


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    config = _load_config_file(args.config) if args.config else ExperimentConfig()

    if args.input:
        config.source = args.input
    if args.csv:
        config.log_format = "csv"
    if args.out:
        config.out_dir = args.out
    if args.vigilance is not None:
        config.vigilance = args.vigilance
    if args.sweep:
        config.sweep = _parse_float_list(args.sweep)
    if args.max_clusters is not None:
        config.max_clusters = args.max_clusters
    if args.max_epochs is not None:
        config.max_epochs = args.max_epochs
    if args.session_idle is not None:
        config.maximum_idle_time = args.session_idle
    if args.freq_threshold is not None:
        config.freq_threshold = args.freq_threshold
    if args.window_spacing is not None:
        config.window_spacing = args.window_spacing
    if args.history_windows is not None:
        config.history_windows = args.history_windows
    if args.seed is not None:
        config.seed = args.seed
    if args.force_assign:
        config.force_assign = True
    if args.dump_patterns:
        config.dump_patterns = True

    config.validate()

    if config.source == "generated":
        import dataclasses

        from .workload import WorkloadConfig, validate_feasibility

        base_workload = config.workload or WorkloadConfig()
        try:
            config.workload = dataclasses.replace(
                base_workload, seed=config.seed, window_spacing=config.window_spacing
            )
            validate_feasibility(config.workload)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return config


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _assemble_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, LogParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
