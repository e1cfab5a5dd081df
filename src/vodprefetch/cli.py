"""Experiment runner and command-line interface.

Reads the flags and the INI config, generates or ingests a trace, extracts its patterns,
runs `prefetch`'s sliding evaluation and vigilance sweep, writes the CSV results, and
snapshots the network of the sweep point at the configured vigilance.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import re
import sys

# The benchmark's tracer wraps the pipeline's calls by their names in this
# module, so `run` calls each by its imported name (the sliding span wraps
# `sliding_run`); parse_log_file, preprocess and train are imported for the
# tracer alone.
from .art1 import DEFAULT_MAX_EPOCHS, Art1Config, save_snapshot, train
from .fileio import atomic_write
from .logs import (
    DEFAULT_MAX_IDLE_SECONDS,
    LogParseError,
    group_sessions_by_window,
    parse_log_file,
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
from .prefetch import SweepPoint, sliding_run, sweep_vigilance
from .prefetch import member_weighted_accuracy, write_metrics_csv

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


def _validate(config: argparse.Namespace) -> None:
    if not 0.0 <= config.vigilance <= 1.0:
        raise UsageError(f"vigilance must be in [0, 1], got {config.vigilance}")
    for value in config.sweep:
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"sweep value {value} outside [0, 1]")
    if config.maximum_idle_time <= 0:
        raise UsageError("session idle bound must be positive")
    if config.freq_threshold < 1:
        raise UsageError("freq_threshold must be >= 1")
    if config.window_spacing <= 0:
        raise UsageError("window_spacing must be positive")
    if config.history_windows < 0:
        raise UsageError("history_windows must be >= 0")
    if config.max_clusters < 0:
        raise UsageError("max_clusters must be >= 0")
    if config.max_epochs < 1:
        raise UsageError("max_epochs must be >= 1")
    if config.log_format not in ("whitespace", "csv"):
        raise UsageError(f"unknown log format {config.log_format!r}")


def render_cluster_counts(points: list[SweepPoint]) -> str:
    lines = [CLUSTER_COUNTS_HEADER]
    for point in points:
        if point.error is None:
            lines.append(f"{point.vigilance:g},{point.clusters}")
    return "\n".join(lines) + "\n"


def run(config: argparse.Namespace) -> int:
    """Run one experiment end to end; returns the process exit code.

    `config` comes from _assemble_config, which has validated it: each
    setting under its name in _build_parser, and `workload`, the
    generator's WorkloadConfig, which generated mode always has.
    """
    out = config.out_dir or os.curdir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc}") from exc

    # Generated mode writes its trace and then reads it back like a replay.
    if config.source == "generated":
        source, delimiter = _write_generated_trace(config.workload, out), None
    else:
        source, delimiter = config.source, "," if config.log_format == "csv" else None
    try:
        with open(source, "r", encoding="utf-8") as handle:
            events = read_events(handle, delimiter=delimiter)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc

    if not events:
        raise DataError("no usable events after status filtering")
    base = build_base_vector(events)
    sessions = segment_sessions(events, config.maximum_idle_time)
    windows = group_sessions_by_window(sessions, config.window_spacing)

    # Each session's pattern is extracted here once; the sliding run trains
    # on these per-window lists and the sweep on their concatenation.
    window_patterns: list[list[PatternVector]] = []
    dropped = 0
    for window in windows:
        kept, d = patterns_for_sessions(window, base, config.freq_threshold)
        window_patterns.append(kept)
        dropped += d
    all_patterns = [pattern for kept in window_patterns for pattern in kept]
    if dropped:
        log.info("dropped %d all-zero patterns", dropped)
    if not all_patterns:
        raise DataError("no pattern cleared the frequency threshold; nothing to cluster")

    patterns_csv = os.path.join(out, "patterns.csv")
    if config.dump_patterns:
        write_pattern_matrix(all_patterns, base, patterns_csv)
    else:
        _remove_stale(patterns_csv)

    # The sentinel gives every pattern its own potential cluster, so the cap
    # only ever binds when the user asks for one explicitly.
    max_clusters = config.max_clusters or len(all_patterns)

    results = []
    if len(windows) >= 2:
        results = sliding_run(
            windows,
            base,
            Art1Config(base.size, config.vigilance, max_clusters, config.max_epochs),
            patterns=window_patterns,
            history_windows=config.history_windows,
            force_assign=config.force_assign,
        )
        log.info(
            "member-weighted prefetch accuracy %.4f over %d windows",
            member_weighted_accuracy(results),
            len(windows),
        )
    else:
        log.warning("only one session window; prefetch metrics skipped")
    write_metrics_csv(results, os.path.join(out, "metrics.csv"))

    # The snapshot is the network of the grid point at the configured
    # vigilance; a vigilance off the grid trains as one more point, which
    # cluster_counts.csv leaves out.
    grid = config.sweep
    if config.vigilance not in grid:
        grid = (*grid, config.vigilance)
    points = sweep_vigilance(
        [p.bits for p in all_patterns],
        grid,
        input_dim=base.size,
        max_clusters=max_clusters,
        max_epochs=config.max_epochs,
        force_assign=config.force_assign,
    )
    atomic_write(
        os.path.join(out, "cluster_counts.csv"),
        render_cluster_counts(points[: len(config.sweep)]),
    )
    final = points[grid.index(config.vigilance)]
    snapshot = os.path.join(out, "network.snapshot")
    if final.network is not None:
        save_snapshot(final.network, snapshot)
    else:
        _remove_stale(snapshot)

    outcomes = [result for _, result in results] + points
    return EXIT_CAPACITY if any(item.error is not None for item in outcomes) else EXIT_OK


def _write_generated_trace(workload, out: str) -> str:
    """Write the workload's trace.log and ground_truth.csv into `out`.

    Returns the trace's path. The generated records and ground truth are
    freed on return, before the run reads the trace back.
    """
    from .workload import generate, write_ground_truth, write_trace_log

    records, truth = generate(workload)
    path = os.path.join(out, "trace.log")
    write_trace_log(records, path)
    write_ground_truth(truth, os.path.join(out, "ground_truth.csv"))
    log.info("generated %d records for %d clients", len(records), workload.num_clients)
    return path


def _remove_stale(path: str) -> None:
    # An output that an earlier run left in --out and this run does not
    # write would pass for this run's. trace.log and ground_truth.csv are
    # never removed: a replay may read its input from --out.
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # instead so the documented code (1) is used.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    """The one declaration of every setting: its flag, name, type and default.

    A --config file's values replace the defaults, so flags override the
    file, which overrides these.
    """
    parser = _Parser(
        prog="vodprefetch",
        description="Cluster per-session video request patterns and score prototype prefetching.",
    )
    add = parser.add_argument
    add("--config", help="INI experiment config file")
    add("--input", dest="source", default="generated", metavar="PATH",
        help="replay this log file instead of generating a trace")
    add("--csv", dest="log_format", action="store_const", const="csv", default="whitespace",
        help="input log fields are comma separated")
    add("--out", dest="out_dir", default="out", metavar="DIR",
        help="output directory (default: out)")
    add("--vigilance", type=float, default=0.4, help="vigilance threshold in [0, 1]")
    add("--sweep", type=_parse_float_list, default=DEFAULT_SWEEP,
        help="vigilance grid, comma or space separated")
    add("--max-clusters", type=int, default=0, help="cluster cap (0 = one per pattern)")
    add("--max-epochs", type=int, default=DEFAULT_MAX_EPOCHS, help="training pass limit")
    add("--session-idle", dest="maximum_idle_time", type=int, default=DEFAULT_MAX_IDLE_SECONDS,
        metavar="SECONDS", help="maximum idle seconds inside a session")
    add("--freq-threshold", type=int, default=DEFAULT_FREQ_THRESHOLD,
        help="requests per session to set a bit")
    add("--window-spacing", type=int, default=86400, help="session window width in seconds")
    add("--history-windows", type=int, default=0, help="trailing windows to train on (0 = all)")
    add("--seed", type=int, default=7, help="workload generator seed")
    add("--force-assign", action="store_true",
        help="on capacity exhaustion, assign to the closest cluster instead of failing")
    add("--dump-patterns", action="store_true", help="write patterns.csv")
    parser.set_defaults(workload=None)
    return parser


def _parse_float_list(raw: str) -> tuple[float, ...]:
    tokens = [token for token in re.split(r"[,\s]+", raw.strip()) if token]
    if not tokens:
        raise UsageError("empty sweep grid")
    try:
        return tuple(float(token) for token in tokens)
    except ValueError:
        raise UsageError(f"bad sweep grid {raw!r}") from None


def _config_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    # A ValueError, which _load_config_file reports with the file's name.
    try:
        return _parse_float_list(raw)
    except UsageError:
        raise ValueError(f"[{section}] {key!r} needs a list of numbers, got {raw!r}") from None


def _parse_hour_key(key: str) -> list[int]:
    # A ValueError, which _load_config_file reports with the file's name.
    match = re.fullmatch(r"(\d{1,2})(?:-(\d{1,2}))?", key.strip())
    if not match:
        raise ValueError(f"bad schedule hour {key!r} (use H or H1-H2)")
    first = int(match.group(1))
    last = int(match.group(2)) if match.group(2) else first
    if not (0 <= first <= 23 and 0 <= last <= 23 and first <= last):
        raise ValueError(f"schedule hours {key!r} outside 0-23 or reversed")
    return list(range(first, last + 1))


# The [experiment] and [clustering] keys. Each sets the setting of its own
# name in _build_parser, apart from the two that _KEY_DEST renames.
_SECTION_KEYS = {
    "experiment": ("source", "format", "out", "seed", "maximum_idle_time", "freq_threshold",
                   "window_spacing", "history_windows", "dump_patterns", "force_assign"),
    "clustering": ("vigilance", "max_clusters", "max_epochs", "sweep"),
}
_KEY_DEST = {"format": "log_format", "out": "out_dir"}


def _load_config_file(path: str, parser: _Parser) -> dict:
    """The settings a config file sets, by name, and its `workload`.

    Each value is read as the type of the setting's default.
    """
    import configparser
    import dataclasses

    from .workload import WorkloadConfig

    # Values are read verbatim: '%' is an ordinary character.
    ini = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            ini.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"bad config {path}: {exc}") from exc

    # configparser would copy a [DEFAULT] section's keys into every other
    # section; an empty one is harmless.
    if ini.defaults():
        raise UsageError(f"bad config {path}: unknown section [DEFAULT]")
    for section in ini.sections():
        if section not in (*_SECTION_KEYS, "workload", "schedule"):
            raise UsageError(f"bad config {path}: unknown section [{section}]")
    settings = {}
    try:
        for section, keys in _SECTION_KEYS.items():
            if not ini.has_section(section):
                continue
            for key, raw in ini[section].items():
                if key not in keys:
                    raise UsageError(f"bad config {path}: unknown [{section}] key {key!r}")
                dest = _KEY_DEST.get(key, key)
                default = parser.get_default(dest)
                if isinstance(default, bool):
                    settings[dest] = ini.getboolean(section, key)
                elif isinstance(default, tuple):
                    settings[dest] = _config_float_list(section, key, raw)
                else:
                    settings[dest] = type(default)(raw)
        workload_kwargs = {}
        if ini.has_section("workload"):
            # Every WorkloadConfig number except those [experiment] and
            # [schedule] set, read as the type of its default.
            kinds = {
                f.name: type(f.default)
                for f in dataclasses.fields(WorkloadConfig)
                if f.name not in ("seed", "window_spacing", "category_schedule")
            }
            for key, raw in ini["workload"].items():
                if key not in kinds:
                    raise UsageError(f"bad config {path}: unknown [workload] key {key!r}")
                workload_kwargs[key] = kinds[key](raw)
        schedule: dict[int, tuple[float, ...]] = {}
        if ini.has_section("schedule"):
            for key, raw in ini["schedule"].items():
                multipliers = _config_float_list("schedule", key, raw)
                for hour in _parse_hour_key(key):
                    schedule[hour] = multipliers
        if schedule:
            workload_kwargs["category_schedule"] = schedule
        # seed and window_spacing are set by _assemble_config once the flags
        # are read.
        settings["workload"] = WorkloadConfig(**workload_kwargs)
    except ValueError as exc:
        raise UsageError(f"bad config {path}: {exc}") from exc
    return settings


def _assemble_config(argv) -> argparse.Namespace:
    parser = _build_parser()
    config = parser.parse_args(argv)
    if config.config:
        parser.set_defaults(**_load_config_file(config.config, parser))
        # The file's values must pass on their own, whatever flags override.
        try:
            _validate(parser.parse_args([]))
        except UsageError as exc:
            raise UsageError(f"bad config {config.config}: {exc}") from exc
        config = parser.parse_args(argv)
    _validate(config)

    if config.source == "generated":
        import dataclasses

        from .workload import WorkloadConfig, validate_feasibility

        try:
            config.workload = dataclasses.replace(
                config.workload or WorkloadConfig(),
                seed=config.seed,
                window_spacing=config.window_spacing,
            )
            validate_feasibility(config.workload)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return config


def main(argv=None) -> int:
    """Run the command; returns the process exit code.

    The cyclic garbage collector is off while it runs and is left as the
    caller had it, however `main` ends. The pipeline makes almost no
    reference cycles, so reference counting frees its objects, and the
    collector's passes over hundreds of thousands of live event tuples
    would only cost time. Library calls to `run` keep the default.
    """
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(_assemble_config(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, LogParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
