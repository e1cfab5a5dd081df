"""Traced run: `vodprefetch` in-process with span recorders around each layer.

Run as a child of the benchmark, with the package on PYTHONPATH:

    python3 perfbench/traced.py spans  <result.json> <vodprefetch argv...>
    python3 perfbench/traced.py memory <result.json> <vodprefetch argv...>

`spans` replaces the package's public functions in the namespaces of the
modules that call them with span recorders, calls `cli.main(argv)` and
writes the exit code and every span to <result.json> when the run ends.
`memory` instead runs tracemalloc from the start of log parsing to the end
of window grouping and writes the traced peak. Nothing under src/ is
modified; the replacements live only in this process.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tracemalloc

from spans import Recorder, Span, self_times, to_rows


def _train_counter(seen: set):
    def count(span, args, kwargs, result, error):
        net, patterns = args[0], args[1]
        cfg = net.config
        force = kwargs.get("force_assign", False)
        key = (cfg.vigilance, cfg.max_clusters, cfg.max_epochs, force, tuple(map(tuple, patterns)))
        span.counts["repeat"] = int(key in seen)
        seen.add(key)
        span.counts["patterns"] = len(patterns)
        if error is not None:
            span.counts["capacity_error"] = int(type(error).__name__ == "CapacityError")
            return
        span.counts["epochs"] = result.epochs
        span.counts["converged"] = int(result.converged)
        span.counts["clusters"] = net.active_clusters
        span.counts["resets"] = sum(len(r) for r in result.rejections)

    return count


def _extract_count(span, args, kwargs, result, error):
    span.counts["sessions"] = len(args[0])


def _cluster_input_count(span, args, kwargs, result, error):
    kept, dropped = result
    span.counts.update(
        sessions=len(args[0]),
        kept=len(kept),
        dropped=dropped,
        bits=sum(sum(p.bits) for p in kept),
        cluster_input=1,
    )


def _write_count(span, args, kwargs, result, error):
    span.counts["bytes"] = os.path.getsize(args[0])


def _evaluate_count(span, args, kwargs, result, error):
    span.counts["prefetched"] = sum(m.prefetched_count for m in result.metrics)
    span.counts["hits"] = sum(m.hits for m in result.metrics)


def _sweep_count(span, args, kwargs, result, error):
    span.counts["points"] = len(result)
    span.counts["failed"] = sum(point.error is not None for point in result)


def install_recorders(recorder: Recorder):
    """Wrap every layer call the pipeline makes; returns the wrapped cli.main."""
    from vodprefetch import art1, cli, patterns, prefetch

    seen_trainings: set = set()
    train_count = _train_counter(seen_trainings)
    table = [
        (cli, "run", "cli.run", None),
        (cli, "parse_log_file", "logs.parse", lambda s, a, k, r, e: s.counts.update(records=len(r))),
        (cli, "preprocess", "logs.preprocess",
         lambda s, a, k, r, e: s.counts.update(events=len(r), status_dropped=len(a[0]) - len(r))),
        (cli, "build_base_vector", "patterns.base", lambda s, a, k, r, e: s.counts.update(input_dim=r.size)),
        (cli, "segment_sessions", "logs.segment", lambda s, a, k, r, e: s.counts.update(sessions=len(r))),
        (cli, "group_sessions_by_window", "logs.window", lambda s, a, k, r, e: s.counts.update(windows=len(r))),
        (cli, "patterns_for_sessions", "patterns.extract", _cluster_input_count),
        (cli, "sliding_run", "prefetch.sliding", None),
        (cli, "write_metrics_csv", "prefetch.report", None),
        (cli, "sweep_vigilance", "cli.sweep", _sweep_count),
        (cli, "train", "art1.train", train_count),
        (cli, "save_snapshot", "art1.snapshot", None),
        (prefetch, "patterns_for_sessions", "patterns.extract", _extract_count),
        (prefetch, "train", "art1.train", train_count),
        (prefetch, "evaluate_plan", "prefetch.evaluate", _evaluate_count),
    ]
    for module in (cli, prefetch, patterns, art1):
        table.append((module, "atomic_write", "fileio.write", _write_count))
    for module, attr, name, count in table:
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), count))
    return recorder.wrap("cli.main", cli.main)


def install_memory_probe(result: dict) -> None:
    """Trace allocations from the start of parsing to the end of windowing."""
    from vodprefetch import cli

    parse, group = cli.parse_log_file, cli.group_sessions_by_window

    def traced_parse(*args, **kwargs):
        tracemalloc.start()
        return parse(*args, **kwargs)

    def traced_group(*args, **kwargs):
        windows = group(*args, **kwargs)
        result["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        return windows

    cli.parse_log_file, cli.group_sessions_by_window = traced_parse, traced_group


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts of one traced run."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def indices(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[i] for i in indices(name))

    def total(name, key, where=lambda span: True):
        return sum(spans[i].counts.get(key, 0) for i in indices(name) if where(spans[i]))

    def cluster_input(span):
        return span.counts.get("cluster_input", 0) == 1

    trainings = [spans[i] for i in indices("art1.train")]
    finished = [span for span in trainings if "epochs" in span.counts]
    final = [span for span in trainings if spans[span.parent].name == "cli.run"]
    kept = total("patterns.extract", "kept", cluster_input)
    sessions = total("logs.segment", "sessions")
    extracted = total("patterns.extract", "sessions")
    prefetched = total("prefetch.evaluate", "prefetched")
    hits = total("prefetch.evaluate", "hits")
    durations = [span.duration for span in trainings] or [0.0]
    slots = sum(span.counts["patterns"] * span.counts["clusters"] for span in finished)
    resets = sum(span.counts["resets"] for span in finished)
    sliding = indices("prefetch.sliding")
    return {
        "logs.parse_s": self_s("logs.parse"),
        "logs.preprocess_s": self_s("logs.preprocess"),
        "logs.segment_s": self_s("logs.segment"),
        "logs.window_s": self_s("logs.window"),
        "logs.records": total("logs.parse", "records"),
        "logs.status_dropped": total("logs.preprocess", "status_dropped"),
        "logs.sessions": sessions,
        "logs.windows": total("logs.window", "windows"),
        "patterns.base_s": self_s("patterns.base"),
        "patterns.extract_s": self_s("patterns.extract"),
        "patterns.sessions_extracted": extracted,
        "patterns.reextract_ratio": extracted / sessions if sessions else 0.0,
        "patterns.kept": kept,
        "patterns.dropped": total("patterns.extract", "dropped", cluster_input),
        "patterns.bits_per_pattern": total("patterns.extract", "bits", cluster_input) / kept if kept else 0.0,
        "patterns.input_dim": total("patterns.base", "input_dim"),
        "art1.train_s": self_s("art1.train"),
        "art1.train_calls": len(trainings),
        "art1.train_call_s.p50": statistics.median(durations),
        "art1.train_call_s.max": max(durations),
        "art1.epochs": sum(span.counts["epochs"] for span in finished),
        "art1.presentations": sum(span.counts["patterns"] * span.counts["epochs"] for span in finished),
        "art1.clusters": sum(span.counts.get("clusters", 0) for span in final),
        "art1.last_epoch_resets": resets,
        "art1.reset_ratio": resets / slots if slots else 0.0,
        "art1.nonconverged": sum(1 - span.counts["converged"] for span in finished),
        "art1.capacity_errors": sum(span.counts.get("capacity_error", 0) for span in trainings),
        "art1.snapshot_s": self_s("art1.snapshot"),
        "prefetch.sliding_s": sum(spans[i].duration for i in sliding),
        "prefetch.sliding_self_s": self_s("prefetch.sliding"),
        "prefetch.evaluate_s": self_s("prefetch.evaluate"),
        "prefetch.report_s": self_s("prefetch.report"),
        "prefetch.windows_scored": len(indices("prefetch.evaluate")),
        "prefetch.prefetched": prefetched,
        "prefetch.hits": hits,
        "prefetch.hit_ratio": hits / prefetched if prefetched else 0.0,
        "cli.self_s": self_s("cli.main") + self_s("cli.run") + self_s("cli.sweep"),
        "cli.sweep_s": sum(spans[i].duration for i in indices("cli.sweep")),
        "cli.sweep_points": total("cli.sweep", "points"),
        "cli.sweep_failed": total("cli.sweep", "failed"),
        "cli.final_train_s": sum(span.duration for span in final),
        "cli.repeat_trainings": sum(span.counts["repeat"] for span in trainings),
        "fileio.write_s": self_s("fileio.write"),
        "fileio.files": len(indices("fileio.write")),
        "fileio.bytes_written": total("fileio.write", "bytes"),
    }


def main(argv: list[str]) -> int:
    mode, result_path, cli_argv = argv[0], argv[1], argv[2:]
    if mode == "spans":
        recorder = Recorder()
        entry = install_recorders(recorder)
        result = {"exit": entry(cli_argv), "spans": to_rows(recorder.spans)}
    elif mode == "memory":
        from vodprefetch import cli

        result = {}
        install_memory_probe(result)
        result["exit"] = cli.main(cli_argv)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
