"""Request-pattern clustering and prototype prefetching for VoD traces.

The pipeline: parse web logs into per-client sessions, turn each session
into a binary request pattern over the video base vector, cluster the
patterns with a vigilance-gated adaptive-resonance network, prefetch each
cluster prototype's URLs, and score hits against the next session window.
"""

from .art1 import (
    Art1Config,
    Art1Network,
    Assignment,
    CapacityError,
    init_network,
    load_snapshot,
    present_pattern,
    render_snapshot,
    save_snapshot,
    train,
)
from .logs import (
    AccessEvent,
    LogParseError,
    Session,
    group_sessions_by_window,
    parse_log_file,
    parse_log_lines,
    preprocess,
    read_events,
    segment_sessions,
)
from .patterns import (
    BaseVector,
    PatternVector,
    UnknownVideoError,
    build_base_vector,
    extract_pattern,
    patterns_for_sessions,
    render_pattern_matrix,
    write_pattern_matrix,
)
from .prefetch import (
    CacheMetrics,
    EvaluationResult,
    build_plan,
    evaluate_plan,
    member_weighted_accuracy,
    render_metrics_csv,
    sliding_run,
    write_metrics_csv,
)

# The generator's names, LogRecord among them, load on first access
# (PEP 562), so that importing the package for a replay run does not
# import the generator, `random` or `dataclasses`.
_WORKLOAD_NAMES = frozenset(
    {
        "GroundTruth",
        "LogRecord",
        "WorkloadConfig",
        "ZipfSampler",
        "generate",
        "plant_ground_truth",
        "write_ground_truth",
        "write_trace_log",
    }
)


def __getattr__(name: str):
    if name in _WORKLOAD_NAMES:
        from . import workload

        return getattr(workload, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AccessEvent",
    "Art1Config",
    "Art1Network",
    "Assignment",
    "BaseVector",
    "CacheMetrics",
    "CapacityError",
    "EvaluationResult",
    "GroundTruth",
    "LogParseError",
    "LogRecord",
    "PatternVector",
    "Session",
    "UnknownVideoError",
    "WorkloadConfig",
    "ZipfSampler",
    "build_base_vector",
    "build_plan",
    "evaluate_plan",
    "extract_pattern",
    "generate",
    "group_sessions_by_window",
    "init_network",
    "load_snapshot",
    "member_weighted_accuracy",
    "parse_log_file",
    "parse_log_lines",
    "patterns_for_sessions",
    "plant_ground_truth",
    "preprocess",
    "present_pattern",
    "read_events",
    "render_metrics_csv",
    "render_pattern_matrix",
    "render_snapshot",
    "save_snapshot",
    "segment_sessions",
    "sliding_run",
    "train",
    "write_ground_truth",
    "write_metrics_csv",
    "write_pattern_matrix",
    "write_trace_log",
]
