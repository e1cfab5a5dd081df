"""Package surface: a root that loads no submodule, the immutable value types,
README's example, the names the benchmark's tracer looks up and the frozen
acceptance spec."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest

from vodprefetch.art1 import Art1Config, Assignment, init_network
from vodprefetch.cli import SweepPoint
from vodprefetch.logs import AccessEvent, Session
from vodprefetch.patterns import BaseVector, PatternVector
from vodprefetch.prefetch import CacheMetrics, EvaluationResult
from vodprefetch.workload import LogRecord, WorkloadConfig, generate, write_trace_log


def test_package_import_loads_no_submodule():
    # Each name has one import path, its module's; the package root
    # re-exports nothing, so importing it loads nothing else.
    probe = (
        "import sys, vodprefetch\n"
        "print(sorted(m for m in sys.modules if m.startswith('vodprefetch.')))\n"
        "print([n for n in dir(vodprefetch) if not n.startswith('_')])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


# The names the package root used to re-export, by the module that defines
# each: `from vodprefetch import X` is now `from vodprefetch.<module> import X`.
# `iter_events`, which the CLI reads logs with, joins them.
EXPORTED_NAMES = {
    "art1": ("Art1Config", "Art1Network", "Assignment", "CapacityError", "init_network",
             "load_snapshot", "present_pattern", "render_snapshot", "save_snapshot", "train"),
    "logs": ("AccessEvent", "LogParseError", "Session", "group_sessions_by_window",
             "iter_events", "parse_log_file", "parse_log_lines", "preprocess",
             "segment_sessions"),
    "patterns": ("BaseVector", "PatternVector", "UnknownVideoError", "build_base_vector",
                 "patterns_for_sessions", "render_pattern_matrix", "write_pattern_matrix"),
    "prefetch": ("CacheMetrics", "EvaluationResult", "SweepPoint", "build_plan",
                 "evaluate_plan", "member_weighted_accuracy", "render_metrics_csv",
                 "sliding_run", "sweep_vigilance", "write_metrics_csv"),
    "workload": ("GroundTruth", "LogRecord", "WorkloadConfig", "generate", "plant_ground_truth",
                 "write_ground_truth", "write_trace_log"),
}


@pytest.mark.parametrize(
    "module, name",
    [pytest.param(module, name, id=name)
     for module, names in EXPORTED_NAMES.items() for name in names],
)
def test_every_exported_name_resolves(module, name):
    value = getattr(importlib.import_module(f"vodprefetch.{module}"), name)
    assert value.__module__ == f"vodprefetch.{module}"


def test_cli_sweeps_with_prefetchs_sweep():
    # tests/test_acceptance.py imports sweep_vigilance from cli.
    from vodprefetch import cli, prefetch

    assert cli.sweep_vigilance is prefetch.sweep_vigilance


def test_log_record_is_the_generators():
    from vodprefetch import logs

    assert not hasattr(logs, "LogRecord")


@pytest.mark.parametrize("module", ["vodprefetch", "vodprefetch.logs"])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(module), "no_such_name")


EVENT = AccessEvent("c1", 5, "v1")

VALUES = [
    Art1Config(4, 0.5, 3),
    Assignment((0,), ((),), True, 1),
    EVENT,
    Session("c1", array("q", [5]), ("v1",)),
    BaseVector.from_urls(["v1", "v2"]),
    PatternVector("c1", (1, 0)),
    CacheMetrics(0, 1, 2, 1),
    EvaluationResult((), ()),
    SweepPoint(0.5),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_types_reject_attribute_assignment(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1


def test_value_types_derive_what_their_fields_fix():
    session = Session("c1", array("q", [5, 9]), ("v1", "v2"))
    assert Session._fields == ("client_id", "timestamps", "videos")
    assert (session.start, session.end) == (5, 9)
    assert session.events == (AccessEvent("c1", 5, "v1"), AccessEvent("c1", 9, "v2"))

    assert CacheMetrics._fields == ("cluster_index", "member_count", "prefetched_count", "hits")
    assert CacheMetrics(0, 1, 36, 34).accuracy == 34 / 36
    assert CacheMetrics(0, 1, 0, 0).accuracy == 0.0

    net = init_network(Art1Config(2, 0.5, 2))
    net.prototypes = [0b01, 0b10]
    assert SweepPoint._fields == ("vigilance", "error", "network")
    assert SweepPoint(0.5, network=net).clusters == 2
    assert SweepPoint(0.5, "out of clusters").clusters is None


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(input_dim=0, vigilance=0.5, max_clusters=1), "input_dim must be >= 1, got 0"),
        (dict(input_dim=1, vigilance=1.5, max_clusters=1), "vigilance must be in [0, 1], got 1.5"),
        (dict(input_dim=1, vigilance=0.5, max_clusters=0), "max_clusters must be >= 1, got 0"),
        (
            dict(input_dim=1, vigilance=0.5, max_clusters=1, max_epochs=0),
            "max_epochs must be >= 1, got 0",
        ),
        (
            dict(input_dim=1, vigilance=-0.1, max_clusters=1),
            "vigilance must be in [0, 1], got -0.1",
        ),
    ],
)
def test_art1_config_error_texts(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Art1Config(**kwargs)


def test_art1_config_keeps_its_defaults_and_name():
    config = Art1Config(input_dim=4, vigilance=0.5, max_clusters=3)
    assert config.max_epochs == 10
    assert repr(config) == (
        "Art1Config(input_dim=4, vigilance=0.5, max_clusters=3, max_epochs=10, force_assign=False)"
    )


def test_cache_metrics_error_text():
    with pytest.raises(ValueError, match=r"^hits 3 outside \[0, prefetched 2\]$"):
        CacheMetrics(0, 1, 2, 3)


@pytest.mark.parametrize(
    "args, message",
    [
        (("", "u1", 1, "v1", 200, 1), "client_id and video_id must be non-empty"),
        (("c1", "u1", -1, "v1", 200, 1), "negative timestamp -1"),
        (("c1", "u1", 1, "v1", 200, -2), "negative bytes_sent -2"),
    ],
)
def test_log_record_error_texts(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LogRecord(*args)


@pytest.mark.parametrize(
    "value, change, message",
    [
        pytest.param(Art1Config(3, 0.5, 2), dict(vigilance=5, max_clusters=0),
                     "vigilance must be in [0, 1], got 5", id="Art1Config-vigilance"),
        pytest.param(Art1Config(3, 0.5, 2), dict(max_clusters=0),
                     "max_clusters must be >= 1, got 0", id="Art1Config-max_clusters"),
        pytest.param(CacheMetrics(0, 1, 2, 1), dict(hits=9),
                     "hits 9 outside [0, prefetched 2]", id="CacheMetrics-hits"),
    ],
)
def test_replace_checks_fields_as_construction_does(value, change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        value._replace(**change)
    # Every other way to rebuild a valid value still works.
    for rebuilt in (value._replace(), pickle.loads(pickle.dumps(value)),
                    copy.copy(value), copy.deepcopy(value)):
        assert rebuilt == value and type(rebuilt) is type(value)


def test_log_record_stays_a_dataclass_for_replace():
    record = LogRecord("c1", "u1", 1, "v1", 200, 10)
    changed = dataclasses.replace(record, status_code=404)
    assert changed == LogRecord("c1", "u1", 1, "v1", 404, 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        changed.status_code = 200


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert match, "README has no Library use python block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "0.9897686460629135\n"


def test_benchmark_tracer_finds_the_pipeline(tmp_path):
    # perfbench/traced.py wraps pipeline functions by their names in `cli`
    # and `prefetch`; a renamed or removed one makes it fail or lose spans,
    # and a call that moves changes its parent span.
    root = Path(__file__).parents[1]
    config = WorkloadConfig(
        num_clients=8, num_videos=16, num_groups=2, requests_min=20, requests_max=30
    )
    records, _ = generate(config)
    trace = tmp_path / "trace.log"
    write_trace_log(records, trace)
    result = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced.py"), "spans", str(result),
         "--input", str(trace), "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(result.read_text())["spans"]
    tree = Counter((name, None if parent is None else rows[parent][0]) for name, parent, *_ in rows)
    # Every training runs under a wrapped `train` name, inside the sliding
    # run (one per window but the last) or the sweep (one per grid point).
    # Patterns are extracted once per window, in `cli.run`; the sliding run
    # trains on those lists and extracts none itself.
    assert tree == {
        ("cli.main", None): 1,
        ("cli.run", "cli.main"): 1,
        **{
            (name, "cli.run"): 1
            for name in ("logs.segment", "logs.window", "patterns.base", "prefetch.sliding",
                         "prefetch.report", "cli.sweep", "art1.snapshot", "fileio.write")
        },
        ("patterns.extract", "cli.run"): 3,
        ("art1.train", "prefetch.sliding"): 2,
        ("art1.train", "cli.sweep"): 6,
        ("prefetch.evaluate", "prefetch.sliding"): 2,
        ("fileio.write", "prefetch.report"): 1,
        ("fileio.write", "art1.snapshot"): 1,
    }


# The acceptance suite and its reference are the one home of the ART1 rules
# and the session boundaries; they are frozen, so any edit must fail here.
FROZEN_SHA256 = {
    "test_acceptance.py": "d8d65531074584e33d17aa6488decb66430c2a97b65016de3716c9743b8b6dd7",
    "reference_art1.py": "fc01fc14f647b0cdb8f42459accd4ca7e42bd50e5d8e3650ea0c2ed7267b08e2",
}


@pytest.mark.parametrize("name", FROZEN_SHA256)
def test_frozen_spec_is_unedited(name):
    data = (Path(__file__).parent / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == FROZEN_SHA256[name]
