"""Package surface: lazily resolved names, the immutable value types and README's example."""

from __future__ import annotations

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import vodprefetch
from vodprefetch.art1 import Art1Config, Assignment
from vodprefetch.cli import SweepPoint
from vodprefetch.logs import AccessEvent, Session
from vodprefetch.patterns import BaseVector, PatternVector
from vodprefetch.prefetch import CacheMetrics, EvaluationResult


@pytest.mark.parametrize("name", vodprefetch.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(vodprefetch, name) is not None


def test_logs_still_exports_log_record():
    from vodprefetch.logs import LogRecord
    from vodprefetch.workload import LogRecord as produced

    assert LogRecord is produced is vodprefetch.LogRecord


@pytest.mark.parametrize("module", ["vodprefetch", "vodprefetch.logs"])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(module), "no_such_name")


EVENT = AccessEvent("c1", 5, "v1")

VALUES = [
    Art1Config(4, 0.5, 3),
    Assignment((0,), ((),), True, 1),
    EVENT,
    Session("c1", 5, 5, (EVENT,)),
    BaseVector.from_urls(["v1", "v2"]),
    PatternVector("c1", (1, 0)),
    CacheMetrics(0, 1, 2, 1, 0.5),
    EvaluationResult((), ()),
    SweepPoint(0.5, 1),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_types_reject_attribute_assignment(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1


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
    ],
)
def test_art1_config_error_texts(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Art1Config(**kwargs)


def test_art1_config_keeps_its_defaults_and_name():
    config = Art1Config(input_dim=4, vigilance=0.5, max_clusters=3)
    assert config.max_epochs == 10
    assert repr(config) == "Art1Config(input_dim=4, vigilance=0.5, max_clusters=3, max_epochs=10)"


def test_cache_metrics_error_text():
    with pytest.raises(ValueError, match=r"^hits 3 outside \[0, prefetched 2\]$"):
        CacheMetrics(0, 1, 2, 3, 1.5)


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
        vodprefetch.LogRecord(*args)


def test_log_record_stays_a_dataclass_for_replace():
    record = vodprefetch.LogRecord("c1", "u1", 1, "v1", 200, 10)
    changed = dataclasses.replace(record, status_code=404)
    assert changed == vodprefetch.LogRecord("c1", "u1", 1, "v1", 404, 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        changed.status_code = 200


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert match, "README has no Library use python block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "0.9897686460629135\n"
