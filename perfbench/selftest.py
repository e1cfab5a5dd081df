"""Self-test of the benchmark's own logic; needs no package and no trace.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

from outputs import OutputError, check_outputs, fingerprint
from spans import Recorder, Span, check_spans, self_times
from traced import layer_metrics
from workloads import LAYER_MAP, WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    """Advances by one second per reading, so every duration is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class SpanTest(unittest.TestCase):
    def record(self):
        recorder = Recorder(FakeClock())

        def leaf(x):
            return x

        def failing():
            raise KeyError("boom")

        wrapped_leaf = recorder.wrap("b.leaf", leaf)
        wrapped_failing = recorder.wrap(
            "b.fail", failing, lambda span, a, k, r, e: span.counts.update(error=type(e).__name__)
        )

        def middle():
            wrapped_leaf(1)
            try:
                wrapped_failing()
            except KeyError:
                pass
            return wrapped_leaf(2)

        wrapped_middle = recorder.wrap("a.middle", middle)
        root = recorder.wrap("a.root", lambda: [wrapped_middle(), wrapped_leaf(3)])
        self.assertEqual(root(), [2, 3])
        return recorder.spans

    def test_nesting_follows_the_call_tree(self):
        spans = self.record()
        names = [(s.name, None if s.parent is None else spans[s.parent].name) for s in spans]
        self.assertEqual(
            names,
            [
                ("a.root", None),
                ("a.middle", "a.root"),
                ("b.leaf", "a.middle"),
                ("b.fail", "a.middle"),
                ("b.leaf", "a.middle"),
                ("b.leaf", "a.root"),
            ],
        )
        self.assertEqual(spans[3].counts, {"error": "KeyError"})
        check_spans(spans)

    def test_self_times_add_up_to_the_root(self):
        spans = self.record()
        # Clock readings: root 1..12, middle 2..9, then 3..4, 5..6 (the
        # failing call) and 7..8 inside it, last leaf 10..11.
        self.assertEqual([s.duration for s in spans], [11, 7, 1, 1, 1, 1])
        self.assertEqual(self_times(spans), [3, 4, 1, 1, 1, 1])
        self.assertEqual(sum(self_times(spans)), spans[0].duration)

    def test_broken_spans_are_rejected(self):
        outside = [Span("root", None, 0.0, 10.0), Span("child", 0, 5.0, 11.0)]
        with self.assertRaisesRegex(ValueError, "outside its parent"):
            check_spans(outside)
        overlapping = [
            Span("root", None, 0.0, 10.0),
            Span("a", 0, 1.0, 8.0),
            Span("b", 0, 2.0, 9.0),
        ]
        with self.assertRaisesRegex(ValueError, "negative self time"):
            check_spans(overlapping)
        with self.assertRaisesRegex(ValueError, "one root"):
            check_spans([Span("a", None, 0.0, 1.0), Span("b", None, 1.0, 2.0)])


class LayerMetricsTest(unittest.TestCase):
    def test_layers_from_spans(self):
        def train(parent, start, patterns, clusters, resets, vigilance_key):
            return Span("art1.train", parent, start, start + 1.0, {
                "patterns": patterns, "epochs": 2, "converged": 1,
                "clusters": clusters, "resets": resets, "repeat": vigilance_key,
            })

        spans = [
            Span("cli.main", None, 0.0, 20.0),
            Span("cli.run", 0, 0.5, 19.5),
            Span("logs.parse", 1, 1.0, 3.0, {"records": 100}),
            Span("logs.segment", 1, 3.0, 4.0, {"sessions": 10}),
            Span("patterns.extract", 1, 4.0, 5.0,
                 {"sessions": 10, "kept": 8, "dropped": 2, "bits": 24, "cluster_input": 1}),
            Span("prefetch.sliding", 1, 5.0, 10.0),
            Span("patterns.extract", 5, 5.5, 6.0, {"sessions": 5}),
            train(5, 6.0, 5, 2, 4, 0),
            Span("prefetch.evaluate", 5, 7.5, 8.0, {"prefetched": 4, "hits": 3}),
            Span("cli.sweep", 1, 10.0, 13.0, {"points": 2, "failed": 0}),
            train(9, 10.5, 8, 3, 12, 0),
            train(9, 11.5, 8, 4, 0, 0),
            train(1, 14.0, 8, 3, 12, 1),
            Span("fileio.write", 1, 16.0, 16.5, {"bytes": 7}),
        ]
        check_spans(spans)
        m = layer_metrics(spans)
        self.assertEqual(m["logs.parse_s"], 2.0)
        self.assertEqual(m["patterns.extract_s"], 1.5)
        self.assertEqual(m["patterns.sessions_extracted"], 15)
        self.assertEqual(m["patterns.reextract_ratio"], 1.5)
        self.assertEqual((m["patterns.kept"], m["patterns.dropped"]), (8, 2))
        self.assertEqual(m["patterns.bits_per_pattern"], 3.0)
        self.assertEqual(m["art1.train_calls"], 4)
        self.assertEqual(m["art1.train_s"], 4.0)
        self.assertEqual(m["art1.presentations"], 2 * (5 + 8 + 8 + 8))
        self.assertEqual(m["art1.clusters"], 3)
        self.assertEqual(m["art1.reset_ratio"], 28 / (5 * 2 + 8 * 3 + 8 * 4 + 8 * 3))
        self.assertEqual(m["prefetch.sliding_s"], 5.0)
        self.assertEqual(m["prefetch.sliding_self_s"], 5.0 - 0.5 - 1.0 - 0.5)
        self.assertEqual(m["prefetch.hit_ratio"], 0.75)
        self.assertEqual(m["cli.sweep_s"], 3.0)
        self.assertEqual(m["cli.final_train_s"], 1.0)
        self.assertEqual(m["cli.repeat_trainings"], 1)
        self.assertEqual((m["fileio.files"], m["fileio.bytes_written"]), (1, 7))
        layer_self = sum(v for k, v in m.items() if k.endswith("_s") and k not in (
            "prefetch.sliding_s", "cli.sweep_s", "cli.final_train_s"))
        self.assertEqual(layer_self, spans[0].duration)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        per_layer = {m["name"] for m in spec["per_layer"]}
        measured = set(layer_metrics([Span("cli.main", None, 0.0, 1.0)]))
        self.assertEqual(per_layer, measured | {"logs.peak_alloc_mb", "trace.overhead_ratio"})
        mapped = set(" ".join(row[0] for row in LAYER_MAP).split())
        self.assertEqual(per_layer - mapped, {"trace.overhead_ratio"})
        self.assertLessEqual(mapped, per_layer)


SNAPSHOT = (
    "3 4 0.40000000000000002 2\n"
    "110\n0.40000000000000002 0.40000000000000002 0\n"
    "001\n0 0 0.66666666666666663\n"
)


class OutputTest(unittest.TestCase):
    def write_outputs(self, root: Path) -> Path:
        root.mkdir()
        (root / "metrics.csv").write_text(
            "window,cluster,members,prefetched,hits,accuracy\n0,0,3,4,3,0.7500\n0,1,1,0,0,0.0000\n"
        )
        (root / "cluster_counts.csv").write_text("vigilance,clusters\n0.4,2\n0.5,3\n")
        (root / "network.snapshot").write_text(SNAPSHOT)
        return root

    def test_fingerprint_detects_any_changed_byte(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = self.write_outputs(Path(tmp) / "a")
            b = self.write_outputs(Path(tmp) / "b")
            self.assertEqual(fingerprint(a), fingerprint(b))
            (b / "metrics.csv").write_text((b / "metrics.csv").read_text().replace("0,1,1", "0,1,2"))
            self.assertNotEqual(fingerprint(a), fingerprint(b))
            (b / "network.snapshot").unlink()
            with self.assertRaisesRegex(OutputError, "missing"):
                fingerprint(b)

    def test_consistent_outputs_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = self.write_outputs(Path(tmp) / "out")
            digest, accuracy = check_outputs(out, 0.4, [0.4, 0.5])
            self.assertEqual(digest, fingerprint(out))
            self.assertEqual(accuracy, (3 * 0.75 + 1 * 0.0) / 4)

    def test_inconsistent_outputs_are_rejected(self):
        cases = [
            ("network.snapshot", SNAPSHOT.replace("0 0 0.666", "0 0.666"), "malformed"),
            ("network.snapshot", SNAPSHOT.replace("0.66666666666666663", "0.5"), "weight"),
            ("cluster_counts.csv", "vigilance,clusters\n0.4,3\n0.5,3\n", "sweep point"),
            ("cluster_counts.csv", "vigilance,clusters\n0.4,2\n", "covers"),
            ("metrics.csv", "window,cluster,members,prefetched,hits,accuracy\n0,0,3,4,3,0.7400\n", "accuracy"),
            ("metrics.csv", "window,cluster,members,prefetched,hits,accuracy\n0,0,3,4,5,1.2500\n", "hits"),
        ]
        for name, text, message in cases:
            with self.subTest(name=name, message=message), tempfile.TemporaryDirectory() as tmp:
                out = self.write_outputs(Path(tmp) / "out")
                (out / name).write_text(text)
                with self.assertRaisesRegex(OutputError, message):
                    check_outputs(out, 0.4, [0.4, 0.5])


if __name__ == "__main__":
    unittest.main()
