"""Benchmark of the vodprefetch pipeline, end to end and per layer.

    python3 perfbench/run.py --workload sweep-heavy --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --json results.json

For one workload it writes the seeded replay trace (set-up, untimed), then
for `--seconds` seconds runs `vodprefetch --input <trace> ...` as a fresh
child process per run, one at a time, and checks every run's outputs.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: wall and
CPU time and peak RSS of a run (from `os.wait4`), the set-up time of a
fresh interpreter that imports the CLI and validates the workload's
config, and the prefetch accuracy recomputed from `metrics.csv`.

The speed of a shared machine can change by half or more for minutes at
a time, which would swamp any bound on raw times. So a fixed
pure-Python calibration program (an arithmetic loop, then building and
reading a large dict) runs as its own child between pipeline runs, and
each sample of `run_s`, `cpu_s` and `setup_s` is scaled towards a
machine on which that program takes CALIBRATION_REFERENCE_S seconds, by
the ratio of that time to the mean of the two calibrations that bracket
it, raised to CALIBRATION_ELASTICITY. The raw times and
the calibration times are printed next to them as `raw.*` and
`calibration_s`.

`--trace 1` alternates untraced runs with traced runs (see traced.py) and
reports the per-layer metrics of BENCHMARK.json: self times and counts per
module, the tracemalloc peak of ingest, and the tracing overhead.

Every metric is printed with its unit, median, quartiles and sample count;
the last line of standard output is one JSON object with the medians.
`--workload all` runs both modes on every workload and writes the full
statistics to `--json`, the file later changes are compared against.

On the default seed each run's output fingerprint must equal the one in
reference.json; on any other seed every run must reproduce the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from outputs import OutputError, check_outputs
from spans import check_spans, from_rows
from traced import layer_metrics
from workloads import DEFAULT_SEED, LAYER_MAP, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

# One invocation must end within 180 s; no run starts that could pass this.
BUDGET_S = 160.0
SETUP_PROBES_PER_RUN = 3
MIN_RUNS = 2

# Independent of the package, so no change to it can speed this up. An
# arithmetic loop alone misses how much more a busy host slows code that
# allocates and walks many objects, as parsing and the pattern lists do; a
# second part that builds and reads a dict of 300k tuples catches that.
CALIBRATION = (
    "s = 0\n"
    "for i in range(2_000_000):\n"
    "    s += i * i % 7\n"
    "rows = [(str(i), i * 7 % 1000, 'GET /v/%d HTTP/1.1' % (i % 5000)) for i in range(300_000)]\n"
    "d = {r[0]: r for r in rows}\n"
    "s += sum(len(r[2]) for r in d.values())\n"
)
# Roughly the calibration's time on a 2.1 GHz Xeon vCPU with Python 3.11,
# so that normalized times read close to seconds on such a machine.
CALIBRATION_REFERENCE_S = 0.6
# A busy host slows the calibration more than the pipeline: on a 2-vCPU
# VM, between quiet and busy spells, a run's time grew as about the 0.6th
# to 0.8th power of the calibration's. Scaling by the full ratio would
# read higher in a quiet spell than in a busy one.
CALIBRATION_ELASTICITY = 0.7

CLI_ENTRY = "import sys; from vodprefetch.cli import main; sys.exit(main())"
# Everything `vodprefetch` does before the pipeline: import, parse the
# flags, assemble and validate the config.
SETUP_ENTRY = (
    "import sys; import vodprefetch.cli as cli; "
    "cli.run = lambda config: 0; sys.exit(cli.main())"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Child:
    exit: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool = False


@dataclass
class Outcome:
    """Samples and verdicts of one workload in one mode."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], work: Path, timeout: float) -> Child:
    """Run `python3 <argv>` to completion; times come from os.wait4.

    Standard output and error go to stdout.txt and stderr.txt in `work`.
    A child still running after `timeout` seconds is killed.
    """
    # The package is standard-library only: -S keeps the host's site hooks
    # out of the timings, and a fixed hash seed keeps set and dict layouts
    # the same from run to run.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-S", *argv], env=env, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Bench:
    """One workload on one seed, in a private work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.trace = work / "trace.log"
        self.out = work / "out"
        # On the default seed the outputs must match the recorded ones;
        # on any other seed, the first checked run's.
        self.expected: dict = {}
        if seed == DEFAULT_SEED:
            self.expected = json.loads(REFERENCE.read_text())["workloads"][workload.name]
        self.reference: str | None = self.expected.get("fingerprint")

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def stderr_tail(self) -> str:
        lines = (self.work / "stderr.txt").read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def spawn(self, argv: list[str]) -> Child:
        return spawn(argv, self.work, self.remaining())

    def generate(self) -> dict:
        """Write the trace; returns its line count and generate_s."""
        child = self.spawn([str(BENCH_DIR / "gen.py"), self.workload.name, str(self.seed), str(self.trace)])
        if child.exit != 0:
            raise BenchError(f"trace generation exited {child.exit}: {self.stderr_tail()}")
        info = json.loads((self.work / "stdout.txt").read_text())
        if self.expected and info["lines"] != self.expected["trace_lines"]:
            raise BenchError(f"trace has {info['lines']} lines, reference.json expects {self.expected['trace_lines']}")
        return info

    def calibrate(self) -> Child:
        child = self.spawn(["-c", CALIBRATION])
        if child.exit != 0:
            raise BenchError(f"calibration exited {child.exit}: {self.stderr_tail()}")
        return child

    def setup_probe(self) -> float:
        child = self.spawn(["-c", SETUP_ENTRY, *self.workload.argv(str(self.trace), str(self.out))])
        if child.exit != 0:
            raise BenchError(f"set-up probe exited {child.exit}: {self.stderr_tail()}")
        return child.wall_s

    def pipeline(self, outcome: Outcome, kind: str, prefix: list[str]) -> Child:
        """One pipeline run in a fresh output directory, counted and checked."""
        shutil.rmtree(self.out, ignore_errors=True)
        child = self.spawn([*prefix, *self.workload.argv(str(self.trace), str(self.out))])
        outcome.attempted += 1
        if child.exit != 0:
            outcome.failed += 1
            outcome.problem(f"{kind} run exited {child.exit}: {self.stderr_tail()}")
            return child
        try:
            digest, accuracy = check_outputs(self.out, self.workload.vigilance, list(self.workload.sweep))
        except (OutputError, OSError, ValueError) as exc:
            outcome.failed += 1
            outcome.problem(f"{kind} run outputs are wrong: {exc}")
            return child
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            outcome.failed += 1
            outcome.problem(f"{kind} run fingerprint {digest[:16]} differs from {self.reference[:16]}")
            return child
        outcome.add("prefetch_accuracy", accuracy)
        child.ok = True
        return child

    def untraced(self, outcome: Outcome) -> Child:
        return self.pipeline(outcome, "untraced", ["-c", CLI_ENTRY])

    def traced(self, outcome: Outcome, mode: str) -> tuple[Child, dict | None]:
        result = self.work / "traced.json"
        result.unlink(missing_ok=True)
        child = self.pipeline(outcome, f"traced ({mode})", [str(BENCH_DIR / "traced.py"), mode, str(result)])
        return child, json.loads(result.read_text()) if child.ok else None


def timed_loop(bench: Bench, seconds: float, step) -> None:
    """Call `step()` until the next call would overrun `seconds`.

    `step` returns the wall seconds it took. At least MIN_RUNS calls are
    made, unless one more would overrun the invocation's budget.
    """
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        durations.append(step())
        typical = statistics.median(durations)
        if typical > bench.remaining():
            return
        if len(durations) >= MIN_RUNS and time.perf_counter() - start + typical > seconds:
            return


def measure_end_to_end(bench: Bench, seconds: float) -> Outcome:
    """Pipeline runs, each followed by set-up probes and a calibration.

    Spreading the probes over the whole measurement, instead of taking
    them in one burst, keeps their median from depending on how fast the
    machine happened to be during one second of it.
    """
    outcome = Outcome()
    bench.setup_probe()  # writes the bytecode cache, which users pay for once
    calibrations = [bench.calibrate()]

    def step() -> float:
        start = time.perf_counter()
        child = bench.untraced(outcome)
        setups = [bench.setup_probe() for _ in range(SETUP_PROBES_PER_RUN)]
        calibrations.append(bench.calibrate())
        around = calibrations[-2:]
        wall_scale = (CALIBRATION_REFERENCE_S / statistics.mean(c.wall_s for c in around)) ** CALIBRATION_ELASTICITY
        cpu_scale = (CALIBRATION_REFERENCE_S / statistics.mean(c.cpu_s for c in around)) ** CALIBRATION_ELASTICITY
        outcome.add("calibration_s", calibrations[-1].wall_s)
        if child.ok:
            outcome.add("run_s", child.wall_s * wall_scale)
            outcome.add("cpu_s", child.cpu_s * cpu_scale)
            outcome.add("peak_rss_mb", child.peak_rss_mb)
            outcome.add("raw.run_s", child.wall_s)
            outcome.add("raw.cpu_s", child.cpu_s)
        for setup in setups:
            outcome.add("setup_s", setup * wall_scale)
            outcome.add("raw.setup_s", setup)
        return time.perf_counter() - start

    timed_loop(bench, seconds, step)
    return outcome


def measure_layers(bench: Bench, seconds: float) -> Outcome:
    outcome = Outcome()
    _, memory = bench.traced(outcome, "memory")
    if memory is not None:
        outcome.add("logs.peak_alloc_mb", memory["peak_alloc_mb"])
    untraced_walls: list[float] = []
    traced_walls: list[float] = []

    def step() -> float:
        plain = bench.untraced(outcome)
        if plain.ok:
            untraced_walls.append(plain.wall_s)
        child, data = bench.traced(outcome, "spans")
        if data is None:
            return plain.wall_s + child.wall_s
        traced_walls.append(child.wall_s)
        spans = from_rows(data["spans"])
        try:
            check_spans(spans)
        except ValueError as exc:
            outcome.problem(f"span check failed: {exc}")
        for name, value in layer_metrics(spans).items():
            outcome.add(name, value)
        return plain.wall_s + child.wall_s

    timed_loop(bench, seconds, step)
    if untraced_walls and traced_walls:
        outcome.add("trace.overhead_ratio", statistics.median(traced_walls) / statistics.median(untraced_walls))
    return outcome


def summarize(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metric_specs(kind: str) -> list[dict]:
    """The `end_to_end` or `per_layer` metric list of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def report(name: str, mode: str, outcome: Outcome, specs: list[dict], info: dict) -> dict:
    """Print one workload's metrics as a table; return their statistics.

    In the traced mode every metric that is not a time is a count of a
    deterministic pipeline and must repeat exactly.
    """
    stats = {}
    for spec in specs:
        values = outcome.samples.get(spec["name"])
        if not values:
            outcome.problem(f"metric {spec['name']} was not measured")
            continue
        if mode == "traced" and spec["unit"] != "s" and len(set(values)) > 1:
            outcome.problem(f"{spec['name']} differs between traced runs: {sorted(set(values))}")
        stats[spec["name"]] = dict(summarize(values), unit=spec["unit"])
    # The rest are calibration and raw times, and in the traced mode the
    # prefetch accuracy of the runs.
    units = {spec["name"]: spec["unit"] for spec in metric_specs("end_to_end")}
    for extra in sorted(set(outcome.samples) - {spec["name"] for spec in specs}):
        stats[extra] = dict(summarize(outcome.samples[extra]), unit=units.get(extra, "s"))
    fail_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"== {name} ({mode}) seed {info['seed']}: {info['lines']} trace lines, "
          f"workload.generate_s {info['generate_s']:.4f}, runs {outcome.attempted}, "
          f"fail_ratio {fail_ratio:g}")
    print(f"   {'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for metric, s in stats.items():
        print(f"   {metric:<30} {s['unit']:<6} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>4}")
    for problem in outcome.problems:
        print(f"   PROBLEM: {problem}")
    return {
        "metrics": stats,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_ratio": fail_ratio,
        "problems": outcome.problems,
        **info,
    }


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    specs = metric_specs("per_layer" if traced else "end_to_end")
    work = BENCH_DIR / ".work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work)
        info = dict(bench.generate(), seed=seed)
        outcome = measure_layers(bench, seconds) if traced else measure_end_to_end(bench, seconds)
        info["fingerprint"] = bench.reference
        return report(workload.name, "traced" if traced else "untraced", outcome, specs, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only once no other invocation still uses it
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="with --workload all: write every statistic here")
    args = parser.parse_args(argv)

    # Turn a termination request into SystemExit, so a running child is
    # killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "vodprefetch" / "cli.py").is_file():
        print(f"error: no vodprefetch sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            results = {
                name: {
                    mode: run_workload(workload, args.seed, args.seconds, mode == "per_layer")
                    for mode in ("end_to_end", "per_layer")
                }
                for name, workload in WORKLOADS.items()
            }
            if args.json:
                host = {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()}
                document = {"workloads": results, "layer_map": LAYER_MAP, "host": host}
                Path(args.json).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
            correct = all(not r["problems"] for modes in results.values() for r in modes.values())
            return 0 if correct else 1
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = result["metrics"]
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]]["median"], "unit": spec["unit"]}
            for spec in metric_specs("per_layer" if args.trace else "end_to_end")
            if spec["name"] in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
