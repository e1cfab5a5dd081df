"""Write one workload's replay trace from a seed.

Run as a child of the benchmark, with the package on PYTHONPATH, so the
benchmark process itself never holds a large trace in memory:

    python3 perfbench/gen.py <workload> <seed> <trace path>

Prints one JSON object with the trace's line count and the seconds spent
in `workload.generate`.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import time

from workloads import WORKLOADS

from vodprefetch.workload import WorkloadConfig, generate, write_trace_log

REWRITTEN_STATUSES = (206, 304, 404)


def rewrite_statuses(records, share: float, seed: int):
    """Give a seeded `share` of the records a status the pipeline filters out."""
    rng = random.Random(f"status-{seed}")
    return [
        dataclasses.replace(record, status_code=rng.choice(REWRITTEN_STATUSES))
        if rng.random() < share
        else record
        for record in records
    ]


def main(argv: list[str]) -> int:
    name, seed, path = argv[0], int(argv[1]), argv[2]
    workload = WORKLOADS[name]
    start = time.perf_counter()
    records, _ = generate(WorkloadConfig(seed=seed, **workload.generator))
    generate_s = time.perf_counter() - start
    if workload.status_rewrite:
        records = rewrite_statuses(records, workload.status_rewrite, seed)
    write_trace_log(records, path)
    print(json.dumps({"lines": len(records), "generate_s": generate_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
