#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:  python3 bench/smoke.py

For every workload it runs one traced pass at tiny sizes on two seeds and
checks that no gate fails and that the seed leaves the work unchanged: the
``calls``, ``steps`` and ``snapshots`` counts must be identical.  It also
checks that BENCHMARK.json names exactly the workloads and metrics that
``run.py`` reports.  Exits 1 with one line per problem.
"""

from __future__ import annotations

import json
import sys

import run


def _seed_problems(name: str, work_keys: list[str]) -> list[str]:
    from spans import Tracer, installed

    problems, seen = [], []
    for seed in (1, 2):
        workload, inputs = run.set_up(name, seed, tiny=True)
        tally, tracer = run.Tally(), Tracer()
        with installed(tracer):
            run.run_pass(workload, inputs, tally, tracer)
        if tally.failed:
            problems.append(f"{name} seed {seed}: {tally.failed} of {tally.attempted} ops failed")
        seen.append({key: tracer.counts.get(key, 0) for key in work_keys})
        print(f"{name} seed {seed}: " + ", ".join(f"{k}={v:g}" for k, v in seen[-1].items() if v))
    if seen[0] != seen[1]:
        diff = {k: (seen[0][k], seen[1][k]) for k in work_keys if seen[0][k] != seen[1][k]}
        problems.append(f"{name}: work depends on the seed: {diff}")
    return problems


def _spec_problems() -> list[str]:
    from spans import METRICS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, expected in (("end_to_end", run.END_TO_END), ("per_layer", METRICS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != expected:
            problems.append(f"BENCHMARK.json {key} {listed} differs from the reported {expected}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append(f"BENCHMARK.json workloads differ from {run.WORKLOAD_NAMES}")
    return problems


def main() -> int:
    run._limit_blas_threads()
    run._import_library()
    from spans import METRICS

    work_keys = [k for k in METRICS if k.rpartition(".")[2] in ("calls", "steps", "snapshots")]
    problems = _spec_problems()
    for name in run.WORKLOAD_NAMES:
        problems += _seed_problems(name, work_keys)
    for line in problems:
        print("FAIL " + line)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
