#!/usr/bin/env python3
"""Benchmark of the quadszego certificates.

Run from the root of a checkout:

    python3 bench/run.py --workload flow --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload is a single-process closed loop: one op after another, with
BLAS on one thread.  The run sets up (import, seeded inputs, warm-up), then
repeats the workload's batch of certificates until ``--seconds`` would be
exceeded, checking every op against its correctness gate.  Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of :mod:`spans` with
``--trace 1``.  The exit code is 1 when a gate failed.
See ``bench/README.md`` for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_START = time.perf_counter()  # set-up time counts from here, before numpy loads
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
WORKLOAD_NAMES = ("flow", "monitor", "steady")
SETUP_SAMPLES = 3
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def _limit_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    Each workload is one closed loop on one core.  On a shared host a second
    BLAS thread mostly waits for the scheduler: with two threads on 2 vCPUs
    `flow` ran about 10 % faster at best and spread more from run to run.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_library() -> None:
    """Put the checkout's ``src`` first on the path; never an installed copy."""
    if not (SRC / "quadszego" / "__init__.py").is_file():
        sys.exit(f"bench: no quadszego sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import quadszego

    if Path(quadszego.__file__).resolve().parent != SRC / "quadszego":
        sys.exit(f"bench: imported quadszego from {quadszego.__file__}, not from {SRC}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def env_stamp(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "float128": hasattr(np, "float128"),
        "seed": seed,
        "commit": _commit(),
    }


def set_up(name: str, seed: int, tiny: bool = False):
    """Seeded inputs plus one warm-up; returns ``(workload, inputs)``."""
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.make_inputs(np.random.default_rng(seed), tiny)
    workload.warm_up(inputs)
    return workload, inputs


class Tally:
    """Ops attempted and failed, and the wall time of each op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_times: list[float] = []


def run_pass(workload, inputs, tally: Tally, tracer=None) -> float:
    """One batch of certificates; returns its wall time in seconds."""
    start = time.perf_counter()
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = tally.attempted
        t0 = time.perf_counter()
        try:
            ok = workload.run_op(inp)
        except Exception:  # a raising op is a failed certificate, not a crash
            traceback.print_exc()
            ok = False
        tally.op_times.append(time.perf_counter() - t0)
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            print(f"{workload.name} op {i}: correctness gate failed", file=sys.stderr)
    return time.perf_counter() - start


def _fresh_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh process: import, input generation and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, check=True, timeout=170, stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1])


def measure(workload, inputs, seconds: float, tally: Tally) -> list[float]:
    """Untraced passes until the next one would end after ``seconds``."""
    deadline = time.perf_counter() + seconds
    walls = [run_pass(workload, inputs, tally)]
    while time.perf_counter() + statistics.median(walls) <= deadline:
        walls.append(run_pass(workload, inputs, tally))
    return walls


def measure_traced(workload, inputs, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of :mod:`spans`.

    Counts come from the first traced pass (every pass runs the same inputs),
    self times are medians over traced passes.
    """
    from spans import METRICS, Tracer, installed

    deadline = time.perf_counter() + seconds
    plain, traced, selfs, counts = [], [], [], None
    while not plain or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(run_pass(workload, inputs, tally))
        tracer = Tracer()
        with installed(tracer):
            traced.append(run_pass(workload, inputs, tally, tracer))
        selfs.append(tracer.self_times())
        counts = dict(tracer.counts) if counts is None else counts
    wall = statistics.median(traced)
    metrics = {}
    for name, unit in METRICS.items():
        layer, _, field = name.rpartition(".")
        if name == "trace_overhead_frac":
            value = wall / statistics.median(plain)
        elif field == "self_s":
            value = statistics.median(s.get(layer, 0.0) for s in selfs)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    print(f"{workload.name}: {len(traced)} traced passes, median {wall:.4f} s; self-time shares:")
    for name, m in metrics.items():
        if name.endswith(".self_s") and m["value"] > 0:
            print(f"  {name[: -len('.self_s')]:36s} {m['value']:10.4f} s  {100 * m['value'] / wall:5.1f} %")
    return metrics


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")


def run_workload(args) -> int:
    _limit_blas_threads()
    _import_library()
    workload, inputs = set_up(args.workload, args.seed)
    setup = [time.perf_counter() - _START]
    if args.setup_only:
        print(setup[0])
        return 0
    print("env " + json.dumps(env_stamp(args.seed)))
    if not args.trace:
        setup += [_fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    tally = Tally()
    if args.trace:
        metrics = measure_traced(workload, inputs, args.seconds, tally)
        notes = {}
    else:
        walls = measure(workload, inputs, args.seconds, tally)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(tally.op_times),
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        notes = {
            "setup_s": f"median of {len(setup)} set-ups, each in a fresh process",
            "wall_s": f"median of {len(walls)} passes of {len(inputs)} ops",
            "op_p50_s": f"median of {len(tally.op_times)} ops",
            "peak_rss_mb": "peak resident set of this process",
        }
    print(f"{args.workload}:")
    _print_metrics(metrics, notes)
    print(f"  {'fail_frac':40s} {tally.failed / tally.attempted:>14.6g} {'1':6s} {tally.failed} of {tally.attempted} ops")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=600).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
