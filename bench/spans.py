"""Span tracing of the library's layers, installed from outside the source.

Modules import each other's public functions by name (``from .hardy import
conv_full``), so a layer is wrapped at every module attribute that holds the
original function, in the defining module and in every ``quadszego`` module.
The dense eigensolver is wrapped at ``numpy.linalg``, where the library looks
it up on each call.  Wrapping happens only inside :func:`installed`; the
untraced runs call the library untouched.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the span that
was open when this one started, ``op`` is the benchmark op it ran in.  A
layer's self time is its spans' durations minus the durations of their direct
children, so nested layers (``conserved`` inside ``integrate``,
``conv_full`` inside ``conserved``) are not counted twice.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np
import scipy.fft

from quadszego import hardy


def _conv_cost(a, b) -> tuple[float, float]:
    """Complex MACs and bytes of one ``hardy.conv_full``, computed from sizes.

    Below the library's FFT threshold the product is direct: ``len(a) *
    len(b)`` MACs.  Above it, three transforms of the padded length ``L``
    cost ``L log2 L / 2`` butterflies each, plus ``L`` pointwise products.
    Bytes count the inputs and output once and, on the FFT path, one read and
    one write of each transform.  Cache misses are not modelled.
    """
    from quadszego import hardy

    la, lb = len(a), len(b)
    n = la + lb - 1
    itemsize = np.result_type(a, b).itemsize
    io = itemsize * (la + lb + n)
    if n <= getattr(hardy, "_FFT_CONV_THRESHOLD", 0):
        return float(la * lb), float(io)
    size = scipy.fft.next_fast_len(n)
    return 1.5 * size * math.log2(size) + size, float(io + 6 * itemsize * size)


def _count_conv(tr, args, kwargs, result):
    macs, nbytes = _conv_cost(args[0], args[1])
    tr.add("hardy.conv_full.macs", macs)
    tr.add("hardy.conv_full.bytes", nbytes)
    tr.add("hardy.conv_full.ext_calls", np.finfo(result.dtype).bits > 64)


def _count_integrate(tr, args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    tr.add("dynamics.integrate.steps", int(round(cfg.t_final / cfg.dt)))
    tr.add("dynamics.integrate.snapshots", len(result.times))


def _count_eig(tr, args, kwargs, result):
    tr.peak("operators.eig.max_dim", args[0].shape[0])


def _count_v3(tr, args, kwargs, result):
    tr.add("v3.v3_integrate.steps", len(result.times) - 1)


def _count_steady(tr, args, kwargs, result):
    tr.add("steady.steadiness_measure.ext_calls", result.extended)
    tr.add("steady.steadiness_measure.modes", result.trunc)
    tr.peak("steady.steadiness_measure.max_trunc", result.trunc)


# (span name, defining module, attribute, counter hook)
LAYERS = (
    ("hardy.conv_full", "quadszego.hardy", "conv_full", _count_conv),
    ("hardy.conserved", "quadszego.hardy", "conserved", None),
    ("dynamics.integrate", "quadszego.dynamics", "integrate", _count_integrate),
    ("dynamics.rank_conservation_check", "quadszego.dynamics", "rank_conservation_check", None),
    ("operators.squared_hankel_matrices", "quadszego.operators", "squared_hankel_matrices", None),
    ("operators.eig", "numpy.linalg", "eigvalsh", _count_eig),
    ("operators.eig", "numpy.linalg", "eigh", _count_eig),
    ("operators.spectral_report", "quadszego.operators", "spectral_report", None),
    ("v3.v3_integrate", "quadszego.v3", "v3_integrate", _count_v3),
    ("v3.instability_experiment", "quadszego.v3", "instability_experiment", None),
    ("steady.steadiness_measure", "quadszego.steady", "steadiness_measure", _count_steady),
)

# Per-layer metrics the traced run reports, with units; every name here is
# in BENCHMARK.json's ``per_layer`` list.
METRICS = {
    "hardy.conv_full.calls": "count",
    "hardy.conv_full.self_s": "s",
    "hardy.conv_full.macs": "MAC",
    "hardy.conv_full.bytes": "B",
    "hardy.conv_full.ext_calls": "count",
    "hardy.conserved.calls": "count",
    "hardy.conserved.self_s": "s",
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.snapshots": "count",
    "dynamics.integrate.self_s": "s",
    "dynamics.integrate.errors": "count",
    "dynamics.rank_conservation_check.self_s": "s",
    "operators.squared_hankel_matrices.calls": "count",
    "operators.squared_hankel_matrices.self_s": "s",
    "operators.eig.calls": "count",
    "operators.eig.self_s": "s",
    "operators.eig.max_dim": "count",
    "operators.spectral_report.self_s": "s",
    "v3.v3_integrate.calls": "count",
    "v3.v3_integrate.steps": "count",
    "v3.v3_integrate.self_s": "s",
    "v3.instability_experiment.self_s": "s",
    "steady.steadiness_measure.calls": "count",
    "steady.steadiness_measure.self_s": "s",
    "steady.steadiness_measure.ext_calls": "count",
    "steady.steadiness_measure.max_trunc": "count",
    "steady.steadiness_measure.modes": "count",
    "trace_overhead_frac": "ratio",
}


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._open: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, name: str, fn, hook):
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.add(f"{name}.errors", 1)
                raise
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            self.add(f"{name}.calls", 1)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out


@contextmanager
def installed(tracer: Tracer):
    """Route every layer in :data:`LAYERS` through ``tracer`` while open."""
    undo = []
    try:
        for name, modname, attr, hook in LAYERS:
            home = importlib.import_module(modname)
            original = getattr(home, attr, None)
            if original is None:
                print(f"trace: {modname}.{attr} not found; {name} reads 0", file=sys.stderr)
                continue
            wrapped = tracer.wrap(name, original, hook)
            lookups = [home] + [m for key, m in sys.modules.items() if key.split(".")[0] == "quadszego"]
            for mod in lookups:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)
