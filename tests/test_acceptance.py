"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criterion 8 is asserted exactly as stated and is expected to fail on its
exit clause: the closed-form evolution law confines the perturbed orbit to
an energy level curve whose oscillation band (half-width ~0.215*gamma at
r = 1/4, i.e. 2.2e-3 at gamma = 1e-2) lies strictly inside the prescribed
exit ball.  The failure is deliberate and documented; the band value and the
vanishing y-linear fit in the reported details carry the evidence.
"""

import itertools
import time

import numpy as np
import pytest

from quadszego import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda f: f.__name__)
def test_criterion(criterion):
    result = criterion(quick=False)
    print(result.line())
    detail = ", ".join(f"{k}={v}" for k, v in result.details.items())
    assert result.passed, f"{result.name} failed: {detail}"


@pytest.mark.parametrize(
    "criterion, gate",
    [
        (acceptance.criterion_1_traveling_wave_certification, 10.0),
        (acceptance.criterion_2_exact_orbit, 30.0),
        (acceptance.criterion_3_conservation, 60.0),
        (acceptance.criterion_7_gagliardo_nirenberg, 20.0),
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_wall_clock_gate_recorded_and_printed(criterion, gate):
    result = criterion(quick=True)
    assert result.gate == gate
    assert result.line().endswith(f"({result.runtime:.1f} s of {gate:g} s)")


def test_runtime_at_gate_fails():
    assert acceptance.CheckResult("x", True, 0.84, gate=30.0).line() == "PASS  x  (0.8 s of 30 s)"
    late = acceptance.CheckResult("x", True, 30.0, gate=30.0)
    assert not late.passed and late.line() == "FAIL  x  (30.0 s of 30 s)"
    assert acceptance.CheckResult("x", True, 99.0).line() == "PASS  x  (99.0 s)"


def test_gate_reads_a_monotonic_clock(monkeypatch):
    # a wall clock that steps 100 s per read must not move a criterion's runtime
    ticks = itertools.count(0.0, 100.0)
    monkeypatch.setattr(time, "time", lambda: next(ticks))
    result = acceptance.criterion_1_traveling_wave_certification(quick=True)
    assert result.passed and result.runtime < 10.0, result.line()


def test_criterion_6_decomposes_each_profile_once(monkeypatch):
    # one singular-vector decomposition of K per profile, N = 1, 2, 3
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    assert acceptance.criterion_6_profile_eigenstructure(quick=False).passed
    assert calls == [(512, 512)] * 3
