"""The in-package DOP853 against ``scipy.integrate.DOP853``, bit for bit."""

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients as ref

from quadszego import _dop853
from quadszego._dop853 import Dop853
from quadszego.dynamics import SimulationConfig, integrate
from quadszego.hardy import HardyCoefficients
from quadszego.v3 import V3State, v3_integrate
from quadszego.waves import TravelingWaveSpec, build_profile


class ScipyDop853:
    """scipy's solver behind the in-package interface: the reference."""

    def __init__(self, fun, y0, t_bound, rtol, atol):
        self.solver = DOP853(fun, 0.0, y0, t_bound, rtol=rtol, atol=atol)

    def step(self) -> bool:
        self.solver.step()
        return self.solver.status != "failed"

    def dense_output(self, t):
        return self.solver.dense_output()(t)

    finished = property(lambda self: self.solver.status == "finished")
    t = property(lambda self: self.solver.t)
    y = property(lambda self: self.solver.y)
    f = property(lambda self: self.solver.f)
    nfev = property(lambda self: self.solver.nfev)


def _both(monkeypatch, run):
    """``run()`` on the in-package solver, then on scipy's."""
    ours = run()
    monkeypatch.setattr(_dop853, "Dop853", ScipyDop853)
    return ours, run()


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_record(ours, scipys):
    assert (ours.steps, ours.nfev) == (scipys.steps, scipys.nfev)
    assert _same(ours.times, scipys.times)
    assert all(_same(a.coeffs, b.coeffs) for a, b in zip(ours.states, scipys.states, strict=True))


def test_tableau_is_scipys_bit_for_bit():
    assert _same(_dop853.C, ref.C)
    assert _same(_dop853.A, ref.A)
    assert _same(_dop853.B, ref.B)
    assert _same(_dop853.E3, ref.E3)
    assert _same(_dop853.E5, ref.E5)
    assert _same(_dop853.D, ref.D)
    assert len(_dop853.B) == ref.N_STAGES and len(_dop853.C) == ref.N_STAGES_EXTENDED
    assert 3 + len(_dop853.D) == ref.INTERPOLATOR_POWER


@pytest.mark.parametrize("family", ["I", "II"])
@pytest.mark.parametrize("sign", [1, -1], ids=["forward", "backward"])
def test_traveling_waves_match_scipy(monkeypatch, family, sign):
    # snapshots on step ends and off them (dense output) alike
    u0 = build_profile(TravelingWaveSpec(family, 1.0, 0.5, 1), 64)
    cfg = SimulationConfig(dt=sign * 1e-3, t_final=sign * 0.3, trunc=64, monitor_stride=7)
    ours, scipys = _both(monkeypatch, lambda: integrate(u0, cfg))
    assert len(ours.times) == 44
    _assert_same_record(ours, scipys)


def test_monitor_run_matches_scipy(monkeypatch):
    u0 = HardyCoefficients(2.0 * 0.4 ** np.arange(256) - 0.2 ** np.arange(256))
    cfg = SimulationConfig(dt=1e-3, t_final=0.2, trunc=256, monitor_stride=10)
    ours, scipys = _both(monkeypatch, lambda: integrate(u0, cfg))
    assert ours.nfev > 2 + 12 * ours.steps  # dense output was built
    _assert_same_record(ours, scipys)


def test_reduced_run_with_early_stop_matches_scipy(monkeypatch):
    s0 = V3State(b=0.3 + 0.1j, c=1.0, p=0.4)

    def run():
        return v3_integrate(s0, -1e-3, -10.0, stride=50, stop_when=lambda t, x, psi: t < -0.4995)

    ours, scipys = _both(monkeypatch, run)
    assert ours.times[-1] == -0.5
    assert (ours.steps, ours.nfev) == (scipys.steps, scipys.nfev)
    for name in ("times", "x", "psi", "state_times"):
        assert _same(getattr(ours, name), getattr(scipys, name))
    assert ours.states == scipys.states


def _kinked(t, y):
    # the rate jumps at t = 0.3, so steps across it are rejected
    return (-1.0 if t < 0.3 else -40.0) * y + 1j * y[::-1]


def _turning_nan(t, y):
    return y * (np.nan if t > 0.25 else 1.0)


def test_rejected_steps_and_underflow_match_scipy():
    y0 = np.array([1.0 + 0.5j, -0.25 + 0j])
    ours, scipys = Dop853(_kinked, y0, 1.0, 1e-9, 1e-12), ScipyDop853(_kinked, y0, 1.0, 1e-9, 1e-12)
    steps = 0
    while not ours.finished:
        assert ours.step() and scipys.step()
        steps += 1
        assert (ours.t, ours.nfev, ours.finished) == (scipys.t, scipys.nfev, scipys.finished)
        assert _same(ours.y, scipys.y) and _same(ours.f, scipys.f)
        t = np.linspace(ours.t_old, ours.t, 4)[1:-1]
        assert _same(ours.dense_output(t), scipys.dense_output(t))
    assert ours.nfev > 2 + 12 * steps + 3 * steps  # some steps were rejected
    # the step shrinks until it underflows
    ours, scipys = Dop853(_turning_nan, y0, 1.0, 1e-9, 1e-12), ScipyDop853(_turning_nan, y0, 1.0, 1e-9, 1e-12)
    with np.errstate(invalid="ignore"):
        while ours.step():
            assert scipys.step()
        assert not scipys.step()
    assert (ours.t, ours.nfev) == (scipys.t, scipys.nfev) and 0.24 < ours.t <= 0.25

