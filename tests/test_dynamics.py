"""Flow integration: right-hand side, invariants, spectra, exports."""

import csv
import gc
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import DOP853

from quadszego import dynamics
from quadszego.dynamics import (
    SimulationConfig,
    integrate,
    rank_conservation_check,
    rhs,
    trajectory_to_csv,
    trajectory_to_jsonl,
)
from quadszego.errors import DriftExceeded, NonFiniteState
from quadszego.hardy import HardyCoefficients, apply_D, conserved, quadratic_products
from quadszego.operators import hankel, shifted_hankel
from quadszego.v3 import V3State, embed
from quadszego.waves import TravelingWaveSpec, build_profile


def test_rhs_zero():
    out = rhs(HardyCoefficients([0.0, 0.0]))
    assert out.norm() == 0.0


@pytest.mark.parametrize("m", [2, 3, 256, 512, 1000])
def test_rhs_matches_quadratic_products(m):
    # the one-FFT-pair RHS against the three-FFT route; the RHS is quintic in
    # u, and unit norm makes 1e-14 a bound relative to ||u||^3 and ||u||^5
    rng = np.random.default_rng(m)
    c = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 0.99 ** np.arange(m)
    c /= np.linalg.norm(c)
    u2, abs2 = quadratic_products(c, m)
    j = np.sum(u2 * np.conj(c))  # J = (u^2|u) summed over coefficients
    expected = -1j * (2.0 * j * abs2 + np.conj(j) * u2)
    assert np.max(np.abs(rhs(HardyCoefficients(c)).coeffs - expected)) < 1e-14


def test_rhs_constant_reduction():
    # on constants the flow reduces to i f' = 3 |f|^4 f
    lam = 0.8 + 0.3j
    out = rhs(HardyCoefficients([lam, 0.0]))
    assert out.coeffs[0] == pytest.approx(-3j * abs(lam) ** 4 * lam, abs=1e-14)
    assert out.coeffs[1] == 0.0


def test_rhs_traveling_wave_matches_phase_law():
    spec = TravelingWaveSpec("I", 1.0, 0.5, 1)
    v0 = build_profile(spec, 256)
    assert spec.omega == pytest.approx(6.518519, abs=1e-6)
    assert spec.c == pytest.approx(1.777778, abs=1e-6)
    out = rhs(v0)
    target = -1j * (spec.omega * v0.coeffs + spec.c * apply_D(v0).coeffs)
    assert np.linalg.norm(out.coeffs - target) < 1e-10


def test_rhs_preserves_trunc():
    u = HardyCoefficients(np.ones(17) * 0.1)
    assert rhs(u).trunc == 17


# ---------------------------------------------------------------- integration


def test_constant_data_phase_rotation():
    cfg = SimulationConfig(dt=1e-3, t_final=1.0, trunc=2, monitor_stride=100, tol_drift=1e-8)
    traj = integrate(HardyCoefficients([1.0, 0.0]), cfg)
    final = traj.states[-1].coeffs[0]
    assert abs(abs(final) - 1.0) < 1e-10
    # phase advances by -3t on the unit constant
    assert abs(final - np.exp(-3j * 1.0)) < 1e-9


def test_exact_orbit_family_one():
    spec = TravelingWaveSpec("I", 1.0, 0.5, 1)
    v0 = build_profile(spec, 256)
    cfg = SimulationConfig(dt=1e-3, t_final=2.0, trunc=256, monitor_stride=500, tol_drift=1e-6)
    traj = integrate(v0, cfg)
    k = np.arange(256)
    for t, state in zip(traj.times, traj.states):
        exact = v0.coeffs * np.exp(-1j * (spec.omega + spec.c * k) * t)
        assert np.linalg.norm(state.coeffs - exact) < 1e-6


def test_k2_spectrum_constant_along_v3_trajectory():
    # |p(t)| climbs to ~0.93 along this orbit, so 256 modes are needed to
    # keep the geometric tail below the constancy tolerance
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 256)
    cfg = SimulationConfig(dt=1e-3, t_final=1.0, trunc=256, monitor_stride=200, tol_drift=1e-6, n_spectrum=3)
    traj = integrate(u0, cfg)
    dev = np.max(np.abs(traj.k2_spectra - traj.k2_spectra[0]))
    assert dev < 1e-6


def test_rank_conservation_v2_and_v3():
    cfg = SimulationConfig(dt=1e-3, t_final=0.5, trunc=96, monitor_stride=125, tol_drift=1e-6)
    ground = HardyCoefficients(0.5 ** np.arange(96))
    assert rank_conservation_check(integrate(ground, cfg), 2)
    v3 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 96)
    traj = integrate(v3, cfg)
    assert rank_conservation_check(traj, 3)
    assert not rank_conservation_check(traj, 2)  # wrong class must be detected
    # criterion 5's V(4) datum; the evolved tail is FFT round-off (~1e-18)
    v4 = HardyCoefficients(2.0 * 0.4 ** np.arange(256) - 0.2 ** np.arange(256))
    traj = integrate(v4, SimulationConfig(dt=1e-3, t_final=0.5, trunc=256, monitor_stride=125))
    assert rank_conservation_check(traj, 4)
    assert not rank_conservation_check(traj, 5)


# ---------------------------------------------------------------- lazy spectra


def _v3_trajectory(n_spectrum: int = 8):
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 64)
    cfg = SimulationConfig(dt=1e-3, t_final=0.05, trunc=64, monitor_stride=10, n_spectrum=n_spectrum)
    return integrate(u0, cfg)


def _count_calls(monkeypatch, name: str) -> list:
    """Record the matrix of every ``np.linalg.<name>`` call."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _count_svdvals(monkeypatch) -> list:
    return _count_calls(monkeypatch, "svdvals")


def _count_pairs(monkeypatch) -> list:
    """Record the columns of every ``np.linalg.qr``: one per sketched pair."""
    return _count_calls(monkeypatch, "qr")


def _check_k2_rows(traj) -> list:
    """Every row of ``k2_spectra`` against the squared dense ``svdvals`` of
    K: bit for bit on a dense snapshot (``r = 0``), within the certified
    ``(2 sigma_1 + r) r`` on a sketched one, whose ``r`` must be within
    ``16 M eps ||K||_F``.  Returns each snapshot's ``r``."""
    n = traj.n_spectrum
    rs = []
    for i, (row, state) in enumerate(zip(traj.k2_spectra, traj.states)):
        k = shifted_hankel(state)
        sv = np.linalg.svdvals(k)
        top = sv[:n] ** 2
        r = traj._k_sketch_at(i)[1]
        if r == 0:
            assert np.array_equal(row[: len(top)], top)
        else:
            assert r <= 16 * len(k) * np.finfo(float).eps * np.linalg.norm(k)
            assert np.max(np.abs(row[: len(top)] - top)) <= (2 * sv[0] + r) * r
        assert not np.any(row[len(top) :])  # zero padding past the 64 values of K
        rs.append(r)
    return rs


@pytest.mark.parametrize("n_spectrum", [3, 8, 64, 70])
def test_k2_spectra_match_svdvals_bit_for_bit(n_spectrum):
    # a sketch of width n_spectrum + 4 < 64 certifies the rank-1 K; wider
    # ones would be as wide as K, so those snapshots stay dense
    traj = _v3_trajectory(n_spectrum)
    assert traj.k2_spectra.shape == (len(traj.times), n_spectrum)
    assert traj.k2_spectra.dtype == np.float64
    rs = _check_k2_rows(traj)
    if n_spectrum + 4 < 64:
        assert all(r > 0 for r in rs)
    else:
        assert all(r == 0 for r in rs)


def test_k2_spectra_dense_on_full_rank_state():
    # no sketch spans a full-rank K, so every row is the dense svdvals bit for bit
    rng = np.random.default_rng(5)
    u0 = HardyCoefficients((rng.standard_normal(64) + 1j * rng.standard_normal(64)) / 12.0)
    traj = integrate(u0, SimulationConfig(dt=1e-4, t_final=2e-3, trunc=64, monitor_stride=10, tol_drift=1e-2))
    assert _check_k2_rows(traj) == [0.0] * len(traj.times)


def test_integrate_computes_no_spectrum(monkeypatch):
    pairs, calls = _count_pairs(monkeypatch), _count_svdvals(monkeypatch)
    traj = _v3_trajectory()
    assert pairs == [] and calls == []
    traj.k2_spectra
    # one pair per snapshot, from H's first n_spectrum + 5 = 13 columns
    assert [a.shape for a in pairs] == [(64, 13)] * len(traj.times)
    assert not any(a.shape == (64, 64) for a in calls)


def test_rank_check_reuses_k_singular_values(monkeypatch):
    traj = _v3_trajectory()
    traj.k2_spectra
    pairs, calls = _count_pairs(monkeypatch), _count_svdvals(monkeypatch)
    assert rank_conservation_check(traj, 3)
    # H and K both come from the pairs k2_spectra cached: no QR, no svdvals
    assert pairs == [] and calls == []
    traj.k2_spectra
    assert pairs == [] and calls == []


def _criterion5_trajectory():
    """Criterion 5's V(4) datum at trunc 256, six snapshots."""
    u0 = HardyCoefficients(2.0 * 0.4 ** np.arange(256) - 0.2 ** np.arange(256))
    cfg = SimulationConfig(dt=1e-3, t_final=0.05, trunc=256, monitor_stride=10, n_spectrum=4)
    return integrate(u0, cfg)


def test_failing_rank_check_stops_at_failing_snapshot(monkeypatch):
    traj = _criterion5_trajectory()
    calls = _count_svdvals(monkeypatch)
    assert not rank_conservation_check(traj, 5)  # rank H = 2, not 3
    assert len(calls) <= 2


def test_k2_spectra_compute_only_missing_k_values(monkeypatch):
    traj = _criterion5_trajectory()
    pairs, calls = _count_pairs(monkeypatch), _count_svdvals(monkeypatch)
    assert not rank_conservation_check(traj, 3)  # rank H = 2 passes, rank K = 2 fails
    assert len(pairs) == 1  # the pair of the first snapshot
    spectra = traj.k2_spectra
    assert len(pairs) == len(traj.times)
    assert not any(a.shape == (256, 256) for a in calls)
    sv = np.linalg.svdvals(shifted_hankel(traj.states[0]))
    r = traj._k_sketch_at(0)[1]
    assert 0 < r <= 16 * 256 * np.finfo(float).eps * np.linalg.norm(sv)
    assert np.max(np.abs(spectra[0] - sv[:4] ** 2)) <= (2 * sv[0] + r) * r


def _dense_rank_check(traj, d: int, tol: float = 1e-8) -> bool:
    """Reference: every singular value of H and K at each snapshot, from
    ``svdvals``, independent of the record's cache."""
    if d == 0:
        return not any(state.norm() > tol for state in traj.states)
    n = d // 2
    want_h, want_k = (n, n) if d % 2 == 0 else (n + 1, n)
    for state in traj.states:
        h_eigs = np.linalg.svdvals(hankel(state)) ** 2
        k_eigs = np.linalg.svdvals(shifted_hankel(state)) ** 2
        scale = max(h_eigs[0], 1e-300)
        if int(np.sum(h_eigs > tol * scale)) != want_h or int(np.sum(k_eigs > tol * scale)) != want_k:
            return False
    return True


def _rational_state(seed: int, n_poles: int, m: int = 256) -> HardyCoefficients:
    """Unit-mass ``sum_j a_j / (1 - p_j z)`` in V(2N), poles spread in angle."""
    rng = np.random.default_rng(seed)
    k = np.arange(m)
    poles = rng.uniform(0.35, 0.55, n_poles) * np.exp(2j * np.pi * (rng.uniform() + np.arange(n_poles) / n_poles))
    amps = rng.uniform(0.7, 1.3, n_poles) * np.exp(2j * np.pi * rng.uniform(size=n_poles))
    coeffs = sum(a * p**k for a, p in zip(amps, poles))
    return HardyCoefficients(coeffs / np.linalg.norm(coeffs))


def _rank_check_cases() -> dict:
    monitor = SimulationConfig(dt=1e-3, t_final=0.2, trunc=256, monitor_stride=10)  # 200 RK4 steps
    short = SimulationConfig(dt=1e-4, t_final=2e-3, trunc=256, monitor_stride=10, tol_drift=1e-2)
    rng = np.random.default_rng(11)
    k = np.arange(256)
    cases = {f"V({2 * n})": (_rational_state(n, n), monitor) for n in (1, 2, 3)}
    cases["criterion 5"] = (HardyCoefficients(2.0 * 0.4**k - 0.2**k), monitor)
    cases["|p| = 0.9"] = (HardyCoefficients((0.9 * np.exp(0.7j)) ** k), short)
    cases["full rank"] = (HardyCoefficients((rng.standard_normal(256) + 1j * rng.standard_normal(256)) / 23.0), short)
    trunc8 = SimulationConfig(dt=1e-3, t_final=0.05, trunc=8, monitor_stride=10)
    cases["trunc 8"] = (HardyCoefficients(0.5 ** np.arange(8)), trunc8)
    return cases


_RANK_CHECK_CASES = _rank_check_cases()


@pytest.mark.parametrize("case", list(_RANK_CHECK_CASES))
def test_rank_check_decisions_match_dense_route(case):
    traj = integrate(*_RANK_CHECK_CASES[case])
    decisions = [rank_conservation_check(traj, d) for d in range(9)]
    assert decisions == [_dense_rank_check(traj, d) for d in range(9)]


def test_rank_check_takes_no_dense_h_on_criterion5(monkeypatch):
    traj = _criterion5_trajectory()
    pairs, calls = _count_pairs(monkeypatch), _count_svdvals(monkeypatch)
    assert rank_conservation_check(traj, 4)
    # one pair per snapshot, from H's first n_spectrum + 5 = 9 columns; its
    # H and K halves are the only svdvals, and none is 256 x 256
    assert [a.shape for a in pairs] == [(256, 9)] * len(traj.times)
    assert [a.shape for a in calls] == [(9, 256), (9, 255)] * len(traj.times)
    traj.k2_spectra
    assert len(pairs) == len(traj.times) and len(calls) == 2 * len(traj.times)


def test_rank_check_falls_back_to_dense_near_threshold(monkeypatch):
    # tol puts the threshold within 1e-12 of sigma_2(H)^2 / sigma_1(H)^2,
    # inside the sketch's error bound, so the check must take every value of H
    traj = _criterion5_at_t0()
    h = hankel(traj.states[0])
    sigma = np.linalg.svdvals(h)
    edge = (sigma[1] / sigma[0]) ** 2
    calls = _count_svdvals(monkeypatch)
    for d in (2, 3):
        answers = set()
        for tol in (edge * (1 - 1e-12), edge * (1 + 1e-12)):
            dense = _dense_rank_check(traj, d, tol)
            calls.clear()
            assert rank_conservation_check(traj, d, tol) == dense
            assert any(np.array_equal(a, h) for a in calls)
            answers.add(dense)
        assert answers == {True, False}  # the threshold really sits at sigma_2


@pytest.mark.parametrize("kwargs", [{"d": 2, "tol": 0.0}, {"d": 2, "tol": -1e-8}, {"d": -1}, {"d": 0, "tol": 0.0}])
def test_rank_check_rejects_bad_arguments(kwargs):
    # with tol = 0 round-off would count toward the rank
    traj = _v3_trajectory()
    with pytest.raises(ValueError):
        rank_conservation_check(traj, **kwargs)


def _criterion5_at_t0():
    u0 = HardyCoefficients(2.0 * 0.4 ** np.arange(256) - 0.2 ** np.arange(256))
    return integrate(u0, SimulationConfig(dt=1e-3, t_final=0.0, trunc=256))


def _k_edge_tols(traj) -> tuple[float, float]:
    """tol values 1e-12 either side of sigma_2(K)^2 / sigma_1(H)^2, well inside
    the K sketch's error bound (its r / sigma_2(K) is about 3e-11)."""
    state = traj.states[0]
    edge = (np.linalg.svdvals(shifted_hankel(state))[1] / np.linalg.svdvals(hankel(state))[0]) ** 2
    return edge * (1 - 1e-12), edge * (1 + 1e-12)


def test_rank_check_falls_back_to_dense_k_near_threshold(monkeypatch):
    # the H count is clear of the threshold, the K count is not: the check
    # must take every value of K, and must not cache them
    traj = _criterion5_at_t0()
    k = shifted_hankel(traj.states[0])
    tols = _k_edge_tols(traj)
    calls = _count_svdvals(monkeypatch)
    answers = set()
    for tol in tols:
        dense = _dense_rank_check(traj, 4, tol)
        calls.clear()
        assert rank_conservation_check(traj, 4, tol) == dense
        assert any(np.array_equal(a, k) for a in calls)
        answers.add(dense)
    assert answers == {True, False}  # the threshold really sits at sigma_2(K)
    assert traj._k_sketch_at(0)[1] > 0  # the cache still holds the sketch


def test_k2_spectra_independent_of_read_order():
    spectra_first, check_first = _criterion5_at_t0(), _criterion5_at_t0()
    tol = _k_edge_tols(spectra_first)[0]
    spectra_first.k2_spectra
    assert rank_conservation_check(spectra_first, 4, tol)
    assert rank_conservation_check(check_first, 4, tol)
    assert np.array_equal(spectra_first.k2_spectra, check_first.k2_spectra)


@pytest.mark.parametrize("case", ["V(2)", "V(4)", "V(6)", "criterion 5"])
def test_k_sketch_certified_on_finite_rank_cases(case):
    traj = integrate(*_RANK_CHECK_CASES[case])
    assert all(r > 0 for r in _check_k2_rows(traj))


def test_cached_spectra_are_read_only():
    traj = _v3_trajectory()
    with pytest.raises(ValueError):
        traj.k2_spectra[0, 0] = 1.0
    for i in range(len(traj.states)):
        s, _ = traj._k_sketch_at(i)
        with pytest.raises(ValueError):
            s[0] = 1.0


def test_rank_conservation_zero_state():
    cfg = SimulationConfig(dt=1e-2, t_final=0.1, trunc=8, monitor_stride=5, tol_drift=1.0)
    traj = integrate(HardyCoefficients(np.zeros(8)), cfg)
    assert rank_conservation_check(traj, 0)


def _rk4_reference(u0: HardyCoefficients, dt: float, t_final: float, trunc: int) -> np.ndarray:
    """Fixed-step classical RK4 on the truncated flow: the terminal state, a
    reference of known fourth order for the adaptive route."""
    c = u0.padded(trunc).astype(np.complex128)
    for _ in range(int(round(t_final / dt))):
        k1 = rhs(HardyCoefficients(c)).coeffs
        k2 = rhs(HardyCoefficients(c + 0.5 * dt * k1)).coeffs
        k3 = rhs(HardyCoefficients(c + 0.5 * dt * k2)).coeffs
        k4 = rhs(HardyCoefficients(c + dt * k3)).coeffs
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c


def _terminal(u0: HardyCoefficients, t_final: float, trunc: int = 64) -> np.ndarray:
    cfg = SimulationConfig(dt=t_final, t_final=t_final, trunc=trunc, monitor_stride=10**9, tol_drift=1e-4)
    return integrate(u0, cfg).states[-1].coeffs


def test_rk4_order():
    # the adaptive terminal state is far more accurate than RK4 at these
    # steps: against it RK4's error falls ~16x per halving of dt, and RK4 at
    # dt = 6.25e-4 lands within its own predicted error of it
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 64)
    ref = _terminal(u0, 0.5)
    err_coarse, err_fine, err_finest = (
        np.linalg.norm(_rk4_reference(u0, dt, 0.5, 64) - ref) for dt in (1e-2, 5e-3, 6.25e-4)
    )
    assert 10 < err_coarse / err_fine < 25
    assert err_finest < 2 * err_fine / 8**4


def test_time_reversibility():
    # the round trip stays within a few times the one-way error, measured
    # against a Richardson-extrapolated RK4 reference (fifth order)
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 64)
    fwd = _terminal(u0, 1.0)
    back = _terminal(HardyCoefficients(fwd), -1.0)
    coarse, fine = (_rk4_reference(u0, dt, 1.0, 64) for dt in (1e-3, 5e-4))
    one_way = np.linalg.norm(fwd - (fine + (fine - coarse) / 15.0))
    round_trip = np.linalg.norm(back - u0.coeffs)
    assert one_way < 1e-11
    assert round_trip < 3 * one_way


def test_drift_exceeded_raised():
    u0 = HardyCoefficients(0.5 ** np.arange(32))
    cfg = SimulationConfig(dt=0.05, t_final=5.0, trunc=32, monitor_stride=1, tol_drift=1e-6)
    worst = max(integrate(u0, cfg).drift.values())
    assert 0 < worst < 1e-11  # the adaptive route's measured drift
    integrate(u0, replace(cfg, tol_drift=2 * worst))
    with pytest.raises(DriftExceeded):
        integrate(u0, replace(cfg, tol_drift=worst / 2))


def test_nonfinite_or_huge_state_warns_nothing():
    # conserved overflows quietly to inf/nan, as the product kernel does;
    # the integrator then raises NonFiniteState, with no RuntimeWarning first
    cfg = SimulationConfig(dt=0.1, t_final=1.0, trunc=2, monitor_stride=1, tol_drift=1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            integrate(HardyCoefficients([1.0, np.inf]), cfg)
        huge = conserved(HardyCoefficients([1e200, 1e200]))
    assert huge.Q == np.inf and not np.isfinite(huge.E)


def test_nonfinite_raised_on_blowup(monkeypatch):
    cfg = SimulationConfig(dt=0.1, t_final=1.0, trunc=2, monitor_stride=1, tol_drift=1e6)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteState):
            integrate(HardyCoefficients([1.0, bad]), cfg)
    # a right-hand side that turns non-finite mid-run: the solver shrinks its
    # step until it gives up, which raises NonFiniteState too
    finite = dynamics.j_and_flow

    def blowing_up(c):
        j, flow = finite(c)
        return j, flow * (np.nan if abs(np.angle(c[0])) > 1.5 else 1.0)

    monkeypatch.setattr(dynamics, "j_and_flow", blowing_up)
    with pytest.raises(NonFiniteState, match="t=0.5"):
        integrate(HardyCoefficients([1.0, 0.0]), cfg)
    # non-finite from the start: the solver's first step size would be NaN,
    # which its step loop never rejects, so this would not return
    monkeypatch.setattr(dynamics, "j_and_flow", lambda c: (0j, np.full(len(c), np.nan + 0j)))
    with pytest.raises(NonFiniteState, match="initial state"):
        integrate(HardyCoefficients([1.0, 0.0]), cfg)


# ---------------------------------------------------------------- solver samples


def _count_dense_outputs(monkeypatch) -> list:
    """Record the end time of the solver step behind every ``dense_output``."""
    calls = []
    original = DOP853.dense_output

    def counting(self):
        calls.append(self.t)
        return original(self)

    monkeypatch.setattr(DOP853, "dense_output", counting)
    return calls


def test_snapshots_at_ends_build_no_dense_output(monkeypatch):
    # the flow workload's shape: snapshots at t = 0 and at the end only
    calls = _count_dense_outputs(monkeypatch)
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 64)
    traj = integrate(u0, SimulationConfig(dt=1e-3, t_final=0.5, trunc=64, monitor_stride=10**9))
    assert calls == []
    assert traj.times.tolist() == [0.0, 0.5]
    # 2 evaluations to start and 12 per step tried, none for dense output
    assert traj.steps > 0 and traj.nfev >= 12 * traj.steps + 2 and (traj.nfev - 2) % 12 == 0


def test_solver_freed_without_the_cycle_collector():
    # scipy's solver sits in a reference cycle; left to the cyclic collector,
    # its stage arrays piled up over repeated runs
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 64)
    gc.collect()
    gc.disable()
    try:
        integrate(u0, SimulationConfig(dt=1e-3, t_final=0.05, trunc=64, monitor_stride=10))
        assert not [obj for obj in gc.get_objects() if isinstance(obj, DOP853)]
    finally:
        gc.enable()


def test_monitor_run_builds_at_most_one_dense_output_per_step(monkeypatch):
    calls = _count_dense_outputs(monkeypatch)
    u0 = HardyCoefficients(2.0 * 0.4 ** np.arange(256) - 0.2 ** np.arange(256))
    cfg = SimulationConfig(dt=1e-3, t_final=0.2, trunc=256, monitor_stride=10)
    traj = integrate(u0, cfg)
    assert len(traj.times) == 21 and 0 < len(calls) <= traj.steps
    assert len(set(calls)) == len(calls)  # one per step at most
    assert (traj.nfev - 2 - 3 * len(calls)) % 12 == 0  # 3 per dense output
    # snapshot times are the samples i * dt, bit for bit
    assert np.array_equal(traj.times, np.arange(201)[::10] * cfg.dt)
    back = integrate(u0, replace(cfg, dt=-1e-3, t_final=-0.2))
    assert np.array_equal(back.times, np.arange(201)[::10] * -1e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(dt=0.0, t_final=1.0, trunc=16)
    with pytest.raises(ValueError):
        SimulationConfig(dt=1e-3, t_final=1.0, trunc=16, monitor_stride=0)
    # a nonpositive drift tolerance would report every step as drift, and a
    # nonpositive spectrum width failed only on the first k2_spectra read
    for bad in ({"tol_drift": 0.0}, {"tol_drift": -1.0}, {"n_spectrum": 0}, {"n_spectrum": -2}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SimulationConfig(dt=1e-3, t_final=1.0, trunc=16, **bad)
    # integrate took round(t_final / dt) steps: 0.1 at dt 0.03 ended at 0.09,
    # at dt 0.3 it took none; a horizon against dt's sign is rejected here too
    for dt, t_final in ((0.03, 0.1), (0.3, 0.1), (1e-3, -1.0), (-1e-3, 1.0), (1e-3, float("nan"))):
        with pytest.raises(ValueError, match="t_final"):
            SimulationConfig(dt=dt, t_final=t_final, trunc=16)


# ---------------------------------------------------------------- exports


def test_csv_export_schema(tmp_path):
    u0 = HardyCoefficients(0.5 ** np.arange(16))
    cfg = SimulationConfig(dt=1e-2, t_final=0.1, trunc=16, monitor_stride=5, tol_drift=1e-4, n_spectrum=3)
    traj = integrate(u0, cfg)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "Q", "M", "E", "absJ", "k2_eig_1", "k2_eig_2", "k2_eig_3"]
    assert len(rows) - 1 == len(traj.times)
    assert float(rows[1][1]) == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_jsonl_export_round_trip(tmp_path):
    u0 = HardyCoefficients(0.5 ** np.arange(16))
    cfg = SimulationConfig(dt=1e-2, t_final=0.1, trunc=16, monitor_stride=5, tol_drift=1e-4)
    traj = integrate(u0, cfg)
    path = tmp_path / "traj.jsonl"
    trajectory_to_jsonl(traj, path)
    lines = [json.loads(line) for line in open(path)]
    assert len(lines) == len(traj.times)
    last = HardyCoefficients.from_json(lines[-1]["state"])
    assert last == traj.states[-1]
