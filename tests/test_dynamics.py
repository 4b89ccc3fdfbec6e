"""Flow integration: right-hand side, invariants, spectra, exports."""

import csv
import json

import numpy as np
import pytest

from quadszego.dynamics import (
    SimulationConfig,
    integrate,
    rank_conservation_check,
    rhs,
    trajectory_to_csv,
    trajectory_to_jsonl,
)
from quadszego.errors import DriftExceeded, NonFiniteState
from quadszego.hardy import HardyCoefficients, apply_D, quadratic_products
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


def _count_svdvals(monkeypatch) -> list:
    """Record the matrix of every ``np.linalg.svdvals`` call."""
    calls = []
    original = np.linalg.svdvals

    def counting(a, *args, **kwargs):
        calls.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svdvals", counting)
    return calls


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
    calls = _count_svdvals(monkeypatch)
    traj = _v3_trajectory()
    assert calls == []
    traj.k2_spectra
    assert len(calls) == len(traj.times)


def test_rank_check_reuses_k_singular_values(monkeypatch):
    traj = _v3_trajectory()
    traj.k2_spectra
    calls = _count_svdvals(monkeypatch)
    assert rank_conservation_check(traj, 3)
    assert len(calls) == len(traj.times)
    # no call was on K; K came from the cache
    k_matrices = [shifted_hankel(state) for state in traj.states]
    assert not any(a.shape == k.shape and np.array_equal(a, k) for a in calls for k in k_matrices)
    traj.k2_spectra
    assert len(calls) == len(traj.times)


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
    calls = _count_svdvals(monkeypatch)
    assert not rank_conservation_check(traj, 3)  # rank H = 2 passes, rank K = 2 fails
    assert len(calls) == 2  # H and K of the first snapshot
    spectra = traj.k2_spectra
    assert len(calls) == 2 + len(traj.times) - 1
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
    traj.k2_spectra
    calls = _count_svdvals(monkeypatch)
    assert rank_conservation_check(traj, 4)
    # one sketch of rank H + 4 = 6 rows per snapshot, no 256 x 256 H
    assert [a.shape for a in calls] == [(6, 256)] * len(traj.times)


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


def test_rk4_order():
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 64)

    def terminal(dt):
        cfg = SimulationConfig(dt=dt, t_final=0.5, trunc=64, monitor_stride=10**9, tol_drift=1e-3)
        return integrate(u0, cfg).states[-1].coeffs

    ref = terminal(6.25e-4)
    err_coarse = np.linalg.norm(terminal(1e-2) - ref)
    err_fine = np.linalg.norm(terminal(5e-3) - ref)
    ratio = err_coarse / err_fine
    assert 10 < ratio < 25  # fourth order: halving dt cuts the error ~16x


def test_time_reversibility():
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 64)
    fwd_cfg = SimulationConfig(dt=1e-3, t_final=1.0, trunc=64, monitor_stride=10**9, tol_drift=1e-4)
    fwd = integrate(u0, fwd_cfg)
    back_cfg = SimulationConfig(dt=-1e-3, t_final=-1.0, trunc=64, monitor_stride=10**9, tol_drift=1e-4)
    back = integrate(fwd.states[-1], back_cfg)
    ref = SimulationConfig(dt=5e-4, t_final=1.0, trunc=64, monitor_stride=10**9, tol_drift=1e-4)
    one_way = np.linalg.norm(integrate(u0, ref).states[-1].coeffs - fwd.states[-1].coeffs)
    round_trip = np.linalg.norm(back.states[-1].padded(64) - u0.padded(64))
    assert round_trip < 10 * max(one_way, 1e-14)


def test_drift_exceeded_raised():
    u0 = HardyCoefficients(0.5 ** np.arange(32))
    cfg = SimulationConfig(dt=0.05, t_final=5.0, trunc=32, monitor_stride=1, tol_drift=1e-14)
    with pytest.raises(DriftExceeded):
        integrate(u0, cfg)


def test_nonfinite_raised_on_blowup():
    u0 = HardyCoefficients([30.0, 0.0])
    cfg = SimulationConfig(dt=10.0, t_final=100.0, trunc=2, monitor_stride=1, tol_drift=1e6)
    with pytest.raises(NonFiniteState):
        integrate(u0, cfg)


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
