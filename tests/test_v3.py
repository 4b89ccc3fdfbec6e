"""Reduced dynamics on the three-parameter class and the instability experiment."""

import math

import numpy as np
import pytest

import quadszego.v3 as v3_module

from quadszego.dynamics import SimulationConfig, integrate
from quadszego.errors import DegenerateState
from quadszego.hardy import conserved
from quadszego.v3 import (
    V3State,
    _deriv,
    derived,
    embed,
    energy_closed_form,
    evolx_residual,
    instability_experiment,
    translated_ground_state,
    v3_integrate,
)


def angle_distance(a, b):
    """Distance between two angles modulo 2 pi."""
    d = math.fmod(a - b, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    elif d < -math.pi:
        d += 2.0 * math.pi
    return abs(d)


def _rk4_step(b, c, p, dt):
    kb1, kc1, kp1 = _deriv(b, c, p)
    kb2, kc2, kp2 = _deriv(b + 0.5 * dt * kb1, c + 0.5 * dt * kc1, p + 0.5 * dt * kp1)
    kb3, kc3, kp3 = _deriv(b + 0.5 * dt * kb2, c + 0.5 * dt * kc2, p + 0.5 * dt * kp2)
    kb4, kc4, kp4 = _deriv(b + dt * kb3, c + dt * kc3, p + dt * kp3)
    sixth = dt / 6.0
    return (
        b + sixth * (kb1 + 2 * kb2 + 2 * kb3 + kb4),
        c + sixth * (kc1 + 2 * kc2 + 2 * kc3 + kc4),
        p + sixth * (kp1 + 2 * kp2 + 2 * kp3 + kp4),
    )


def _rk4_reference(s0, dt, t_final, stop_when=None):
    """Fixed-step scalar RK4, a short-horizon reference for ``v3_integrate``:
    x, psi and (b, c, p) at every sample, up to the first sample where
    ``stop_when`` holds."""
    h = math.copysign(dt, t_final)
    b, c, p = s0.b, s0.c, s0.p
    xs, psis, states = [derived(s0).x], [derived(s0).psi], [(b, c, p)]
    for i in range(1, int(round(abs(t_final) / dt)) + 1):
        b, c, p = _rk4_step(b, c, p, h)
        d = derived(V3State(b=b, c=c, p=p))
        xs.append(d.x)
        psis.append(d.psi)
        states.append((b, c, p))
        if stop_when is not None and stop_when(np.array([i * h]), np.array([d.x]), np.array([d.psi]))[0]:
            break
    return np.array(xs), np.array(psis), states


def random_admissible(rng):
    while True:
        b = rng.standard_normal() + 1j * rng.standard_normal()
        c = rng.standard_normal() + 1j * rng.standard_normal()
        p = (rng.uniform(0, 0.9)) * np.exp(2j * np.pi * rng.uniform())
        if abs(c) > 0.1 and abs(c - b * p) > 1e-3:
            return V3State(b=b, c=c, p=p)


# ---------------------------------------------------------------- derived


def test_state_validation():
    with pytest.raises(ValueError):
        V3State(b=0.0, c=1.0, p=1.2)
    with pytest.raises(ValueError):
        V3State(b=1.0, c=0.0, p=0.5)
    with pytest.raises(ValueError):
        V3State(b=2.0, c=1.0, p=0.5)  # c - b p = 0


def test_derived_matches_embedded_conserved():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_admissible(rng)
        d = derived(s)
        c = conserved(embed(s, 512))
        assert d.Q == pytest.approx(c.Q, rel=1e-10)
        assert d.M == pytest.approx(c.M, rel=1e-10)
        assert d.J == pytest.approx(c.J, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("trunc", [0, -3])
def test_embed_rejects_nonpositive_trunc(trunc):
    # trunc 0 raised IndexError from out[0]
    with pytest.raises(ValueError, match=f"trunc must be >= 1, got {trunc}"):
        embed(V3State(b=0.5, c=1.0, p=0.3), trunc)


def test_derived_of_a_huge_state_has_infinite_ecal():
    # Python float ** raised OverflowError here
    d = derived(V3State(b=1e60, c=0.5, p=0.3))
    assert d.Ecal == np.inf
    assert np.isfinite(d.J)


def test_translated_ground_state_quantities():
    r = 0.25
    d = derived(translated_ground_state(r))
    assert d.Q == pytest.approx(r * (3 * r + 1) / (1 - r) ** 2)
    assert d.M == pytest.approx(r / (1 - r) ** 2)
    assert d.J == pytest.approx(-(r**2) * (5 * r + 3) / (1 - r) ** 3)
    assert d.x == pytest.approx(r / (1 - r))
    assert d.psi == pytest.approx(np.pi)
    assert d.Ecal == pytest.approx(r**4 * (5 * r + 3) ** 2 / (1 - r) ** 6)


def test_energy_closed_form_matches_j_squared():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = random_admissible(rng)
        d = derived(s)
        assert energy_closed_form(d.Q, d.M, d.x, d.psi) == pytest.approx(d.Ecal, rel=1e-12, abs=1e-12)


def test_x_bounded_by_q_and_m():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = derived(random_admissible(rng))
        assert 0 <= d.x <= min(d.Q, d.M) + 1e-12


def test_psi_zero_convention_when_bp_vanishes():
    assert derived(V3State(b=0.0, c=1.0, p=0.3)).psi == 0.0
    assert derived(V3State(b=1.0, c=1.0, p=0.0)).psi == 0.0


# ---------------------------------------------------------------- rhs


def test_monomial_is_fixed_point():
    s = V3State(b=0.0, c=1.0, p=0.0)  # u = z has J = 0
    db, dc, dp = _deriv(s.b, s.c, s.p)
    assert db == dc == dp == 0


def test_pdot_magnitude_at_translated_ground_state():
    s = translated_ground_state(0.25)
    _, _, dp = _deriv(s.b, s.c, s.p)
    assert abs(dp) == pytest.approx(0.5 * 0.629630, abs=1e-6)


def test_zero_j_forces_zero_derivative():
    # equilibrium family member: b, c, p with J = 0
    from quadszego.steady import family_constants

    mean, c, p = family_constants(np.pi / 6)
    s = V3State(b=mean, c=c, p=p)
    assert abs(derived(s).J) < 1e-15
    db, dc, dp = _deriv(s.b, s.c, s.p)
    assert max(abs(db), abs(dc), abs(dp)) < 1e-14


def test_rhs_matches_full_flow_derivative():
    rng = np.random.default_rng(3)
    from quadszego.dynamics import rhs as flow_rhs

    for _ in range(5):
        s = random_admissible(rng)
        db, dc, dp = _deriv(s.b, s.c, s.p)
        m = 512
        direct = flow_rhs(embed(s, m)).coeffs
        # d/dt of b + c z/(1-pz): mean b', higher modes c' p^{k-1} + c (k-1) p^{k-2} p'
        k = np.arange(1, m)
        reduced = np.zeros(m, dtype=complex)
        reduced[0] = db
        reduced[1:] = dc * np.asarray(s.p, complex) ** (k - 1)
        reduced[2:] += s.c * (k[1:] - 1) * np.asarray(s.p, complex) ** (k[1:] - 2) * dp
        assert np.linalg.norm(direct - reduced) < 1e-8


# ---------------------------------------------------------------- integration


def test_translated_ground_state_orbit_constants():
    tr = v3_integrate(translated_ground_state(0.25), 1e-4, 2.0, stride=1000)
    assert np.max(np.abs(tr.x - 1.0 / 3.0)) < 1e-8
    assert max(angle_distance(psi, np.pi) for psi in tr.psi) < 1e-6


def test_fixed_point_stays():
    tr = v3_integrate(V3State(b=0.0, c=1.0, p=0.0), 1e-3, 1.0, stride=100)
    assert np.max(np.abs(tr.x - tr.x[0])) < 1e-14


def test_v3_drift_tiny():
    s0 = V3State(b=0.3 + 0.1j, c=1.0, p=0.4)
    tr = v3_integrate(s0, 1e-4, 10.0, stride=1000)
    assert max(tr.drift.values()) < 1e-10


def test_embedded_matches_full_pde():
    s0 = V3State(b=0.3 + 0.1j, c=1.0, p=0.4)
    cfg = SimulationConfig(dt=1e-3, t_final=2.0, trunc=256, monitor_stride=200, tol_drift=1e-6)
    pde = integrate(embed(s0, 256), cfg)
    ode = v3_integrate(s0, 1e-4, 2.0, stride=2000)
    by_time = {round(float(t), 9): st for t, st in zip(ode.state_times, ode.states)}
    gap = max(
        float(np.linalg.norm(embed(by_time[round(float(t), 9)], 256).coeffs - st.coeffs))
        for t, st in zip(pde.times, pde.states)
        if round(float(t), 9) in by_time
    )
    assert gap < 1e-6


@pytest.mark.parametrize("t_final", [1.0, -1.0])
def test_dense_output_matches_rk4_reference(t_final):
    s0 = V3State(b=0.3 + 0.1j, c=1.0, p=0.4)
    tr = v3_integrate(s0, 1e-4, t_final, stride=1000)
    xs, psis, states = _rk4_reference(s0, 1e-4, t_final)
    assert np.array_equal(tr.times, np.arange(10001) * tr.dt)
    assert np.max(np.abs(tr.x - xs)) < 1e-11
    assert max(angle_distance(a, b) for a, b in zip(tr.psi, psis)) < 1e-11
    assert np.allclose(tr.state_times, np.linspace(0.0, t_final, 11), rtol=0, atol=1e-12)
    for t, st in zip(tr.state_times, tr.states):
        b, c, p = states[int(round(t / tr.dt))]
        assert max(abs(st.b - b), abs(st.c - c), abs(st.p - p)) < 1e-11


@pytest.mark.parametrize("t_final", [20.0, -20.0])
def test_stop_when_stops_at_reference_sample(t_final):
    base = derived(translated_ground_state(0.25))
    threshold = 1e-2 * math.sqrt(base.M)

    def stop(t, x, psi):
        return np.abs(x - base.x) > 1.25 * threshold

    s0 = translated_ground_state(0.25, 0.05)
    tr = v3_integrate(s0, 1e-4, t_final, stride=1000, stop_when=stop)
    xs, _, _ = _rk4_reference(s0, 1e-4, t_final, stop_when=stop)
    assert len(tr.x) == len(xs) < 200_001  # an escaping run: it stopped early
    assert stop(tr.times[-1:], tr.x[-1:], tr.psi[-1:])[0] and not np.any(stop(tr.times, tr.x, tr.psi)[:-1])
    assert tr.state_times[-1] == tr.times[-1]


def test_solver_stops_within_one_step_of_the_stop_sample(monkeypatch):
    seen = []
    rhs = v3_module._solver_rhs

    def recording(t, y):
        seen.append(t)
        return rhs(t, y)

    monkeypatch.setattr(v3_module, "_solver_rhs", recording)
    tr = v3_integrate(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 1e-3, 10.0, stride=100, stop_when=lambda t, x, psi: t > 0.4995)
    assert len(tr.times) == 501
    assert 0.5 <= max(seen) < 1.0  # the horizon is 10


def test_solver_failure_raises_degenerate_state(monkeypatch):
    # a right-hand side that turns non-finite mid-run makes the solver give
    # up; that read a message attribute the solver does not have
    rhs = v3_module._solver_rhs

    def failing(t, y):
        return rhs(t, y) * (np.nan if t > 0.25 else 1.0)

    monkeypatch.setattr(v3_module, "_solver_rhs", failing)
    with pytest.raises(DegenerateState, match="the solver stopped"):
        v3_integrate(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 1e-3, 1.0)


def test_v3_integrate_raises_near_degenerate():
    with pytest.raises(DegenerateState):
        v3_integrate(V3State(b=0.0, c=1.0, p=1.0 - 1e-12), 1e-4, 0.1)
    with pytest.raises(DegenerateState):
        v3_integrate(V3State(b=1.0, c=1e-15, p=0.1), 1e-4, 0.1)


@pytest.mark.parametrize(
    "dt, t_final, stride, message",
    [
        (0.0, 1.0, 100, "dt must be nonzero"),
        (1e-3, 1.0, 0, "stride must be >= 1"),
        (1e-3, 1.0, -3, "stride must be >= 1"),
        # not a whole number of samples: the horizon was rounded to 0.09 and 0
        (0.03, 0.1, 100, "whole number"),
        (0.3, -0.1, 100, "whole number"),
    ],
    ids=["dt0", "stride0", "stride-3", "t_final_rounded", "t_final_below_one_sample"],
)
def test_v3_integrate_rejects_zero_dt(dt, t_final, stride, message):
    with pytest.raises(ValueError, match=message):
        v3_integrate(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), dt, t_final, stride=stride)


def test_v3_drift_values_are_floats():
    tr = v3_integrate(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 1e-3, 0.5, stride=100)
    assert set(tr.drift) == {"Q", "M", "Ecal"}
    assert all(type(v) is float for v in tr.drift.values())


# ---------------------------------------------------------------- evolution law of x


def test_evolx_residual_traveling_wave():
    tr = v3_integrate(translated_ground_state(0.25), 1e-4, 1.0, stride=1000)
    assert evolx_residual(tr) < 1e-6


def test_evolx_residual_generic_and_dt2_scaling():
    s0 = V3State(b=0.3 + 0.1j, c=1.0, p=0.4)
    res = evolx_residual(v3_integrate(s0, 1e-4, 1.0, stride=1000))
    res_half = evolx_residual(v3_integrate(s0, 5e-5, 1.0, stride=1000))
    assert res < 1e-5
    assert res / res_half > 2.5  # centered differences: residual ~ dt^2


def test_evolx_residual_steady_point():
    from quadszego.steady import family_constants

    mean, c, p = family_constants(np.pi / 6)
    tr = v3_integrate(V3State(b=mean, c=c, p=p), 1e-3, 1.0, stride=100)
    assert evolx_residual(tr) < 1e-10


# ---------------------------------------------------------------- instability


def test_perturbation_preserves_q_and_m():
    base = derived(translated_ground_state(0.25))
    pert = derived(translated_ground_state(0.25, 1e-2))
    # the rotation touches only the phase of b; Q agrees to one ulp of |b|^2
    assert pert.Q == pytest.approx(base.Q, abs=1e-15)
    assert pert.M == base.M


def test_delta_ecal_positive_and_quadratic_in_gamma():
    base = derived(translated_ground_state(0.25))
    for gamma in (1e-1, 1e-2, 1e-3):
        de = derived(translated_ground_state(0.25, gamma)).Ecal - base.Ecal
        assert de > 0
        # closed form: 2 x (Q+x) sqrt((Q-x)(M-x)) (1 - cos gamma)
        expected = (40.0 / 243.0) * (1 - np.cos(gamma))
        assert de == pytest.approx(expected, rel=1e-9)


def test_instability_report_coefficients():
    rep = instability_experiment(0.25, 1e-2, dt=1e-4, t_final=5.0)
    assert rep.coeff_leading == pytest.approx(80.0 / 243.0, abs=1e-15)
    r = 0.25
    assert rep.coeff_linear == pytest.approx(-64 * r**7 * (1 + r) ** 2 / (1 - r) ** 9, abs=1e-15)
    assert rep.coeff_linear == pytest.approx(-0.0812884, abs=1e-6)
    assert rep.coeff_quadratic == pytest.approx(-3 * r**4 * (1 + r) ** 2 * (5 * r + 3) / (1 - r) ** 7, abs=1e-15)


def test_instability_initial_push_matches_prediction():
    rep = instability_experiment(0.25, 1e-2, dt=1e-4, t_final=2.0)
    assert rep.dydt2_measured == pytest.approx(rep.dydt2_predicted, rel=1e-6)
    assert rep.dydt2_measured == pytest.approx(rep.delta_ecal * 0.329218, rel=0.05)
    assert rep.q_error == pytest.approx(0.0, abs=1e-15)
    assert rep.m_error == 0.0
    assert rep.gamma_order == pytest.approx(2.0, abs=1e-3)


def test_instability_band_is_quadratically_confined():
    # the measured y-band matches the exact expansion of the evolution law:
    # linear term absent, quadratic coefficient -D, half-width sqrt(dE A / D)
    rep = instability_experiment(0.25, 1e-2, dt=1e-4, t_final=20.0)
    assert abs(rep.y_linear_fit) < 0.01 * abs(rep.coeff_linear)
    assert rep.y_quadratic_fit == pytest.approx(rep.coeff_quadratic, rel=1e-3)
    predicted_halfwidth = np.sqrt(rep.delta_ecal * rep.coeff_leading / abs(rep.coeff_quadratic))
    assert rep.y_max_abs == pytest.approx(predicted_halfwidth, rel=0.02)
    assert not rep.escaped  # band half-width ~0.215*gamma < exit threshold
    assert rep.exit_time_forward is None and rep.exit_time_backward is None


def test_instability_escape_at_larger_gamma():
    # for gamma large enough that the band half-width crosses the threshold,
    # the exit is detected in both time directions and is monotone
    rep = instability_experiment(0.25, 0.05, dt=1e-4, t_final=20.0)
    assert rep.escaped
    assert rep.exit_time_forward is not None
    assert rep.exit_time_forward > 0
    assert rep.monotone_escape


def test_instability_gamma_zero_is_quiescent():
    rep = instability_experiment(0.25, 0.0, dt=1e-3, t_final=1.0)
    assert rep.delta_ecal == 0.0
    assert rep.y_max_abs < 1e-10
    assert not rep.escaped


@pytest.mark.parametrize("eps0", [0.0, -1.0])
def test_instability_rejects_nonpositive_eps0(eps0):
    # an exit ball of radius <= 0 stopped both runs at their first sample
    with pytest.raises(ValueError, match="eps0"):
        instability_experiment(0.25, 1e-2, eps0=eps0)


def test_instability_rejects_bad_gamma():
    with pytest.raises(ValueError):
        instability_experiment(0.25, -0.1)
    with pytest.raises(ValueError):
        instability_experiment(0.25, 2.0)


def test_angle_distance():
    assert angle_distance(np.pi - 1e-9, -np.pi + 1e-9) < 3e-9
    assert angle_distance(0.0, np.pi) == pytest.approx(np.pi)
