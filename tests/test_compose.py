"""Monomial composition operator and flow commutation."""

import numpy as np
import pytest

from quadszego.dynamics import SimulationConfig
from quadszego.hardy import HardyCoefficients, conserved, sobolev_norm
from quadszego.compose import compose_zN, verify_flow_commutation
from quadszego.v3 import V3State, embed
from quadszego.waves import TravelingWaveSpec, build_profile


def test_identity_for_n_one():
    u = HardyCoefficients([1.0, 2.0, 3.0])
    assert compose_zN(u, 1) is u


def test_index_dilation():
    out = compose_zN(HardyCoefficients([1.0, 2.0]), 3)
    assert out == HardyCoefficients([1.0, 0.0, 0.0, 2.0])
    assert out.trunc == 4


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        compose_zN(HardyCoefficients([1.0]), 0)


def test_isometry_exact():
    rng = np.random.default_rng(0)
    u = HardyCoefficients(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    assert compose_zN(u, 3).norm() == u.norm()


def test_conserved_quantities_transform():
    u = HardyCoefficients(0.6 ** np.arange(48))
    base = conserved(u)
    for n in (2, 3):
        comp = conserved(compose_zN(u, n))
        assert comp.Q == pytest.approx(base.Q, rel=1e-14)
        assert comp.E == pytest.approx(base.E, rel=1e-13)
        assert comp.J == pytest.approx(base.J, rel=1e-14)
        assert comp.M == pytest.approx(n * base.M, rel=1e-14)


def test_sobolev_half_dilation_weight():
    # || w(z^N) ||_{H^{1/2}}^2 = sum (1 + kN) |w_hat(k)|^2
    u = HardyCoefficients([1.0, 0.5, 0.25])
    for n in (2, 3):
        lhs = sobolev_norm(compose_zN(u, n), 0.5) ** 2
        k = np.arange(3)
        rhs = np.sum((1 + k * n) * np.abs(u.coeffs) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_multiplicativity():
    rng = np.random.default_rng(1)
    u = HardyCoefficients(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    v = HardyCoefficients(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    # products on the circle are full-length coefficient convolutions
    lhs = compose_zN(HardyCoefficients(np.convolve(u.coeffs, v.coeffs)), 3)
    rhs = HardyCoefficients(np.convolve(compose_zN(u, 3).coeffs, compose_zN(v, 3).coeffs))
    m = max(lhs.trunc, rhs.trunc)
    assert np.allclose(lhs.padded(m), rhs.padded(m), atol=1e-14)


def test_composition_fixes_constants():
    u = HardyCoefficients([0.3 + 0.1j])
    assert compose_zN(u, 5) == u


def test_family_recomposition():
    # composing the one-pole family with z^2 reproduces the two-pole family
    one = build_profile(TravelingWaveSpec("I", 1.0, 0.5, 1), 128)
    two = build_profile(TravelingWaveSpec("I", 1.0, 0.5, 2), 255)
    assert compose_zN(one, 2) == two
    # pulsation unchanged, velocity divided by N
    s1 = TravelingWaveSpec("I", 1.0, 0.5, 1)
    s2 = TravelingWaveSpec("I", 1.0, 0.5, 2)
    assert s2.omega == s1.omega
    assert s2.c == pytest.approx(s1.c / 2)


def test_flow_commutation_v3_data():
    u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), 128)
    cfg = SimulationConfig(dt=1e-3, t_final=0.5, trunc=128, monitor_stride=125, tol_drift=1e-6)
    for n in (2, 3):
        assert verify_flow_commutation(u0, n, cfg) < 1e-6


def test_flow_commutation_constant():
    u0 = HardyCoefficients([0.7 + 0.2j, 0.0])
    cfg = SimulationConfig(dt=1e-3, t_final=0.5, trunc=2, monitor_stride=100, tol_drift=1e-6)
    assert verify_flow_commutation(u0, 4, cfg) < 1e-12
