"""Traveling-wave families, profile equations, arc standing waves."""

import numpy as np
import pytest

from quadszego.errors import MeasureMismatch, TruncationTooSmall
from quadszego.hardy import HardyCoefficients
from quadszego.waves import (
    TravelingWaveSpec,
    build_profile,
    residual_profile,
    residual_traveling,
    standing_wave_arc,
    theta_from_rminus,
    verify_standing,
)


# ---------------------------------------------------------------- spec


def test_family_one_parameters():
    spec = TravelingWaveSpec("I", 1.0, 0.5, 1)
    assert spec.omega == pytest.approx((3 - 0.25) / 0.75**3, abs=1e-12)
    assert spec.c == pytest.approx(1.0 / 0.75**2, abs=1e-12)


def test_family_two_parameters():
    spec = TravelingWaveSpec("II", 1.0, 0.5, 2)
    r2 = 0.25
    assert spec.omega == pytest.approx(r2**2 * (1 + 5 * r2) * (3 + 5 * r2) / 0.75**4, abs=1e-12)
    assert spec.c == pytest.approx(-(r2**2) * (3 + 5 * r2) / (2 * 0.75**3), abs=1e-12)


def test_velocity_never_zero():
    for family in ("I", "II"):
        for p in (0.1, 0.5, 0.9):
            assert TravelingWaveSpec(family, 1.0, p, 1).c != 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        TravelingWaveSpec("III", 1.0, 0.5, 1)
    with pytest.raises(ValueError):
        TravelingWaveSpec("I", 1.0, 1.5, 1)
    with pytest.raises(ValueError):
        TravelingWaveSpec("I", 1.0, 0.5, 0)
    with pytest.raises(ValueError):
        TravelingWaveSpec("I", 0.0, 0.5, 1)


# ---------------------------------------------------------------- profiles


def test_profile_family_one_geometric():
    prof = build_profile(TravelingWaveSpec("I", 1.0, 0.5, 1), 64)
    assert np.allclose(prof.coeffs, 0.5 ** np.arange(64))


def test_profile_family_two_mean_shift():
    prof = build_profile(TravelingWaveSpec("II", 1.0, 0.5, 1), 64)
    assert prof.coeffs[0] == pytest.approx(-2.0 / 3.0)
    assert np.allclose(prof.coeffs[1:], 0.5 ** np.arange(1, 64))
    # oracle: quadrature projection of the closed-form boundary values
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    vals = -(1 + 0.25) / (1 - 0.25) + 1.0 / (1 - 0.5 * z)
    for k in range(4):
        coeff = np.mean(vals * np.exp(-2j * np.pi * k * np.arange(4096) / 4096))
        assert prof.coeffs[k] == pytest.approx(coeff, abs=1e-12)


def test_profile_sparse_in_z_cubed():
    prof = build_profile(TravelingWaveSpec("I", 1.0, 0.5, 3), 256)
    mask = np.ones(256, dtype=bool)
    mask[::3] = False
    assert np.all(prof.coeffs[mask] == 0)


def test_profile_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        build_profile(TravelingWaveSpec("I", 1.0, 0.9, 1), 64)


# ---------------------------------------------------------------- residuals


@pytest.mark.parametrize("family", ["I", "II"])
@pytest.mark.parametrize("n", [1, 2])
def test_residual_traveling_families(family, n):
    spec = TravelingWaveSpec(family, 1.0, 0.5, n)
    prof = build_profile(spec, 256)
    assert residual_traveling(prof, spec.omega, spec.c) < 1e-10


def test_residual_traveling_constant():
    v0 = HardyCoefficients([1.0, 0.0])
    assert residual_traveling(v0, 3.0, 17.0) < 1e-15


def test_residual_traveling_rejects_generic_data():
    rng = np.random.default_rng(11)
    v0 = HardyCoefficients((rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 0.7 ** np.arange(32))
    assert residual_traveling(v0, 2.0, 1.0) > 0.1


def test_family_one_continuity_to_constant():
    # p -> 0 degenerates to the constant profile; residual stays tiny
    spec = TravelingWaveSpec("I", 1.0, 1e-8, 1)
    prof = build_profile(spec, 16)
    assert residual_traveling(prof, spec.omega, spec.c) < 1e-12


def test_residual_profile_ground_state():
    u = HardyCoefficients(0.6 ** np.arange(256))
    assert residual_profile(u, 4.125) < 1e-12


def test_residual_profile_mean_shifted():
    arr = 0.5 ** np.arange(256).astype(complex)
    arr[0] += -5.0 / 3.0
    assert residual_profile(HardyCoefficients(arr), -3.0) < 1e-12


def test_residual_profile_zero():
    assert residual_profile(HardyCoefficients([0.0, 0.0]), 7.0) == 0.0


def test_traveling_grid_residuals():
    for family in ("I", "II"):
        for lam in (0.5, 2.0):
            for p in (0.2, 0.8):
                for n in (1, 3):
                    trunc = 1024 if p >= 0.8 else 256
                    spec = TravelingWaveSpec(family, lam, p, n)
                    res = residual_traveling(build_profile(spec, trunc), spec.omega, spec.c)
                    assert res < 1e-9, (family, lam, p, n, res)


# ---------------------------------------------------------------- standing waves


def test_theta_from_rminus():
    assert theta_from_rminus(0.25 / 3) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        theta_from_rminus(0.2)


def test_single_arc_coefficients():
    theta = 0.25
    u = standing_wave_arc(theta, [(0.0, 2 * np.pi * theta)], 128)
    assert u.coeffs[0] == pytest.approx(theta / (1 + 2 * theta))
    k = np.arange(1, 128)
    expected = (1 - np.exp(-2j * np.pi * k * theta)) / (2j * np.pi * k * (1 + 2 * theta))
    assert np.allclose(u.coeffs[1:], expected, atol=1e-15)
    # oracle: quadrature of the indicator against e^{-ikx}
    n = 1 << 16
    x = 2 * np.pi * (np.arange(n) + 0.5) / n
    ind = (x < 2 * np.pi * theta).astype(float) / (1 + 2 * theta)
    for kk in (1, 5):
        quad = np.mean(ind * np.exp(-1j * kk * x))
        assert u.coeffs[kk] == pytest.approx(quad, abs=1e-8)


def test_two_arc_additivity():
    theta = 0.3
    arcs = [(0.0, 2 * np.pi * 0.1), (1.0, 1.0 + 2 * np.pi * 0.2)]
    u = standing_wave_arc(theta, arcs, 64)
    u1 = standing_wave_arc(0.1, [arcs[0]], 64)
    u2 = standing_wave_arc(0.2, [arcs[1]], 64)
    # indicators add; only the 1/(1+2 theta) scale differs
    combined = (u1.coeffs * (1 + 0.2) + u2.coeffs * (1 + 0.4)) / (1 + 0.6)
    assert np.allclose(u.coeffs, combined, atol=1e-14)


def test_measure_mismatch_rejected():
    with pytest.raises(MeasureMismatch):
        standing_wave_arc(0.25, [(0.0, 1.0)], 64)


def test_full_circle_rejected():
    with pytest.raises(ValueError):
        standing_wave_arc(1.0, [(0.0, 2 * np.pi)], 64)


def test_overlapping_arcs_rejected():
    # two copies of [0, pi/4] pass the measure check at theta = 0.25 but sum
    # to 2 Pi(1_B) / (1 + 2 theta), no indicator: verify_standing read 0.111
    with pytest.raises(ValueError, match="overlap"):
        standing_wave_arc(0.25, [(0.0, np.pi / 4), (0.0, np.pi / 4)], 4096)
    with pytest.raises(ValueError, match="overlap"):  # unsorted, partly overlapping
        standing_wave_arc(0.25, [(0.1, np.pi / 4 + 0.1), (0.0, np.pi / 4)], 64)


def test_adjacent_arcs_match_their_union():
    # arcs sharing an endpoint stay valid, in either order, and build the
    # indicator of their union up to round-off
    union = standing_wave_arc(0.25, [(0.0, np.pi / 2)], 64)
    for arcs in ([(0.0, np.pi / 4), (np.pi / 4, np.pi / 2)], [(np.pi / 4, np.pi / 2), (0.0, np.pi / 4)]):
        assert np.allclose(standing_wave_arc(0.25, arcs, 64).coeffs, union.coeffs, atol=1e-15)


@pytest.mark.parametrize("trunc", [0, -3])
def test_standing_wave_rejects_nonpositive_trunc(trunc):
    # trunc 0 raised IndexError from out[0]
    with pytest.raises(ValueError, match=f"trunc must be >= 1, got {trunc}"):
        standing_wave_arc(0.25, [(0.0, np.pi / 2)], trunc)


def test_verify_standing_residual_and_decay():
    theta = 0.25
    arcs = [(0.0, 2 * np.pi * theta)]
    res = verify_standing(standing_wave_arc(theta, arcs, 8192), 16)
    assert res < 1e-3
    res2 = verify_standing(standing_wave_arc(theta, arcs, 16384), 16)
    assert res2 <= 0.65 * res  # at least linear decay in 1/trunc


def test_verify_standing_constant_identity():
    # u = 1/3 solves u = 2 Pi(|u|^2) + u^2: 1/3 - 2/9 - 1/9 = 0
    u = HardyCoefficients([1.0 / 3.0, 0.0, 0.0, 0.0])
    assert verify_standing(u, 1) < 1e-16


def test_verify_standing_zero():
    u = HardyCoefficients(np.zeros(8))
    assert verify_standing(u, 2) == 0.0


def test_verify_standing_headroom_guard():
    # past trunc/4 the tail dominates; no modes at all checked nothing and read 0.0
    u = standing_wave_arc(0.25, [(0.0, np.pi / 2)], 64)
    for modes_checked in (32, 0, -3):
        with pytest.raises(ValueError, match="modes_checked"):
            verify_standing(u, modes_checked)
