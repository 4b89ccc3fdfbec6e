"""The equilibrium family inside the three-parameter class."""

import mpmath
import numpy as np
import pytest

from quadszego.cli import main
from quadszego.dynamics import rhs
from quadszego.hardy import HardyCoefficients, conserved, j_and_flow, quadratic_products
from quadszego.steady import (
    SteadyV3Params,
    build_steady,
    family_constants,
    is_steady,
    explicit_example,
    steadiness_measure,
    STEADY_TOL,
    suggested_trunc,
)


def test_theta_zero_is_monomial():
    u = build_steady(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=0.0), 8)
    expected = np.zeros(8, dtype=complex)
    expected[1] = 1.0
    assert np.allclose(u.coeffs, expected, atol=1e-15)


@pytest.mark.parametrize("trunc", [1, 2, 3, 8, 12, 15, 26])
def test_power_table_fills_every_mode(trunc):
    # s = floor(sqrt(trunc - 1)) rows of s modes, plus a partial row or none
    params = SteadyV3Params(scale=1.3, a=0.4, b_angle=2.1, theta=0.7)
    mean, c, p = family_constants(0.7)
    k = np.arange(1, trunc)
    expected = 1.3 * np.exp(0.4j) * np.concatenate([[mean], c * p ** (k - 1) * np.exp(2.1j * k)])
    assert np.allclose(build_steady(params, trunc).coeffs, expected, rtol=1e-14, atol=0)


def test_family_constants_at_pi_over_six():
    mean, c, p = family_constants(np.pi / 6)
    assert mean == pytest.approx(-np.sqrt(3) / 3)
    assert c == pytest.approx(4 / (3 * np.sqrt(11)))
    assert p == pytest.approx(5 / np.sqrt(33))


def test_pole_stays_inside_disc_on_grid():
    for theta in np.linspace(0, np.pi / 3, 200, endpoint=False):
        _, _, p = family_constants(theta)
        assert 0 <= p < 1


def test_explicit_example_is_steady():
    u = explicit_example(512)
    assert abs(conserved(u).J) < 1e-13
    assert rhs(u).norm() < 1e-13
    assert is_steady(u, tol=1e-13)


def test_example_equals_family_point():
    u = explicit_example(512)
    v = build_steady(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=np.pi / 6), 512)
    assert np.max(np.abs(u.coeffs - v.coeffs)) < 1e-14


def test_generic_theta_point():
    meas = steadiness_measure(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=np.pi / 6))
    assert meas.abs_j < 1e-12
    assert meas.rhs_norm < 1e-12


def test_steadiness_invariant_under_symmetries():
    rng = np.random.default_rng(0)
    for _ in range(4):
        params = SteadyV3Params(
            scale=float(rng.uniform(0.5, 2.0)),
            a=float(rng.uniform(0, 2 * np.pi)),
            b_angle=float(rng.uniform(0, 2 * np.pi)),
            theta=float(rng.uniform(0, 0.9)),
        )
        u = build_steady(params, 2048)
        scale3 = params.scale**3
        assert abs(conserved(u).J) < 1e-12 * max(scale3, 1.0)
        assert is_steady(u, tol=1e-11 * max(scale3, 1.0))


def test_theta_grid_subset():
    # near the endpoint the family map is badly conditioned in the constants;
    # build_steady takes them from 40 digits at every truncation
    for theta in np.linspace(0, np.pi / 3, 50, endpoint=False)[[0, 13, 29, 41, 47]]:
        meas = steadiness_measure(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=float(theta)))
        assert meas.abs_j < 1e-11, theta
        assert meas.rhs_norm < 1e-11, theta


needs_float128 = pytest.mark.skipif(not hasattr(np, "float128"), reason="numpy has no float128 here")

# criterion 10's grid; its last three points need more than 50k modes
STEADY_GRID = np.linspace(0, np.pi / 3, 50, endpoint=False)


def _family_constants_ld(theta: float):
    """The family constants in 80-bit arithmetic, for the reference below."""
    t = np.float128(theta)
    root = np.sqrt(np.float128(9) + 2 * np.cos(2 * t) - 2 * np.cos(4 * t))
    mean = -(2 * np.sqrt(np.float128(3)) / 3) * np.sin(t)
    c = (1 + 2 * np.cos(2 * t)) ** 2 / (3 * root)
    p = 4 * (2 + np.cos(2 * t)) * np.sin(t) / (np.sqrt(np.float128(3)) * root)
    return mean, c, p


def _measure_all_80_bit(params: SteadyV3Params, trunc: int) -> tuple[float, float, float]:
    """Reference: coefficients from per-element 80-bit powers, products,
    ``J`` and the flow all in complex256.  Returns ``|J|``, the flow norm and
    ``2 ||Pi(|u|^2)|| + ||u^2||``, the factor that turns an error in ``J``
    into an error in the flow."""
    mean, c, p = _family_constants_ld(params.theta)
    front = np.complex256(params.scale) * np.exp(np.complex256(1j * params.a))
    rot = np.exp(np.complex256(1j * params.b_angle))
    coeffs = np.zeros(trunc, dtype=np.complex256)
    coeffs[0] = front * mean
    coeffs[1:] = front * c * rot * (p * rot) ** np.arange(trunc - 1, dtype=np.float128)
    _, u2, abs2 = quadratic_products(coeffs, trunc)
    j = np.sum(u2 * np.conj(coeffs))
    flow = -1j * (2.0 * j * abs2 + np.conj(j) * u2)

    def norm(v):
        return float(np.sqrt(np.sum(np.abs(v) ** 2)))

    return float(abs(j)), norm(flow), 2.0 * norm(abs2) + norm(u2)


@needs_float128
def test_extended_measure_matches_all_80_bit_products():
    theta = float(STEADY_GRID[48])
    rng = np.random.default_rng(10)
    for a, b in rng.uniform(0, 2 * np.pi, (2, 2)):
        params = SteadyV3Params(scale=1.0, a=float(a), b_angle=float(b), theta=theta)
        meas = steadiness_measure(params)
        assert meas.extended and meas.trunc == 301_943
        ref_j, ref_flow, gain = _measure_all_80_bit(params, meas.trunc)
        assert abs(meas.abs_j - ref_j) <= 1e-15
        # |J| is round-off (~2.5e-14), so the flow norm can differ by a few
        # percent; the bound is what the |J| tolerance allows
        assert abs(meas.rhs_norm - ref_flow) <= 1e-15 * gain


def test_conserved_j_sums_pairwise_at_millions_of_modes():
    # a BLAS dot product read 6.5e-13 at this size on one thread (3.1e-14 on
    # two); the kernel's pairwise grid mean stays at round-off whatever the
    # BLAS threading
    theta = float(STEADY_GRID[49])
    params = SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=theta)
    u = build_steady(params, suggested_trunc(theta))
    assert u.trunc == 2_464_553
    j = conserved(u).J
    assert j == j_and_flow(u.coeffs)[0]
    assert abs(j) == steadiness_measure(params).abs_j
    assert abs(j) < 1e-13
    assert is_steady(u, tol=1e-13)


def test_coefficients_match_40_digit_family():
    # the true family member (theta, scale, a and b as given), not a rounded
    # pole factor: a q rounded to double or to 80 bits drifts by k times its
    # rounding, 2.4e-13 relative at the last mode for 80 bits
    theta = float(STEADY_GRID[49])
    n = suggested_trunc(theta)
    assert n == 2_464_553
    params = SteadyV3Params(scale=1.3, a=0.4, b_angle=2.1, theta=theta)
    coeffs = build_steady(params, n).coeffs
    with mpmath.workdps(40):
        t = mpmath.mpf(theta)
        root = mpmath.sqrt(9 + 2 * mpmath.cos(2 * t) - 2 * mpmath.cos(4 * t))
        mean = -(2 * mpmath.sqrt(3) / 3) * mpmath.sin(t)
        c = (1 + 2 * mpmath.cos(2 * t)) ** 2 / (3 * root)
        p = 4 * (2 + mpmath.cos(2 * t)) * mpmath.sin(t) / (mpmath.sqrt(3) * root)
        front = params.scale * mpmath.expj(params.a)
        assert family_constants(theta) == (float(mean), float(c), float(p))
        for k in (0, 1, 2, 1000, n // 2, n - 1):
            ref = front * mean if k == 0 else front * c * p ** (k - 1) * mpmath.expj(k * mpmath.mpf(params.b_angle))
            assert abs(mpmath.mpc(coeffs[k]) - ref) <= 4 * np.finfo(float).eps * abs(ref), k


def test_steady_runs_without_float128(monkeypatch):
    # numpy has no float128 on Windows or macOS arm64
    monkeypatch.delattr(np, "float128", raising=False)
    monkeypatch.delattr(np, "complex256", raising=False)
    for theta in STEADY_GRID[[45, 47, 48, 49]]:
        meas = steadiness_measure(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=float(theta)))
        assert meas.abs_j < STEADY_TOL and meas.rhs_norm < STEADY_TOL, theta
    assert main(["steady", "--theta", "1.0262536001726656", "--verify"]) == 0


def test_suggested_trunc_monotone_and_capped():
    ts = [0.1, 0.8, 1.0, 1.02, 1.031, 1.0312]
    truncs = [suggested_trunc(t) for t in ts]
    assert truncs == sorted(truncs)
    assert truncs[0] == 512
    assert all(t <= 6_000_000 for t in truncs)
    # the cap binds from theta ~ 1.0312, 1.6e-2 before pi/3
    assert truncs[-2] == 5_414_876
    assert truncs[-1] == 6_000_000


def test_is_steady_rejects_ground_state():
    u = HardyCoefficients(0.5 ** np.arange(64))
    assert abs(conserved(u).J) == pytest.approx(16.0 / 9.0, abs=1e-12)
    assert not is_steady(u)


def test_is_steady_monomial_and_zero():
    z = np.zeros(8, dtype=complex)
    z[1] = 0.7
    assert is_steady(HardyCoefficients(z))
    assert is_steady(HardyCoefficients(np.zeros(4)))


def test_is_steady_samples_the_state_once(fft_counts):
    # is_steady is the J test: one inverse FFT and no forward transform
    assert is_steady(explicit_example(512), tol=1e-13)
    assert fft_counts == {"ifft": 1, "fft": 0, "rfft": 0}


@pytest.mark.parametrize("trunc", [0, -3])
def test_nonpositive_trunc_rejected_before_any_work(trunc):
    params = SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=0.5)
    calls = (
        lambda: build_steady(params, trunc),
        lambda: steadiness_measure(params, trunc=trunc, extended=True),
        lambda: explicit_example(trunc),  # trunc 0 raised IndexError here
    )
    for call in calls:
        with pytest.raises(ValueError, match="trunc must be >= 1"):
            call()


def test_params_validation():
    with pytest.raises(ValueError):
        SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=np.pi / 3)
