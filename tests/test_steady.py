"""The equilibrium family inside the three-parameter class."""

import mpmath
import numpy as np
import pytest
import scipy.fft

from quadszego.dynamics import rhs
from quadszego.errors import ExtendedPrecisionUnavailable, QuadSzegoError
from quadszego.hardy import HardyCoefficients, conserved, j_and_flow, quadratic_products
from quadszego.steady import (
    SteadyV3Params,
    _family_coefficients_ld,
    _family_constants_ld,
    build_steady,
    family_constants,
    is_steady,
    explicit_example,
    steadiness_measure,
    suggested_trunc,
)


def test_theta_zero_is_monomial():
    u = build_steady(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=0.0), 8)
    expected = np.zeros(8, dtype=complex)
    expected[1] = 1.0
    assert np.allclose(u.coeffs, expected, atol=1e-15)


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
    # near the endpoint the family map is badly conditioned in double
    # precision; steadiness_measure escalates internally
    for theta in np.linspace(0, np.pi / 3, 50, endpoint=False)[[0, 13, 29, 41, 47]]:
        meas = steadiness_measure(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=float(theta)))
        assert meas.abs_j < 1e-11, theta
        assert meas.rhs_norm < 1e-11, theta


needs_float128 = pytest.mark.skipif(not hasattr(np, "float128"), reason="numpy has no float128 here")

# criterion 10's grid; the extended path starts at its point 47
STEADY_GRID = np.linspace(0, np.pi / 3, 50, endpoint=False)


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
    u2, abs2 = quadratic_products(coeffs, trunc)
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


@needs_float128
def test_conserved_j_sums_pairwise_at_millions_of_modes():
    # a BLAS dot product read 6.5e-13 here on one thread (3.1e-14 on two);
    # the kernel's pairwise grid mean reads 4.1e-14 whatever the BLAS threading
    theta = float(STEADY_GRID[49])
    params = SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=theta)
    u = HardyCoefficients(_family_coefficients_ld(params, suggested_trunc(theta)).astype(np.complex128))
    assert u.trunc == 2_464_553
    j = conserved(u).J
    assert j == j_and_flow(u.coeffs)[0]
    assert abs(j) == steadiness_measure(params).abs_j
    assert abs(j) < 1e-13
    assert is_steady(u, tol=1e-13)


def _mp_from_ld(x) -> mpmath.mpf:
    """Exact value of an 80-bit float: 64-bit mantissa times a power of 2."""
    mant, exp = np.frexp(np.float128(x))
    return mpmath.mpf((int(np.ldexp(mant, 64)), int(exp) - 64))


@needs_float128
def test_extended_coefficients_match_mpmath():
    theta = float(STEADY_GRID[49])
    n = suggested_trunc(theta)
    assert n == 2_464_553
    params = SteadyV3Params(scale=1.3, a=0.4, b_angle=2.1, theta=theta)
    coeffs = _family_coefficients_ld(params, n)
    _, _, p = _family_constants_ld(theta)
    q = p * np.exp(np.complex256(1j * params.b_angle))
    with mpmath.workdps(40):
        first = mpmath.mpc(_mp_from_ld(coeffs[1].real), _mp_from_ld(coeffs[1].imag))
        q_mp = mpmath.mpc(_mp_from_ld(q.real), _mp_from_ld(q.imag))
        for k in (1, n // 2, n - 1):
            ref = first * q_mp ** (k - 1)
            got = mpmath.mpc(_mp_from_ld(coeffs[k].real), _mp_from_ld(coeffs[k].imag))
            assert abs(got - ref) <= 1e-12 * abs(ref), k


def test_suggested_trunc_monotone_and_capped():
    ts = [0.1, 0.8, 1.0, 1.02, 1.031, 1.0312]
    truncs = [suggested_trunc(t) for t in ts]
    assert truncs == sorted(truncs)
    assert truncs[0] == 512
    assert all(t <= 6_000_000 for t in truncs)
    # the cap binds from theta ~ 1.0312, 1.6e-2 before pi/3
    assert truncs[-2] == 5_414_876
    assert truncs[-1] == 6_000_000


def test_extended_precision_missing_fails_loudly(monkeypatch):
    monkeypatch.delattr(np, "float128", raising=False)
    params = SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=1.0)
    with pytest.raises(ExtendedPrecisionUnavailable, match="float128") as info:
        steadiness_measure(params, trunc=64, extended=True)
    assert isinstance(info.value, QuadSzegoError)
    # the default escalation to 80 bits (theta=1.0 needs > 50k modes) fails alike
    with pytest.raises(ExtendedPrecisionUnavailable):
        steadiness_measure(params)
    # the double-precision branch does not need float128
    assert not steadiness_measure(params, trunc=64, extended=False).extended


def test_is_steady_rejects_ground_state():
    u = HardyCoefficients(0.5 ** np.arange(64))
    assert abs(conserved(u).J) == pytest.approx(16.0 / 9.0, abs=1e-12)
    assert not is_steady(u)


def test_is_steady_monomial_and_zero():
    z = np.zeros(8, dtype=complex)
    z[1] = 0.7
    assert is_steady(HardyCoefficients(z))
    assert is_steady(HardyCoefficients(np.zeros(4)))


def test_is_steady_samples_the_state_once(monkeypatch):
    # J, the flow and the products come from one inverse FFT; the flow and
    # the products keep their own forward transforms, so the consistency
    # check still compares two routes
    counts = {"ifft": 0, "fft": 0, "rfft": 0}
    for name in counts:

        def counting(*args, _name=name, _original=getattr(scipy.fft, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counting)
    assert is_steady(explicit_example(512), tol=1e-13)
    assert counts == {"ifft": 1, "fft": 2, "rfft": 1}


@pytest.mark.parametrize("trunc", [0, -3])
def test_nonpositive_trunc_rejected_before_any_work(trunc, monkeypatch):
    monkeypatch.delattr(np, "float128", raising=False)  # the 80-bit branch would raise first
    params = SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=0.5)
    for call in (lambda: build_steady(params, trunc), lambda: steadiness_measure(params, trunc=trunc, extended=True)):
        with pytest.raises(ValueError, match="trunc must be >= 1"):
            call()


def test_params_validation():
    with pytest.raises(ValueError):
        SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=np.pi / 3)
