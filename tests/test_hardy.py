"""Core representation: inner product, calculus, products, conserved quantities."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import quadszego
from quadszego.hardy import (
    HardyCoefficients,
    _next_fast_len,
    apply_D,
    conserved,
    inner_product,
    j_and_flow,
    quadratic_products,
    sobolev_norm,
)
from quadszego.waves import TravelingWaveSpec, build_profile, residual_traveling


def geometric(lam, p, m):
    return HardyCoefficients(lam * np.asarray(p, dtype=complex) ** np.arange(m))


def random_state(rng, m=32, decay=None):
    decay = rng.uniform(0.3, 0.95) if decay is None else decay
    coeffs = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * decay ** np.arange(m)
    return HardyCoefficients(coeffs)


# ---------------------------------------------------------------- inner product


def test_inner_product_parseval_simple():
    u = HardyCoefficients([1.0, 1.0])
    assert inner_product(u, u) == pytest.approx(2.0)


def test_inner_product_mode_orthogonality():
    assert inner_product(HardyCoefficients([0, 1]), HardyCoefficients([1, 0])) == 0


def test_inner_product_geometric_vs_quadrature():
    u = geometric(1.0, 0.5, 64)
    # oracle: 4096-point trapezoid quadrature of |u|^2 on the circle
    vals = np.polynomial.polynomial.polyval(np.exp(2j * np.pi * np.arange(4096) / 4096), u.coeffs)
    quad = np.mean(np.abs(vals) ** 2)
    assert inner_product(u, u).real == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-12)
    assert inner_product(u, u).real == pytest.approx(quad, abs=1e-12)


def test_inner_product_conjugate_symmetric():
    rng = np.random.default_rng(1)
    u, v = random_state(rng), random_state(rng, m=20)
    assert inner_product(u, v) == pytest.approx(np.conj(inner_product(v, u)), abs=1e-14)


def test_parseval_quadrature_property():
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = random_state(rng, m=256, decay=0.97)
        vals = np.polynomial.polynomial.polyval(np.exp(2j * np.pi * np.arange(4096) / 4096), u.coeffs)
        assert abs(inner_product(u, u).real - np.mean(np.abs(vals) ** 2)) < 1e-10


# ---------------------------------------------------------------- sobolev norm


def test_sobolev_constant():
    for s in (0.0, 0.5, 2.0):
        assert sobolev_norm(HardyCoefficients([1.0]), s) == 1.0


def test_sobolev_single_mode():
    assert sobolev_norm(HardyCoefficients([0.0, 1.0]), 0.5) == pytest.approx(np.sqrt(2))


def test_sobolev_direct_sum():
    assert sobolev_norm(HardyCoefficients([1, 1, 1]), 1.0) == pytest.approx(np.sqrt(14))


def test_sobolev_rejects_negative_s():
    with pytest.raises(ValueError):
        sobolev_norm(HardyCoefficients([1.0]), -0.5)


# ---------------------------------------------------------------- D


def test_apply_D_kills_constants():
    assert apply_D(HardyCoefficients([1, 1])) == HardyCoefficients([0, 1])


def test_apply_D_multiplies_by_index():
    assert apply_D(HardyCoefficients([0, 0, 3])) == HardyCoefficients([0, 0, 6])


def test_apply_D_linear():
    rng = np.random.default_rng(3)
    u, v = random_state(rng), random_state(rng)
    lhs = apply_D(HardyCoefficients(u.coeffs + v.coeffs))
    assert np.allclose(lhs.coeffs, apply_D(u).coeffs + apply_D(v).coeffs, atol=1e-14)


# ---------------------------------------------------------------- products


def _direct_quadratic_products(c, n):
    """Reference: ``u^2`` and ``Pi(|u|^2)`` by direct convolution, n modes."""
    m = len(c)
    abs2 = np.zeros(n, dtype=c.dtype)
    keep = min(n, m)
    abs2[:keep] = np.convolve(c, np.conj(c[::-1]))[m - 1 : m - 1 + keep]
    return np.convolve(c, c)[:n], abs2


@pytest.mark.parametrize("m", [2, 3, 257, 512, 1000])
def test_quadratic_products_match_direct_convolution(m):
    c = random_state(np.random.default_rng(m), m=m).coeffs
    scale = np.vdot(c, c).real
    for n in (m, 2 * m - 1):
        _, u2, abs2 = quadratic_products(c, n)
        ref_u2, ref_abs2 = _direct_quadratic_products(c, n)
        assert u2.dtype == abs2.dtype == np.complex128
        assert u2.shape == abs2.shape == (n,)
        assert np.max(np.abs(u2 - ref_u2)) <= 1e-13 * scale
        assert np.max(np.abs(abs2 - ref_abs2)) <= 1e-13 * scale
        assert not np.any(abs2[m:])  # Pi(|u|^2) has no modes at or above M


@pytest.mark.skipif(not hasattr(np, "float128"), reason="numpy has no float128 here")
def test_quadratic_products_keep_extended_precision():
    c = random_state(np.random.default_rng(7), m=300, decay=0.97).coeffs.astype(np.complex256)
    scale = np.vdot(c, c).real
    _, u2, abs2 = quadratic_products(c, 599)
    ref_u2, ref_abs2 = _direct_quadratic_products(c, 599)
    assert u2.dtype == abs2.dtype == np.complex256
    # well below double round-off: the 80-bit path really ran in 80 bits
    assert np.max(np.abs(u2 - ref_u2)) <= 1e-17 * scale
    assert np.max(np.abs(abs2 - ref_abs2)) <= 1e-17 * scale


def test_quadratic_products_tail_heavy_datum():
    # |p| = 0.5 at trunc 512: the direct product runs deep into subnormals
    c = geometric(1.0, 0.5, 512).coeffs
    scale = np.vdot(c, c).real
    _, u2, abs2 = quadratic_products(c, 1023)
    ref_u2, ref_abs2 = _direct_quadratic_products(c, 1023)
    assert np.all(np.isfinite(u2)) and np.all(np.isfinite(abs2))
    assert np.max(np.abs(u2 - ref_u2)) <= 1e-13 * scale
    assert np.max(np.abs(abs2 - ref_abs2)) <= 1e-13 * scale


def test_quadratic_products_rejects_aliased_length():
    c = np.ones(4, dtype=complex)
    for n in (0, 8):
        with pytest.raises(ValueError):
            quadratic_products(c, n)


# ---------------------------------------------------------------- one J step


@pytest.mark.parametrize("m", [2, 3, 256, 1000])
def test_every_j_route_agrees_bit_for_bit(m):
    c = random_state(np.random.default_rng(m), m=m).coeffs
    j = j_and_flow(c)[0]
    assert conserved(HardyCoefficients(c)).J == complex(j)
    for n in (m, 2 * m - 1):
        assert quadratic_products(c, n)[0] == j


# ---------------------------------------------------------------- blocked layout


def test_blocked_layout_runs_two_passes_each_way(blocked, fft_counts):
    quadratic_products(random_state(np.random.default_rng(4), m=300).coeffs, 599)
    # samples: 2 inverse passes; |u|^2 and u^2: 2 forward passes each, no real FFT
    assert fft_counts == {"ifft": 2, "fft": 4, "rfft": 0}


@pytest.mark.parametrize("m", [2, 3, 257, 512, 1000])
def test_blocked_products_match_direct_convolution(blocked, m):
    test_quadratic_products_match_direct_convolution(m)


@pytest.mark.parametrize("m", [2, 3, 256, 1000])
def test_blocked_j_routes_agree_bit_for_bit(blocked, m):
    test_every_j_route_agrees_bit_for_bit(m)


@pytest.mark.skipif(not hasattr(np, "float128"), reason="numpy has no float128 here")
def test_blocked_products_keep_extended_precision(blocked):
    test_quadratic_products_keep_extended_precision()


def test_next_fast_len_matches_scipy():
    for n in [*range(1, 20_000), 2 * 2_464_553 - 1, 2 * 6_000_000 - 1]:
        assert _next_fast_len(n) == scipy.fft.next_fast_len(n), n


def test_residual_traveling_reads_j_of_j_and_flow():
    # the residual formula with J from j_and_flow and the products from
    # quadratic_products, each on its own inverse FFT, gives the same float
    spec = TravelingWaveSpec("II", 0.7, 0.5 * np.exp(0.3j), 2)
    v0 = build_profile(spec, 256)
    j = j_and_flow(v0.coeffs)[0]
    _, u2, abs2 = quadratic_products(v0.coeffs, 511)
    res = -(2.0 * j * abs2 + np.conj(j) * u2)
    res[:256] += spec.omega * v0.coeffs + spec.c * apply_D(v0).coeffs
    assert residual_traveling(v0, spec.omega, spec.c) == float(np.linalg.norm(res))


def test_residual_traveling_takes_one_inverse_fft(fft_counts):
    spec = TravelingWaveSpec("I", 1.0, 0.5, 1)
    v0 = build_profile(spec, 256)
    residual_traveling(v0, spec.omega, spec.c)
    assert fft_counts == {"ifft": 1, "fft": 1, "rfft": 1}


def test_conserved_takes_no_forward_fft(fft_counts):
    u = random_state(np.random.default_rng(3), m=512)
    conserved(u)
    assert fft_counts == {"ifft": 1, "fft": 0, "rfft": 0}


def test_szego_abs2_ground_state_mass():
    u = geometric(1.0, 0.5, 64)
    # coefficient 0 of Pi(|u|^2) is Q = 1/(1-1/4); oracle: quadrature
    abs2_0 = quadratic_products(u.coeffs, 1)[2][0]
    vals = np.polynomial.polynomial.polyval(np.exp(2j * np.pi * np.arange(4096) / 4096), u.coeffs)
    assert abs2_0.real == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs2_0.real == pytest.approx(np.mean(np.abs(vals) ** 2), abs=1e-12)


# ---------------------------------------------------------------- conserved


def test_conserved_single_mode():
    lam = 0.7 + 0.2j
    c = conserved(HardyCoefficients([lam]))
    assert c.Q == pytest.approx(abs(lam) ** 2)
    assert c.M == 0.0
    assert c.J == pytest.approx(abs(lam) ** 2 * lam)
    assert c.E == pytest.approx(0.5 * abs(lam) ** 6)


def test_conserved_ground_state_closed_forms():
    c = conserved(geometric(1.0, 0.5, 128))
    assert c.Q == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert c.M == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert c.E == pytest.approx(0.5 / 0.75**4, abs=1e-10)
    # oracle: direct double sum at M=128
    u = geometric(1.0, 0.5, 128).coeffs
    j_direct = sum(
        u[k] * u[l] * np.conj(u[k + l]) for k in range(64) for l in range(64)
    )
    assert c.J == pytest.approx(j_direct, abs=1e-12)


def test_conserved_translated_ground_state_values():
    # embedded b=-2/3, c=1/2, p=1/2 state at r=1/4
    r = 0.25
    m = 256
    coeffs = np.zeros(m, dtype=complex)
    coeffs[0] = -2 * r / (1 - r)
    coeffs[1:] = np.sqrt(r) * np.sqrt(r) ** np.arange(m - 1)
    c = conserved(HardyCoefficients(coeffs))
    assert c.Q == pytest.approx(0.777778, abs=1e-6)
    assert c.M == pytest.approx(0.444444, abs=1e-6)
    assert c.J.real == pytest.approx(-0.629630, abs=1e-6)
    assert abs(c.J.imag) < 1e-15
    assert c.E == pytest.approx(0.198216, abs=1e-6)


def test_conserved_phase_and_translation_invariance():
    rng = np.random.default_rng(6)
    u = random_state(rng, m=24)
    base = conserved(u)
    for _ in range(5):
        theta, alpha = rng.uniform(0, 2 * np.pi, 2)
        rotated = HardyCoefficients(
            np.exp(1j * theta) * u.coeffs * np.exp(1j * alpha * np.arange(u.trunc))
        )
        c = conserved(rotated)
        assert c.Q == pytest.approx(base.Q, rel=1e-13)
        assert c.M == pytest.approx(base.M, rel=1e-13)
        assert c.E == pytest.approx(base.E, rel=1e-12)


def test_energy_inequality_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(500):
        c = conserved(random_state(rng, m=int(rng.integers(2, 40))))
        bound = 0.5 * c.Q**2 * (c.Q + c.M)
        assert c.E <= bound * (1 + 1e-12)


def test_energy_equality_on_geometric_states():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        p = rng.uniform(0.0, 0.85) * np.exp(2j * np.pi * rng.uniform())
        c = conserved(geometric(lam, p, 256))
        bound = 0.5 * c.Q**2 * (c.Q + c.M)
        assert abs(c.E - bound) <= 1e-12 * bound


def test_e_is_half_j_squared():
    rng = np.random.default_rng(9)
    c = conserved(random_state(rng))
    assert c.E == 0.5 * abs(c.J) ** 2


def test_conserved_of_a_huge_state_has_infinite_energy():
    # Python float ** raised OverflowError here for a state of norm >= 1e51
    c = conserved(HardyCoefficients([1e70]))
    assert c.E == np.inf
    assert c.J == pytest.approx(1e210)
    # with two modes M was 0 * inf = NaN, and J (so E) NaN from inf * 0 in
    # the grid product
    c = conserved(HardyCoefficients([1e200, 1e200]))
    assert c.Q == c.M == c.E == np.inf
    assert not np.isnan([c.Q, c.M, c.E, c.J.real, c.J.imag]).any()
    # J = 2080 a^3 is finite, though the grid sum it comes from overflows
    a = 5e304 ** (1 / 3)
    assert conserved(HardyCoefficients(np.full(64, a))).J == pytest.approx(2080 * a**3, rel=1e-13)


def test_j_is_exactly_cubic_under_powers_of_two():
    # what conserved relies on to rescale a state whose grid product overflows
    rng = np.random.default_rng(12)
    u = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    j = conserved(HardyCoefficients(u)).J
    for k in (-100, 7, 200):
        jk = conserved(HardyCoefficients(u * 2.0**k)).J
        assert jk == complex(np.ldexp(j.real, 3 * k), np.ldexp(j.imag, 3 * k))


# ---------------------------------------------------------------- value semantics


def test_equality_after_zero_padding():
    assert HardyCoefficients([1.0, 2.0]) == HardyCoefficients([1.0, 2.0, 0.0, 0.0])
    assert HardyCoefficients([1.0, 2.0]) != HardyCoefficients([1.0, 2.0, 3.0])


def test_signed_zeros_hash_alike():
    # equal values must hash alike; -0.0 == 0.0 in every component
    pairs = [
        (HardyCoefficients([0.0, 1.0]), HardyCoefficients([-0.0, 1.0])),
        (HardyCoefficients([1.0, 0.0]), HardyCoefficients([1.0, complex(-0.0, -0.0)])),
        (HardyCoefficients([1j]), HardyCoefficients([complex(-0.0, 1.0)])),
    ]
    for u, v in pairs:
        assert u == v
        assert hash(u) == hash(v)
        assert len({u, v}) == 1


def test_coefficients_immutable():
    u = HardyCoefficients([1.0, 2.0])
    with pytest.raises(ValueError):
        u.coeffs[0] = 5.0


def test_json_round_trip_exact():
    rng = np.random.default_rng(10)
    u = random_state(rng, m=17)
    payload = json.loads(json.dumps(u.to_json()))
    back = HardyCoefficients.from_json(payload)
    assert np.array_equal(back.coeffs, u.coeffs)
    assert back.trunc == u.trunc


def test_json_rejects_mismatched_trunc():
    with pytest.raises(ValueError):
        HardyCoefficients.from_json({"trunc": 3, "re": [1.0], "im": [0.0]})


@pytest.mark.parametrize(
    "payload, message",
    [({"trunc": 2, "re": [1.0, 0.5]}, "'im'"), ([1.0, 0.5], "JSON object"), ({"trunc": 1, "re": 1.0, "im": 0.0}, "trunc")],
    ids=["missing_im", "list", "scalar_re"],
)
def test_json_rejects_malformed_payload(payload, message):
    # these raised KeyError / TypeError, which the CLI reports as a crash
    with pytest.raises(ValueError, match=message):
        HardyCoefficients.from_json(payload)


def test_import_loads_no_scipy():
    # scipy.fft alone took most of the package's import time; the kernel
    # transforms with numpy.fft, in the blocked layout too, and the
    # integrator is the package's own DOP853, so no run loads any of scipy
    src = str(Path(quadszego.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, quadszego, quadszego.cli\n"
        "from quadszego.dynamics import SimulationConfig, integrate\n"
        "from quadszego.hardy import _BLOCKED_FROM, HardyCoefficients\n"
        "from quadszego.steady import SteadyV3Params, steadiness_measure\n"
        "from quadszego.v3 import V3State, v3_integrate\n"
        "integrate(HardyCoefficients([1.0, 0.5, 0.25]), SimulationConfig(dt=0.01, t_final=0.05, trunc=8, monitor_stride=2))\n"
        "v3_integrate(V3State(b=0.3, c=1.0, p=0.4), 0.01, 0.05)\n"
        "steadiness_measure(SteadyV3Params(1.0, 0.0, 0.0, 0.9), trunc=_BLOCKED_FROM // 2 + 1)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
