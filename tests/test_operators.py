"""Hankel/Toeplitz matrices, spectra, dominance, and the operator identities."""

import numpy as np
import pytest
import scipy.linalg

from quadszego.dynamics import SimulationConfig, integrate
from quadszego.errors import NotEigenvector, PoleCollision
from quadszego.hardy import HardyCoefficients, conserved, inner_product
from quadszego.operators import (
    a_u,
    hankel,
    shifted_hankel,
    sketched_hankel_pair,
    spectral_report,
    verify_au_minus_d,
    verify_lax,
    verify_syst_pl,
)


def geometric(lam, p, m):
    return HardyCoefficients(lam * np.asarray(p, dtype=complex) ** np.arange(m))


def multi_pole(n, alpha, m):
    """Normalized profile N/(1 - alpha z^N)."""
    arr = np.zeros(m, dtype=complex)
    arr[::n] = n * np.asarray(alpha, dtype=complex) ** np.arange(len(arr[::n]))
    return HardyCoefficients(arr)


def random_state(rng, m=24):
    decay = rng.uniform(0.3, 0.9)
    return HardyCoefficients(
        (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * decay ** np.arange(m)
    )


# ---------------------------------------------------------------- construction


def test_hankel_of_z():
    h = hankel(HardyCoefficients([0.0, 1.0]))
    expected = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(h, expected)


def test_shifted_hankel_kills_constants():
    k = shifted_hankel(HardyCoefficients([3.0, 0.0]))
    assert np.all(k == 0)


def test_matrix_size_rejected_below_two():
    for build in (hankel, shifted_hankel, a_u):
        with pytest.raises(ValueError):
            build(HardyCoefficients([1.0]))


def test_hankel_structure_random():
    rng = np.random.default_rng(0)
    u = random_state(rng, m=12)
    h = hankel(u)
    k = shifted_hankel(u)
    for j in range(12):
        for l in range(12):
            expected = u.coeffs[j + l] if j + l < 12 else 0.0
            assert h[j, l] == expected
            expected_k = u.coeffs[j + l + 1] if j + l + 1 < 12 else 0.0
            assert k[j, l] == expected_k


@pytest.mark.parametrize("size", [2, 7, 12, 13, 30])
@pytest.mark.parametrize("offset", [0, 1])
def test_symbol_matrix_matches_index_gather(size, offset):
    # the window-view build against the gather u_hat(j + k + offset), zero
    # past trunc, for corners below, at and above trunc = 12: a corner of the
    # trunc-12 matrix, or the matrix of the state zero-padded to the size
    u = random_state(np.random.default_rng(size), m=12)
    full = np.zeros(2 * size + offset, dtype=complex)
    full[: min(len(full), 12)] = u.coeffs[: len(full)]
    j = np.arange(size)
    expected = full[j[:, None] + j[None, :] + offset]
    build = (hankel, shifted_hankel)[offset]
    mat = build(u.truncated(max(size, 12)))
    assert mat.flags.c_contiguous
    assert np.array_equal(mat[:size, :size], expected)


def test_a_u_hermitian_by_construction():
    rng = np.random.default_rng(2)
    u = random_state(rng)
    a = a_u(u)
    assert np.array_equal(a, a.conj().T)
    for size in (2, 13, u.trunc, u.trunc + 7):  # below, at and above the truncation
        col = u.padded(max(size, u.trunc))[:size]
        t = scipy.linalg.toeplitz(col, np.zeros(size, dtype=np.complex128))
        # A's corner reads only u_hat(0..size-1), so it is A of u.truncated(size)
        assert a_u(u.truncated(size)).tobytes() == (t + t.conj().T).tobytes()


# ---------------------------------------------------------------- squared operators


def squared_hankel_matrices(u):
    """Reference route: the explicit products ``H conj(H)`` and ``K conj(K)``."""
    h = hankel(u)
    k = shifted_hankel(u)
    return h @ np.conj(h), k @ np.conj(k)


def test_h2_equals_k2_plus_rank_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_state(rng, m=20)
        h2, k2 = squared_hankel_matrices(u)
        diff = h2 - k2 - np.outer(u.coeffs, np.conj(u.coeffs))
        assert np.max(np.abs(diff)) < 1e-12


def test_h2_of_single_mode():
    h2, _ = squared_hankel_matrices(HardyCoefficients([0.0, 1.0, 0.0]))
    assert np.allclose(h2, np.diag([1.0, 1.0, 0.0]))
    # single positive eigenvalue 1 with multiplicity 2 is the z-symbol structure;
    # the report sees one distinct level
    rep = spectral_report(HardyCoefficients([0.0, 1.0, 0.0]))
    assert rep.h2_eigs[0] == pytest.approx(1.0)
    assert rep.rank_H == 2 and rep.rank_K == 1


def evolved_two_pole_state():
    """V(4) datum after 200 RK4 steps at trunc 256: its tail is FFT round-off."""
    u0 = HardyCoefficients(2.0 * 0.4 ** np.arange(256) - 0.2 ** np.arange(256))
    cfg = SimulationConfig(dt=1e-3, t_final=0.2, trunc=256, monitor_stride=200)
    return integrate(u0, cfg).states[-1]


@pytest.mark.parametrize(
    "make_state",
    [
        lambda: random_state(np.random.default_rng(7), m=16),
        lambda: random_state(np.random.default_rng(8), m=24),
        evolved_two_pole_state,
    ],
    ids=["random16", "random24", "evolved_v4"],
)
def test_spectra_match_squared_matrix_eigenvalues(make_state):
    u = make_state()
    tol = 1e-10
    h2, k2 = squared_hankel_matrices(u)
    h_ref = np.linalg.eigvalsh(h2)[::-1]
    k_ref = np.linalg.eigvalsh(k2)[::-1]
    rep = spectral_report(u, tol=tol)
    assert np.max(np.abs(rep.h2_eigs - h_ref)) <= 1e-14 * h_ref[0]
    assert np.max(np.abs(rep.k2_eigs - k_ref)) <= 1e-14 * h_ref[0]
    assert rep.rank_H == int(np.sum(h_ref > tol * h_ref[0]))
    assert rep.rank_K == int(np.sum(k_ref > tol * h_ref[0]))


def test_spectra_descending_and_nonnegative():
    # the squared-matrix route gave -3.0e-17 (H^2) and -1.2e-17 (K^2) here
    u = HardyCoefficients(0.5 ** np.arange(64))
    rep = spectral_report(u)
    for eigs in (rep.h2_eigs, rep.k2_eigs):
        assert eigs.min() >= 0
        assert np.all(np.diff(eigs) <= 0)
    cfg = SimulationConfig(dt=1e-3, t_final=0.01, trunc=64, monitor_stride=5, n_spectrum=64)
    spectra = integrate(u, cfg).k2_spectra
    assert spectra.min() >= 0
    assert np.all(np.diff(spectra, axis=1) <= 0)


@pytest.mark.parametrize(
    "make_state",
    [
        lambda: random_state(np.random.default_rng(9), m=24),
        lambda: geometric(1.0, 0.9 * np.exp(0.7j), 256),
        lambda: HardyCoefficients(2.0 * 0.4 ** np.arange(256) - 0.2 ** np.arange(256)),
        evolved_two_pole_state,
    ],
    ids=["random24", "pole0.9", "criterion5", "evolved_v4"],
)
def test_sketched_singular_values_bound_holds(make_state):
    # both halves of the pair bracket the dense values of their own matrix
    u = make_state()
    h = hankel(u)
    sigmas = np.linalg.svdvals(h), np.linalg.svdvals(shifted_hankel(u))
    for width in (1, 2, 3, 6, 10, len(h)):
        for shift, ((s, r), sigma) in enumerate(zip(sketched_hankel_pair(h, width), sigmas)):
            assert len(s) == min(width, len(h) - shift)  # K's half reads M - 1 columns
            top = np.zeros_like(sigma)
            top[: len(s)] = s
            assert np.all(np.abs(sigma - top) <= r), width


def test_sketched_singular_values_rejects_bad_width():
    h = hankel(geometric(1.0, 0.5, 8))
    for width in (0, 9):
        with pytest.raises(ValueError):
            sketched_hankel_pair(h, width)
    # a corner of a longer state is not H with K as its shifted columns
    with pytest.raises(ValueError, match="truncated"):
        sketched_hankel_pair(hankel(geometric(1.0, 0.5, 16))[:8, :8], 3)


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
def test_pair_certifies_k_far_below_h(eps):
    # u_hat(0) = 1 carries H, K sees only the eps-sized tail: r_K must scale
    # with ||K||_F, not with ||H||_F, to pass the 16 M eps ||K||_F keep rule
    m = 256
    coeffs = np.zeros(m, dtype=complex)
    coeffs[0] = 1.0
    coeffs[1:] = eps * 0.5 ** np.arange(m - 1)
    u = HardyCoefficients(coeffs)
    h, k = hankel(u), shifted_hankel(u)
    for (s, r), mat in zip(sketched_hankel_pair(h, 6), (h, k)):
        assert r <= 16 * m * np.finfo(float).eps * np.linalg.norm(mat)
        sigma = np.linalg.svdvals(mat)
        top = np.zeros_like(sigma)
        top[: len(s)] = s
        assert np.all(np.abs(sigma - top) <= r)


@pytest.mark.parametrize("m", [2, 24, 256])
def test_hankel_frobenius_norms_are_mass_and_momentum(m):
    # ||H||_F^2 = sum (n+1) |u_hat(n)|^2 = Q + M and ||K||_F^2 = M
    u = random_state(np.random.default_rng(m), m=m)
    inv = conserved(u)
    assert np.sqrt(inv.Q + inv.M) == pytest.approx(np.linalg.norm(hankel(u)), rel=1e-14)
    assert np.sqrt(inv.M) == pytest.approx(np.linalg.norm(shifted_hankel(u)), rel=1e-14)


# ---------------------------------------------------------------- ranks & dominance


def test_rank_of_ground_state():
    rep = spectral_report(geometric(1.0, 0.5, 64))
    assert rep.rank_H == 1 and rep.rank_K == 1


def test_rank_of_generic_three_parameter_state():
    coeffs = np.zeros(64, dtype=complex)
    coeffs[0] = 1.0
    coeffs[1:] = 1.0 * 0.5 ** np.arange(63)
    rep = spectral_report(HardyCoefficients(coeffs))
    assert rep.rank_H == 2 and rep.rank_K == 1


def test_multi_pole_multiplicity_structure():
    u = multi_pole(3, 0.4, 512)
    rep = spectral_report(u)
    assert rep.rank_H == 3 and rep.rank_K == 3
    k_levels = [d for d in rep.dominance if d.label == "K"]
    assert len(k_levels) == 1
    assert k_levels[0].dim_F == 3 and k_levels[0].dim_E == 2
    h_levels = [d for d in rep.dominance if d.label == "H"]
    assert len(h_levels) == 1 and h_levels[0].dim_E == 1


def test_dominance_dimension_offset_always_one():
    rng = np.random.default_rng(4)
    for _ in range(5):
        rep = spectral_report(random_state(rng, m=16))
        for d in rep.dominance:
            assert abs(d.dim_E - d.dim_F) == 1


def test_orthogonality_of_unit_to_dominant_h_eigenvectors():
    # vectors of E_u(sigma) for K-dominant sigma are orthogonal to constants
    u = multi_pole(2, 0.45, 256)
    h2, k2 = squared_hankel_matrices(u)
    rep = spectral_report(u)
    sigma2 = next(d.sigma2 for d in rep.dominance if d.label == "K")
    eigs, vecs = np.linalg.eigh(h2)
    sel = np.abs(eigs - sigma2) < 1e-8 * eigs[-1]
    assert sel.sum() == 1  # dim E = dim F - 1 = 1
    for v in vecs[:, sel].T:
        assert abs(v[0]) < 1e-8


def test_reconstruction_from_k_dominant_projections():
    rng = np.random.default_rng(5)
    for u in [multi_pole(2, 0.4, 128), geometric(1.0, 0.6, 128), random_state(rng, m=24)]:
        rep = spectral_report(u)
        total = np.zeros(u.trunc, dtype=complex)
        for proj in rep.projections.values():
            total += proj.padded(u.trunc)
        assert np.linalg.norm(total - u.coeffs) < 1e-10


def test_unresolved_flag_on_clustered_levels():
    # nearly-degenerate pair: a small asymmetry splits the doubled level of
    # the z^2 family into two distinct levels with a tiny gap
    q = 0.5
    coeffs = (1 + 1e-3) * q ** np.arange(64) + (-q + 0j) ** np.arange(64)
    u = HardyCoefficients(coeffs)
    fine = spectral_report(u, tol=1e-10)
    assert not fine.unresolved
    gap = float(fine.k2_eigs[0] - fine.k2_eigs[1])
    assert gap > 0
    # a tol for which the retained levels sit inside the 10*tol warning band
    # but outside the clustering band must raise the flag (bands scale with
    # the leading H^2 eigenvalue)
    coarse = spectral_report(u, tol=gap / (3 * fine.h2_eigs[0]))
    assert coarse.unresolved


def test_spectral_report_rejects_bad_tol():
    with pytest.raises(ValueError):
        spectral_report(HardyCoefficients([1.0, 0.0]), tol=0.0)


def test_report_json_schema():
    rep = spectral_report(geometric(1.0, 0.5, 32))
    payload = rep.to_json()
    assert set(payload) >= {"h2_eigs", "k2_eigs", "rank_H", "rank_K", "dominance", "unresolved"}
    assert all(d["label"] in ("H", "K", "?") for d in payload["dominance"])


# ---------------------------------------------------------------- Lax identities


def test_lax_zero_symbol():
    res_k, res_h = verify_lax(HardyCoefficients([0.0, 0.0, 0.0]))
    assert res_k == 0.0 and res_h == 0.0


def test_lax_constant_symbol():
    res_k, res_h = verify_lax(HardyCoefficients([0.3 + 0.4j, 0.0, 0.0, 0.0]))
    assert res_k < 1e-13 and res_h < 1e-13


def test_lax_rational_symbols_block_residual():
    u = HardyCoefficients(0.5 ** np.arange(256) + np.concatenate([[0], (1 / 3) ** np.arange(255)]))
    res_k, res_h = verify_lax(u, block=64)
    assert res_k < 1e-9 and res_h < 1e-9


@pytest.mark.parametrize("block", [0, -3, 65])
def test_lax_rejects_block_outside_the_matrix(block):
    # an empty or negative-index corner would pass any residual gate
    with pytest.raises(ValueError, match="block"):
        verify_lax(geometric(1.0, 0.5, 64), block=block)


def test_lax_full_residual_decays_with_truncation():
    # oracle: the full-matrix residual tracks the symbol tail, so it must
    # collapse as M doubles (128 -> 256 -> 512 for a pole at 0.9)
    prev = None
    for m in (128, 256, 512):
        res_k, res_h = verify_lax(geometric(1.0, 0.9, m))
        if prev is not None:
            assert res_k <= prev[0] / 4
            assert res_h <= prev[1] / 4
        prev = (res_k, res_h)


# ---------------------------------------------------------------- A_u - D


def test_au_minus_d_ground_state():
    p = 0.6
    u = geometric(1.0, p, 512)
    varpi = (3 - p**2) / (1 - p**2)
    assert varpi == pytest.approx(4.125)
    rep = verify_au_minus_d(u, varpi)
    assert rep.n_sigma == 1
    assert rep.eigen_residual < 1e-10
    assert rep.eigenvalue == pytest.approx((varpi + 1) / 2)
    assert rep.ladder == pytest.approx(((varpi + 1) / 2,))


def test_au_minus_d_two_pole_family():
    u = multi_pole(2, 0.3, 256)
    varpi = 2 * (3 - 0.09) / (1 - 0.09)
    rep = verify_au_minus_d(u, varpi)
    assert rep.n_sigma == 2
    assert abs(rep.zeta) > 0
    assert rep.parallel_residual < 1e-10
    # ladder of simple consecutive eigenvalues ending at (varpi + n)/2
    assert rep.ladder_residual < 1e-9
    assert rep.ladder[0] == pytest.approx((varpi + 2 - 2) / 2, abs=1e-9)


def test_au_minus_d_constant_degenerates():
    rep = verify_au_minus_d(HardyCoefficients([2.0, 0.0, 0.0]), varpi=3.0)
    assert rep.empty
    assert rep.ladder == ()


def test_au_minus_d_rejects_non_profile():
    rng = np.random.default_rng(6)
    u = HardyCoefficients(rng.standard_normal(32) * 0.5 ** np.arange(32))
    with pytest.raises(NotEigenvector):
        verify_au_minus_d(u, varpi=4.0)


def test_profile_identities_multi_pole():
    # the scalar identities ride on the A_u - D report, with N read as n_sigma
    for n in (1, 2, 3):
        alpha = 0.4
        varpi = n * (3 - alpha**2) / (1 - alpha**2)
        rep = verify_au_minus_d(multi_pole(n, alpha, 512), varpi)
        assert rep.n_sigma == n and rep.umvm
        assert rep.q_residual < 1e-10
        assert rep.mean_residual < 1e-12  # (u|1) = N
        for entry in rep.umvm:
            assert entry["residual"] < 1e-10
            assert entry["mean_positive"]


# ---------------------------------------------------------------- pole system


def test_syst_pl_single_pole():
    varpi = (3 - 0.36) / (1 - 0.36)
    assert verify_syst_pl([0.6], varpi) < 1e-14


def test_syst_pl_two_roots():
    alpha = 0.3
    varpi = 2 * (3 - alpha**2) / (1 - alpha**2)
    roots = np.sqrt(alpha) * np.array([1.0, -1.0])
    assert verify_syst_pl(roots, varpi) < 1e-13


def test_syst_pl_three_roots():
    alpha = 0.4
    varpi = 3 * (3 - alpha**2) / (1 - alpha**2)
    roots = alpha ** (1 / 3) * np.exp(2j * np.pi * np.arange(3) / 3)
    assert verify_syst_pl(roots, varpi) < 1e-13


def test_syst_pl_pole_collision():
    with pytest.raises(PoleCollision):
        verify_syst_pl([0.5, 0.5 + 1e-14], 4.0)


def test_syst_pl_rejects_poles_outside_disc():
    with pytest.raises(ValueError):
        verify_syst_pl([1.2], 4.0)


def test_mean_of_normalized_profile_is_pole_count():
    one = HardyCoefficients(np.ones(1))
    for n in (1, 2, 3):
        u = multi_pole(n, 0.4, 256)
        assert inner_product(u, one) == pytest.approx(n, abs=1e-13)
        # consistency: varpi N = 2Q + N^2
        q = conserved(u).Q
        varpi = n * (3 - 0.16) / (1 - 0.16)
        assert varpi * n == pytest.approx(2 * q + n**2, abs=1e-10)
