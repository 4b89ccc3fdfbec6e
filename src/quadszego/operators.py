"""Matrix realizations of the Hankel/Toeplitz operator calculus.

The Hankel operator of symbol ``u`` is the antilinear map ``h -> Pi(u conj(h))``.
Antilinear operators are never materialized as doubled real-linear matrices;
instead a matrix ``H`` with entries ``H[j,k] = u_hat(j+k)`` acts as
``h -> H @ conj(h)``, and every composed identity below is expanded with the
conjugation placed explicitly.  With ``A`` the (Hermitian) Toeplitz matrix of
``u + conj(u)``, the operator identities of the flow's Lax pair become plain
matrix identities:

    ``K_X = A K + K A^T``          (antilinear K, X = 2 Pi(|u|^2) + u^2)
    ``H_X = A H + H A^T - u u^T``

because ``conj(A) = A^T`` for Hermitian ``A``.  Hankel matrices are
complex-symmetric, so ``conj(H) = H^H`` and the spectrum of ``H_u^2 = H H^H``
is the squared singular values of ``H``, its eigenvectors the left singular
vectors.  :func:`spectral_report` chooses the eigenspace ``F_u(sigma)`` of
each K-dominant level once, and both the projection ``u_sigma`` and the
``A_u - D`` ladder of :func:`verify_au_minus_d` read it; that function reads
the eigenstructure and the scalar identities of a traveling-wave profile off
one such decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotEigenvector, PoleCollision
from .hardy import HardyCoefficients, conserved, quadratic_products

__all__ = [
    "hankel",
    "shifted_hankel",
    "sketched_hankel_pair",
    "a_u",
    "SpectralReport",
    "spectral_report",
    "verify_lax",
    "AuDReport",
    "verify_au_minus_d",
    "verify_syst_pl",
]

#: relative eigenvalue threshold separating true finite-rank spectra from round-off
DEFAULT_RANK_TOL = 1e-10


def _symbol_matrix(u: HardyCoefficients, offset: int) -> np.ndarray:
    """Contiguous ``M x M`` ``[j, k] = u_hat(j + k + offset)``, zero outside ``0..M-1``; ``offset > -M``."""
    if u.trunc < 2:
        raise ValueError(f"a matrix needs trunc >= 2, got {u.trunc}")
    full = np.zeros(2 * u.trunc - 1, dtype=np.complex128)
    kept = u.coeffs[max(offset, 0) : offset + len(full)]
    full[max(-offset, 0) :][: len(kept)] = kept
    return np.lib.stride_tricks.sliding_window_view(full, u.trunc).copy()


def hankel(u: HardyCoefficients) -> np.ndarray:
    """Hankel matrix ``H[j,k] = u_hat(j+k)`` (zero beyond truncation).

    Realizes the antilinear map ``h -> Pi(u conj(h))`` as ``H @ conj(h)``.
    """
    return _symbol_matrix(u, offset=0)


def shifted_hankel(u: HardyCoefficients) -> np.ndarray:
    """Shifted Hankel matrix ``K[j,k] = u_hat(j+k+1)`` (symbol ``S* u``)."""
    return _symbol_matrix(u, offset=1)


def sketched_hankel_pair(h: np.ndarray, width: int) -> tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]:
    """The top singular values of ``H = h`` and of ``K``, read off the first
    ``width`` columns of ``h``, each with a bound on its error:
    ``((s_H, r_H), (s_K, r_K))``.

    ``h`` is the Hankel matrix ``H[j,k] = u_hat(j+k)`` of a state truncated
    to its size ``M`` (``u_hat(n) = 0`` for ``n >= M``), so the shifted
    Hankel matrix ``K`` is ``h`` shifted one column left, with a zero last
    column.  ``q`` is the orthonormal factor of the first ``width`` columns
    and ``b = q^H h``; then ``s_H`` are the singular values of ``b`` and
    ``s_K`` those of ``b[:, 1:] = q^H K[:, :-1]``.  Since ``h = q b + res``
    and ``K[:, :-1] = q b[:, 1:] + res[:, 1:]``, Weyl's inequality gives
    ``|sigma_j - s_j| <= r`` for every ``j`` of either matrix, with
    ``s_j = 0`` past ``width``, where ``r`` is the Frobenius norm of the
    matrix's columns of ``res`` plus a round-off allowance of
    ``8 M eps`` times the matrix's own ``||.||_F``: the computed ``q``,
    ``b``, ``s`` and residual each carry an error of order ``M eps`` times
    the columns they are built from.  The norms come from the coefficients,
    ``||H||_F^2 = sum (n+1) |u_hat(n)|^2`` and ``||K||_F^2 = sum n
    |u_hat(n)|^2``.  A Hankel matrix of a state close to rank ``N`` is
    spanned, up to that closeness, by its first ``N`` columns, so for
    ``width`` a little above ``N`` both bounds are small.
    """
    m = h.shape[1]
    if not 1 <= width <= m:
        raise ValueError(f"need 1 <= width <= {m}, got {width}")
    if np.any(h[-1, 1:]):
        raise ValueError("h must be the Hankel matrix of a state truncated to its size")
    q = np.linalg.qr(h[:, :width])[0]
    b = q.conj().T @ h
    # minus the residual h - q b, K's columns (contiguous) apart from column 0
    res_k = q @ b[:, 1:]
    res_k -= h[:, 1:]
    res_0 = q @ b[:, 0] - h[:, 0]
    res_k2 = np.vdot(res_k, res_k).real
    w = np.abs(h[0]) ** 2
    k_norm2 = float(np.arange(m) @ w)
    allowance = 8 * m * np.finfo(float).eps
    r_h = float(np.sqrt(res_k2 + np.vdot(res_0, res_0).real)) + allowance * np.sqrt(k_norm2 + w.sum())
    r_k = float(np.sqrt(res_k2)) + allowance * np.sqrt(k_norm2)
    return (np.linalg.svdvals(b), r_h), (np.linalg.svdvals(b[:, 1:]), r_k)


def a_u(u: HardyCoefficients) -> np.ndarray:
    """Hermitian matrix of ``T_u + T_conj(u)``: ``A[j,k] = u_hat(j-k) + conj(u_hat(k-j))``."""
    t_u = _symbol_matrix(u, offset=1 - u.trunc)[:, ::-1]  # T[j, k] = u_hat(j - k)
    return t_u + t_u.conj().T


@dataclass(frozen=True)
class DominanceEntry:
    """One shared positive eigenvalue of the squared Hankel pair."""

    sigma2: float  # eigenvalue of the squared operators
    label: str  # "H" or "K"
    dim_E: int  # multiplicity in spec(H^2)
    dim_F: int  # multiplicity in spec(K^2)


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Eigen-structure of ``H_u^2`` and ``K_u^2`` with dominance labels.

    ``projections`` maps each K-dominant ``sigma`` (including 0 for the
    kernel part) to the projection ``u_sigma`` of ``u`` onto the
    corresponding eigenspace ``F_u(sigma)`` of ``K_u^2``; summing them
    reconstructs ``u``.  ``bases`` maps each positive K-dominant ``sigma`` to
    the orthonormal columns spanning ``F_u(sigma)``, the ones ``u_sigma`` is
    projected onto; :func:`verify_au_minus_d` reads its ladder on them.
    ``to_json`` leaves them out.
    """

    h2_eigs: np.ndarray  # descending, nonnegative
    k2_eigs: np.ndarray
    rank_H: int
    rank_K: int
    dominance: tuple[DominanceEntry, ...]
    projections: dict[float, HardyCoefficients]
    bases: dict[float, np.ndarray]  # K_u^2 eigenvectors, as columns, of each K-dominant sigma
    unresolved: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "h2_eigs": self.h2_eigs.tolist(),
            "k2_eigs": self.k2_eigs.tolist(),
            "rank_H": self.rank_H,
            "rank_K": self.rank_K,
            "dominance": [
                {
                    "sigma2": d.sigma2,
                    "label": d.label,
                    "dim_E": d.dim_E,
                    "dim_F": d.dim_F,
                }
                for d in self.dominance
            ],
            "unresolved": self.unresolved,
            "notes": list(self.notes),
        }


def spectral_report(u: HardyCoefficients, tol: float = DEFAULT_RANK_TOL) -> SpectralReport:
    """Spectra of ``H_u^2`` and ``K_u^2`` with their shared eigenvalues classified.

    The eigenvalues are the squared singular values of the Hankel matrices,
    in descending order; the ``K_u^2`` eigenvectors are the left singular
    vectors of ``K``.

    ``tol`` is relative to the largest eigenvalue: numerical rank counts
    eigenvalues above ``tol * max_eig``; levels closer than ``10 * tol *
    max_eig`` set the ``unresolved`` flag (clustered spectrum, labels
    unreliable).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    h_eigs = np.linalg.svdvals(hankel(u)) ** 2
    k_vecs, k_sing, _ = np.linalg.svd(shifted_hankel(u), full_matrices=False)
    k_eigs = k_sing**2

    scale = h_eigs[0]
    thresh = tol * scale
    cluster_gap = tol * scale
    warn_gap = 10 * tol * scale

    rank_h = int(np.sum(h_eigs > thresh))
    rank_k = int(np.sum(k_eigs > thresh))

    uvec = u.padded(len(h_eigs))
    unorm = np.linalg.norm(uvec)

    notes: list[str] = []
    unresolved = False

    # the positive levels of both spectra, descending, split at gaps > cluster_gap
    values = np.concatenate([h_eigs[:rank_h], k_eigs[:rank_k]])
    in_f = np.arange(len(values)) >= rank_h
    order = np.argsort(-values)
    values, in_f = values[order], in_f[order]
    cuts = np.flatnonzero(values[:-1] - values[1:] > cluster_gap) + 1
    levels = list(zip(np.split(values, cuts), np.split(in_f, cuts))) if len(values) else []
    for (a, _), (b, _) in zip(levels, levels[1:]):
        if a[-1] - b[0] <= warn_gap:
            unresolved = True
            notes.append(f"levels {np.mean(a):.6e} and {np.mean(b):.6e} closer than 10*tol")

    dominance: list[DominanceEntry] = []
    projections: dict[float, HardyCoefficients] = {}
    bases: dict[float, np.ndarray] = {}
    for level, level_in_f in levels:
        sigma2 = float(np.mean(level))
        m_f = int(np.sum(level_in_f))
        m_e = len(level) - m_f
        if m_e == m_f + 1:
            label = "H"
        elif m_f == m_e + 1:
            label = "K"
        else:
            label = "?"
            unresolved = True
            notes.append(f"level {sigma2:.6e}: multiplicities E={m_e}, F={m_f} not off by one")
        dominance.append(DominanceEntry(sigma2=sigma2, label=label, dim_E=m_e, dim_F=m_f))
        if label == "K":
            # F_u(sigma): the kept K^2 eigenvectors within 5 tol of the level
            basis = k_vecs[:, :rank_k][:, np.abs(k_eigs[:rank_k] - sigma2) <= 5 * tol * scale]
            proj = basis @ (basis.conj().T @ uvec)
            # dominance requires u not orthogonal to F; corroborate
            if np.linalg.norm(proj) <= np.sqrt(tol) * unorm:
                unresolved = True
                notes.append(f"K-dominant level {sigma2:.6e} nearly orthogonal to u")
            sigma = float(np.sqrt(sigma2))  # sigma2 > thresh >= 0
            projections[sigma] = HardyCoefficients(proj)
            bases[sigma] = basis

    # kernel component: u minus its projections onto all positive K^2 levels
    pos_basis = k_vecs[:, :rank_k]
    kernel_part = uvec - pos_basis @ (pos_basis.conj().T @ uvec)
    projections[0.0] = HardyCoefficients(kernel_part)

    return SpectralReport(
        h2_eigs=h_eigs,
        k2_eigs=k_eigs,
        rank_H=rank_h,
        rank_K=rank_k,
        dominance=tuple(dominance),
        projections=projections,
        bases=bases,
        unresolved=unresolved,
        notes=tuple(notes),
    )


def lax_symbol(u: HardyCoefficients) -> HardyCoefficients:
    """The evolved symbol ``X(u) = 2 Pi(|u|^2) + u^2`` (truncated like ``u``)."""
    _, u2, abs2 = quadratic_products(u.coeffs, u.trunc)
    return HardyCoefficients(2.0 * abs2 + u2)


def verify_lax(u: HardyCoefficients, block: int | None = None) -> tuple[float, float]:
    """Operator-norm residuals of the two Lax-pair identities.

    Both sides are built from the same ``trunc``-mode data, with the symbol
    ``X(u)`` truncated back to the state dimension.  On a leading
    ``block x block`` corner the identities are algebraically exact for the
    truncated symbol, so the block residual measures round-off only; the full
    matrix residual additionally sees the symbol-tail truncation and decays
    geometrically as ``trunc`` grows.

    Returns ``(res_K, res_H)``; raises ``ValueError`` unless
    ``1 <= block <= trunc``.
    """
    m = u.trunc
    if block is not None and not 1 <= block <= m:
        raise ValueError(f"need 1 <= block <= trunc = {m}, got {block}")
    x = lax_symbol(u)
    h = hankel(u)
    k = shifted_hankel(u)
    a = a_u(u)
    uvec = u.coeffs
    kx = shifted_hankel(x)
    hx = hankel(x)
    res_k = kx - (a @ k + k @ a.T)
    res_h = hx - (a @ h + h @ a.T - np.outer(uvec, uvec))
    if block is not None:
        res_k = res_k[:block, :block]
        res_h = res_h[:block, :block]
    return float(np.linalg.norm(res_k, 2)), float(np.linalg.norm(res_h, 2))


@dataclass(frozen=True)
class AuDReport:
    """Check of the traveling-wave eigenstructure of ``A_u - D``.

    ``eigen_residual`` is the relative residual of
    ``(A_u - D) u_sigma = (varpi + n_sigma)/2 u_sigma``; ``zeta`` the
    proportionality constant in ``K_u(u_sigma) = zeta z^{n_sigma-1} u_sigma``
    with ``parallel_residual`` its relative defect; ``ladder`` the spectrum of
    ``A_u - D`` restricted to the dominant eigenspace, which must consist of
    simple consecutive values starting at ``(varpi + 2 - n_sigma)/2``.

    The scalar identities of a profile normalized to ``(u|1) = N``, read
    with ``N = n_sigma``: ``q_residual`` is the defect of
    ``varpi N = 2Q + N^2``, ``mean_residual`` that of ``(u|1) = N``, and
    ``umvm`` holds one entry per K-dominant level ``u_m`` of multiplicity
    ``n_m``: its ``mean`` ``(u_m|1)``, the ``residual`` of
    ``(varpi + n_m - 2N)(u_m|1) = 2 ||u_m||^2`` and whether the mean is real
    positive (``mean_positive``).
    """

    n_sigma: int
    sigma: float
    eigen_residual: float
    eigenvalue: float
    zeta: complex
    parallel_residual: float
    ladder: tuple[float, ...]
    ladder_residual: float
    q_residual: float
    mean_residual: float
    umvm: tuple[dict, ...]

    @property
    def empty(self) -> bool:
        return self.n_sigma == 0


def _scalar_identities(u: HardyCoefficients, report: SpectralReport, varpi: float, n: int) -> dict:
    """:class:`AuDReport`'s ``q_residual``, ``mean_residual`` and ``umvm`` for ``N = n``."""
    umvm = []
    for d in report.dominance:
        if d.label != "K":
            continue
        um = report.projections[float(np.sqrt(d.sigma2))]
        mean = complex(um.coeffs[0])  # (u_m|1)
        umvm.append(
            {
                "n_m": d.dim_F,
                "mean": mean,
                "residual": abs((varpi + d.dim_F - 2 * n) * mean - 2.0 * um.norm() ** 2),
                "mean_positive": mean.real > 0 and abs(mean.imag) < 1e-8 * max(1.0, mean.real),
            }
        )
    return {
        "q_residual": abs(varpi * n - 2.0 * conserved(u).Q - n**2),
        "mean_residual": abs(complex(u.coeffs[0]) - n),
        "umvm": tuple(umvm),
    }


def verify_au_minus_d(u: HardyCoefficients, varpi: float, tol: float = 1e-8) -> AuDReport:
    """Verify the ``A_u - D`` eigenvector identities and the scalar
    identities of a profile ``u``, from one decomposition of its Hankel pair.

    Raises :class:`NotEigenvector` when the eigen-residual exceeds ``tol``
    (the input is then not a traveling-wave profile for this ``varpi``).
    For constant ``u`` the report degenerates to the empty ladder.
    """
    m = u.trunc
    report = spectral_report(u, DEFAULT_RANK_TOL)
    if report.rank_K == 0:
        return AuDReport(
            n_sigma=0,
            sigma=0.0,
            eigen_residual=0.0,
            eigenvalue=0.5 * varpi,
            zeta=0j,
            parallel_residual=0.0,
            ladder=(),
            ladder_residual=0.0,
            **_scalar_identities(u, report, varpi, 0),
        )

    # dominant sigma: the largest K-dominant level
    k_levels = [d for d in report.dominance if d.label == "K"]
    if not k_levels:
        raise NotEigenvector("no K-dominant eigenvalue found")
    top = k_levels[0]
    sigma = float(np.sqrt(top.sigma2))
    n_sigma = top.dim_F
    u_sigma = report.projections[sigma].padded(m)

    a = a_u(u)
    aud = a - np.diag(np.arange(m, dtype=np.complex128))
    lam = 0.5 * (varpi + n_sigma)
    nrm = np.linalg.norm(u_sigma)
    eigen_residual = float(np.linalg.norm(aud @ u_sigma - lam * u_sigma) / nrm)
    if eigen_residual > tol:
        raise NotEigenvector(
            f"(A_u - D) residual {eigen_residual:.3e} exceeds {tol:.1e}; "
            "input is not a traveling-wave profile for this varpi"
        )

    # K_u(u_sigma) against z^{n_sigma - 1} u_sigma
    kmat = shifted_hankel(u)
    ku = kmat @ np.conj(u_sigma)
    shifted = np.zeros(m, dtype=np.complex128)
    shifted[n_sigma - 1 :] = u_sigma[: m - (n_sigma - 1)]
    zeta = complex(np.vdot(shifted, ku) / np.vdot(shifted, shifted))
    parallel_residual = float(np.linalg.norm(ku - zeta * shifted) / np.linalg.norm(ku))

    # ladder: spectrum of A_u - D restricted to F_u(sigma), the columns u_sigma projects onto
    basis = report.bases[sigma]
    # Hermitian up to round-off; eigvalsh reads its lower triangle
    ladder = np.linalg.eigvalsh(basis.conj().T @ aud @ basis)
    expected = 0.5 * (varpi + 2 - n_sigma) + np.arange(n_sigma)
    ladder_residual = float(np.max(np.abs(np.sort(ladder) - expected))) if len(ladder) == n_sigma else np.inf

    return AuDReport(
        n_sigma=n_sigma,
        sigma=sigma,
        eigen_residual=eigen_residual,
        eigenvalue=lam,
        zeta=zeta,
        parallel_residual=parallel_residual,
        ladder=tuple(float(x) for x in np.sort(ladder)),
        ladder_residual=ladder_residual,
        **_scalar_identities(u, report, varpi, n_sigma),
    )


def verify_syst_pl(p_points, varpi: float) -> float:
    """Max modulus of the pole-system residuals.

    For each pole ``p_l``:
    ``(varpi - 1)/2 - sum_kappa 1/(1 - p_l conj(p_kappa))
    - sum_{kappa != l} p_l/(p_l - p_kappa)``.
    """
    p = np.asarray(p_points, dtype=np.complex128)
    if np.any(np.abs(p) >= 1):
        raise ValueError("all poles must satisfy |p| < 1")
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(p[i] - p[j]) < 1e-12:
                raise PoleCollision(f"poles {i} and {j} coincide within 1e-12")
    worst = 0.0
    for l in range(n):
        s1 = np.sum(1.0 / (1.0 - p[l] * np.conj(p)))
        s2 = sum(p[l] / (p[l] - p[k]) for k in range(n) if k != l)
        worst = max(worst, abs(0.5 * (varpi - 1.0) - s1 - s2))
    return float(worst)
