"""Traveling-wave families, profile equations, and the arc standing waves.

Two rational families exhaust the smooth traveling waves ``v(t,z) =
exp(-i w t) v0(z exp(-i c t))`` (besides constants):

* family I:  ``v0 = lam / (1 - p z^N)``;
* family II: ``v0 = -lam (1+|p|^2)/(1-|p|^2) + lam / (1 - p z^N)``,

with pulsation/velocity derived from ``(lam, p, N)``.  Family parameters are
stored as given and ``omega, c`` are derived eagerly, which prevents
inconsistent hand-supplied pairs.

Dropping the smoothness requirement adds the bounded-mean-oscillation
standing waves ``u = Pi(indicator(B)) / (1 + 2 theta)`` for ``B`` of measure
``theta``; only finite unions of arcs are built here, from exact closed-form
coefficients (sampled quadrature would contaminate the residual tests with
Gibbs error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeasureMismatch, TruncationTooSmall
from .hardy import HardyCoefficients, apply_D, quadratic_products

__all__ = [
    "TravelingWaveSpec",
    "build_profile",
    "residual_traveling",
    "residual_profile",
    "standing_wave_arc",
    "theta_from_rminus",
    "verify_standing",
]


@dataclass(frozen=True)
class TravelingWaveSpec:
    """Parameters (family, lam, p, N) with derived pulsation and velocity."""

    family: str  # "I" or "II"
    lam: complex
    p: complex
    n: int

    def __post_init__(self):
        if self.family not in ("I", "II"):
            raise ValueError("family must be 'I' or 'II'")
        if not 0 < abs(self.p) < 1:
            raise ValueError("need 0 < |p| < 1")
        if self.n < 1:
            raise ValueError("N must be a positive integer")
        if self.lam == 0:
            raise ValueError("lam must be nonzero")
        a4 = abs(self.lam) ** 4
        r2 = abs(self.p) ** 2
        if self.family == "I":
            omega = a4 * (3.0 - r2) / (1.0 - r2) ** 3
            c = a4 / (self.n * (1.0 - r2) ** 2)
        else:
            omega = a4 * r2**2 * (1.0 + 5.0 * r2) * (3.0 + 5.0 * r2) / (1.0 - r2) ** 4
            c = -a4 * r2**2 * (3.0 + 5.0 * r2) / (self.n * (1.0 - r2) ** 3)
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_c", c)

    @property
    def omega(self) -> float:
        return self._omega

    @property
    def c(self) -> float:
        return self._c

    @property
    def varpi(self) -> float:
        return self._omega / self._c


def build_profile(spec: TravelingWaveSpec, trunc: int) -> HardyCoefficients:
    """Expand a family profile into ``trunc`` Fourier modes.

    ``u_hat(kN) = lam p^k``; family II additionally shifts the mean by
    ``-lam (1+|p|^2)/(1-|p|^2)``.  The truncation must resolve the geometric
    tail: ``|p|^(trunc/N) < 1e-16``.
    """
    if abs(spec.p) ** (trunc / spec.n) >= 1e-16:
        raise TruncationTooSmall(
            f"trunc={trunc} leaves a geometric tail |p|^(trunc/N) >= 1e-16 for |p|={abs(spec.p)}"
        )
    out = np.zeros(trunc, dtype=np.complex128)
    n_terms = (trunc - 1) // spec.n + 1
    out[:: spec.n] = spec.lam * spec.p ** np.arange(n_terms)
    if spec.family == "II":
        r2 = abs(spec.p) ** 2
        out[0] -= spec.lam * (1.0 + r2) / (1.0 - r2)
    return HardyCoefficients(out)


def residual_traveling(v0: HardyCoefficients, omega: float, c: float) -> float:
    """L2 residual of the traveling-wave equation for initial data ``v0``:
    ``omega v0 + c D v0 - 2 J0 Pi(|v0|^2) - conj(J0) v0^2`` with ``J0 = J(v0)``,
    evaluated at full padded length; ``J0`` and the products come from one
    inverse FFT (:func:`~quadszego.hardy.quadratic_products`)."""
    m = v0.trunc
    j0, u2, abs2 = quadratic_products(v0.coeffs, 2 * m - 1)
    res = -(2.0 * j0 * abs2 + np.conj(j0) * u2)
    res[:m] += omega * v0.coeffs + c * apply_D(v0).coeffs
    return float(np.linalg.norm(res))


def residual_profile(u: HardyCoefficients, varpi: float) -> float:
    """L2 residual of the normalized profile equation
    ``varpi u + D u = 2 Pi(|u|^2) + u^2``."""
    m = u.trunc
    _, u2, abs2 = quadratic_products(u.coeffs, 2 * m - 1)
    res = -(2.0 * abs2 + u2)
    res[:m] += varpi * u.coeffs + apply_D(u).coeffs
    return float(np.linalg.norm(res))


def theta_from_rminus(r_minus: float) -> float:
    """Measure parameter ``theta = 2 r_- / (1 - 4 r_-)`` for ``r_- in (0, 1/6)``."""
    if not 0 < r_minus < 1.0 / 6.0:
        raise ValueError("r_minus must lie in (0, 1/6)")
    return 2.0 * r_minus / (1.0 - 4.0 * r_minus)


def standing_wave_arc(theta_measure: float, arcs, trunc: int) -> HardyCoefficients:
    """Standing-wave profile ``Pi(indicator(B)) / (1 + 2 theta)`` for a union of arcs.

    ``arcs`` is a list of angle intervals ``(a0, a1)`` in radians with
    ``0 <= a0 < a1 <= 2 pi``, disjoint but for shared endpoints; their total
    normalized measure must equal ``theta_measure`` within 1e-12
    (:class:`MeasureMismatch` otherwise).  Coefficients are the exact closed forms
    ``u_hat(0) = theta / (1 + 2 theta)`` and
    ``u_hat(k) = sum_arcs (e^{-i k a0} - e^{-i k a1}) / (2 pi i k (1 + 2 theta))``.
    """
    if not 0 < theta_measure < 1:
        raise ValueError("theta_measure must lie in (0, 1)")
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    arcs = sorted((float(a0), float(a1)) for a0, a1 in arcs)
    for a0, a1 in arcs:
        if not (0 <= a0 < a1 <= 2 * np.pi + 1e-15):
            raise ValueError(f"arc ({a0}, {a1}) is not an increasing interval in [0, 2 pi]")
    for (_, end), (start, _) in zip(arcs, arcs[1:]):
        if start < end:
            raise ValueError(f"arcs overlap: one starts at {start} before the previous one ends at {end}")
    total = sum(a1 - a0 for a0, a1 in arcs) / (2 * np.pi)
    if abs(total - theta_measure) > 1e-12:
        raise MeasureMismatch(f"arc measure {total!r} does not match theta {theta_measure!r}")
    scale = 1.0 / (1.0 + 2.0 * theta_measure)
    out = np.zeros(trunc, dtype=np.complex128)
    out[0] = theta_measure * scale
    k = np.arange(1, trunc)
    for a0, a1 in arcs:
        out[1:] += (np.exp(-1j * k * a0) - np.exp(-1j * k * a1)) / (2j * np.pi * k)
    out[1:] *= scale
    return HardyCoefficients(out)


def verify_standing(u: HardyCoefficients, modes_checked: int) -> float:
    """Max modulus of ``u_hat(k) - [2 Pi(|u|^2) + u^2]_hat(k)`` over ``k < modes_checked``.

    The slowly decaying tail of arc profiles demands headroom:
    ``1 <= modes_checked <= trunc/4`` is enforced (no modes would check
    nothing), and the residual then reflects only tail truncation (it decays
    like 1/trunc on arc data).
    """
    if not 1 <= modes_checked <= u.trunc / 4:
        raise ValueError(f"modes_checked must lie in [1, trunc/4], got {modes_checked}")
    _, u2, abs2 = quadratic_products(u.coeffs, modes_checked)
    return float(np.max(np.abs(u.coeffs[:modes_checked] - 2.0 * abs2 - u2)))
