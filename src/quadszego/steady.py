"""The explicit family of equilibrium points inside the three-parameter class.

Equilibria of the flow are exactly the zero-energy states ``J(u) = 0``; within
the class ``u = b + c z/(1 - p z)`` they form a two-codimension family swept
by a scale ``lam``, two angles ``a, b`` and a shape parameter
``theta in [0, pi/3)``:

    u = lam e^{ia} ( -(2 sqrt(3)/3) sin(theta)
                     + C(theta) z e^{ib} / (1 - P(theta) z e^{ib}) )

    C = (1 + 2 cos 2theta)^2 / (3 sqrt(9 + 2 cos 2theta - 2 cos 4theta))
    P = 4 (2 + cos 2theta) sin(theta) / (sqrt(3) sqrt(9 + 2 cos 2theta - 2 cos 4theta))

The constants are transcribed once, radicals kept in their composite form, with no algebraic
simplification (transcription fidelity over elegance).  One can check that
``P^2 - 1 = (4 sin^2 theta - 3)^3 / (3 (9 + 12 sin^2 theta - 16 sin^4 theta))``,
so ``|P| < 1`` on the whole parameter range and ``P -> 1`` only at the excluded
endpoint ``theta = pi/3``; near it the coefficients decay very slowly and the
truncation must grow like ``1/(1-P)``, see :func:`suggested_trunc`.  The
degenerate case ``u = e^{ia} z`` is the family at ``theta = 0``, where ``P = 0``.

Near the endpoint the zero-J condition is ill-conditioned in the constants,
so they are written out once at 40 digits and :func:`build_steady`, the one
coefficient builder, takes each power of ``P`` to a few ulps at any
truncation.  ``J`` and the flow stay double precision and come from
:func:`~quadszego.hardy.j_and_flow`: a coefficient rounded to double carries
an unstructured error of size ``eps ||u||``, which moves ``J`` by round-off
only.  The check :func:`is_steady` is ``|J| < STEADY_TOL``, with ``J`` from
:func:`~quadszego.hardy.conserved`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from .errors import PoleOutsideDisc
from .hardy import HardyCoefficients, conserved, j_and_flow

__all__ = [
    "SteadyV3Params",
    "family_constants",
    "build_steady",
    "suggested_trunc",
    "SteadinessMeasure",
    "steadiness_measure",
    "is_steady",
    "explicit_example",
    "STEADY_TOL",
]

# the equilibrium gate on |J| and the flow norm: criterion 10, `szego steady --verify`, is_steady
STEADY_TOL = 1e-11

# suggested_trunc's target for the neglected tail of |J|, and its largest truncation
_TRUNC_TAIL, _TRUNC_CAP = 3e-14, 6_000_000


@dataclass(frozen=True)
class SteadyV3Params:
    """Scale, two angles and the shape parameter of the equilibrium family."""

    scale: float
    a: float
    b_angle: float
    theta: float

    def __post_init__(self):
        if not 0 <= self.theta < math.pi / 3:
            raise ValueError("theta must lie in [0, pi/3)")


# 40 digits: ample for correctly rounded doubles and for ln P as two doubles
_DIGITS = Context(prec=40)


def _family_decimals(theta: float) -> tuple[Decimal, Decimal, Decimal]:
    """(mean coefficient, C, P) at ``theta`` to 40 digits, sin by its Taylor series."""
    with localcontext(_DIGITS):
        t = Decimal(theta)  # exact: theta is a binary double
        sin, term, n = t, t, 1
        while sin + (term := -term * t * t / ((n + 1) * (n + 2))) != sin:
            sin, n = sin + term, n + 2
        cos2 = 1 - 2 * sin * sin
        cos4 = 2 * cos2 * cos2 - 1
        sqrt3, root = Decimal(3).sqrt(), (9 + 2 * cos2 - 2 * cos4).sqrt()
        mean = -(2 * sqrt3 / 3) * sin
        c = (1 + 2 * cos2) ** 2 / (3 * root)
        p = 4 * (2 + cos2) * sin / (sqrt3 * root)
        return mean, c, p


def family_constants(theta: float) -> tuple[float, float, float]:
    """(mean coefficient, C, P) of the family at ``theta``, each correctly rounded."""
    return tuple(float(x) for x in _family_decimals(theta))


def _split(x: float) -> tuple[float, float]:
    """``x = hi + lo`` exactly with 26 significant bits in ``hi`` (T. J. Dekker,
    Numer. Math. 18, 1971), so ``k hi`` is exact for integers ``k < 2^27``."""
    big = 134217729.0 * x  # 2^27 + 1
    hi = big - (big - x)
    return hi, x - hi


def build_steady(params: SteadyV3Params, trunc: int) -> HardyCoefficients:
    """Expand a family member into ``trunc`` Fourier modes, each within a few ulps.

    ``u_hat(0) = lam e^{ia} mean``, ``u_hat(k) = lam e^{ia} C e^{ib} q^{k-1}``
    with ``q = P e^{ib}`` and ``q^m = exp(m (ln P + i b))``, where the parts of
    the exponent that grow with ``m`` are exact.  Two tables, ``q^j`` for
    ``j < s = floor(sqrt(trunc - 1))`` and ``q^(i s)``, are multiplied straight
    into the output.  ``|P| >= 1`` cannot occur on the stated theta range and
    raises :class:`PoleOutsideDisc`; ``trunc < 1`` raises ``ValueError``.
    """
    return HardyCoefficients(_steady_coeffs(params, trunc))


def _steady_coeffs(params: SteadyV3Params, trunc: int) -> np.ndarray:
    """:func:`build_steady`'s coefficients as a bare array, copied no further."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    mean, c, p = _family_decimals(params.theta)
    if p >= 1:
        raise PoleOutsideDisc(f"pole modulus {float(p)!r} at theta={params.theta!r}")
    front = params.scale * cmath.exp(1j * params.a)
    out = np.zeros(trunc, dtype=np.complex128)
    out[0] = front * float(mean)
    head = front * float(c) * cmath.exp(1j * params.b_angle)
    n = trunc - 1  # out[1:] holds head * q^0 .. head * q^(n-1)
    if p == 0 or n == 0:
        out[1:2] = head
        return out
    with localcontext(_DIGITS):
        log_p = p.ln()
        log_hi = _split(float(log_p))[0]
        log_lo = float(log_p - Decimal(log_hi))
    b_hi, b_lo = _split(params.b_angle)

    def powers(m):  # m log_hi and m b_hi are exact; the rest is small
        return np.exp(m * log_hi + 1j * (m * b_hi)) * np.exp(m * log_lo + 1j * (m * b_lo))

    s = math.isqrt(n)
    rows, tail = divmod(n, s)
    inner = powers(np.arange(s, dtype=float))
    outer = head * powers(s * np.arange(rows + 1, dtype=float))
    np.multiply(outer[:rows, None], inner, out=out[1 : 1 + rows * s].reshape(rows, s))
    out[1 + rows * s :] = outer[rows] * inner[:tail]
    return out


def suggested_trunc(theta: float) -> int:
    """Truncation keeping the neglected geometric tail of ``|J|`` below ``_TRUNC_TAIL``.

    The dominant omitted contribution to J comes from index triples with
    ``k + l >= M`` and is of order ``C^3 M P^{2M} / (1 - P^2)`` (plus a smaller
    ``2|b| C^2 P^{2M} / (1 - P^2)`` term); solved by a growing search and
    clamped to ``[512, _TRUNC_CAP]``.  The 6M cap binds from theta ~ 1.0312,
    1.6e-2 before the excluded endpoint pi/3; from there on the measured |J|
    is dominated by the tail rather than by the family defect.
    """
    mean, c, p = family_constants(theta)
    if p == 0.0:
        return 512

    def tail_est(m: int) -> float:
        log_tail = 2 * m * math.log(p)
        if log_tail < -700:
            return 0.0
        return (c**3 * m + 2 * abs(mean) * c**2) * math.exp(log_tail) / (1.0 - p * p)

    m = 512
    while m < _TRUNC_CAP and tail_est(m) > _TRUNC_TAIL:
        m = int(m * 1.3) + 64
    return min(m, _TRUNC_CAP)


@dataclass(frozen=True)
class SteadinessMeasure:
    """|J| and flow-derivative norm of a family member, with the truncation used."""

    abs_j: float
    rhs_norm: float
    trunc: int
    extended: bool = True  # always True; artifacts and the benchmark's counters read it


def steadiness_measure(
    params: SteadyV3Params,
    trunc: int | None = None,
    extended: bool | None = None,
) -> SteadinessMeasure:
    """Evaluate ``|J|`` and the flow-derivative norm of a family member.

    The coefficients come from :func:`build_steady`: near ``theta -> pi/3``
    a ``P`` rounded to double would move ``P^k`` by ``k`` ulps and the state
    off the zero-J set by more than ``STEADY_TOL``.  ``J`` and the flow come
    from :func:`~quadszego.hardy.j_and_flow`, one FFT pair on the sample
    grid: ``J`` is the pairwise grid mean of ``|u|^2 u``, and ``rhs_norm`` is
    the norm of the ``trunc`` kept flow modes.  ``extended`` is ignored.
    """
    tr = suggested_trunc(params.theta) if trunc is None else trunc
    j, flow = j_and_flow(_steady_coeffs(params, tr))
    return SteadinessMeasure(abs_j=float(abs(j)), rhs_norm=float(np.linalg.norm(flow)), trunc=tr)


def is_steady(u: HardyCoefficients, tol: float = STEADY_TOL) -> bool:
    """Whether ``u`` is an equilibrium: ``|J(u)| < tol``.

    Equilibria are exactly the zero-J states, so this is equivalent to a
    vanishing flow derivative.  ``J`` is :func:`~quadszego.hardy.conserved`'s,
    from one inverse FFT and no forward one.
    """
    return bool(abs(conserved(u).J) < tol)


def explicit_example(trunc: int = 512) -> HardyCoefficients:
    """The explicit equilibrium ``-sqrt(3)/3 + (4/(3 sqrt(11))) z / (1 - (5/sqrt(33)) z)``."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    out = np.zeros(trunc, dtype=np.complex128)
    out[0] = -math.sqrt(3.0) / 3.0
    pole = 5.0 / math.sqrt(33.0)
    out[1:] = (4.0 / (3.0 * math.sqrt(11.0))) * pole ** np.arange(trunc - 1)
    return HardyCoefficients(out)
