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
truncation must grow like ``1/(1-P)``, see :func:`suggested_trunc`.

The degenerate case ``u = e^{ia} z`` is the family at ``theta = 0``, not a
separate branch.

Near the endpoint the zero-J condition is ill-conditioned in the constants,
so :func:`steadiness_measure` takes the constants and the coefficients from
80-bit arithmetic there.  ``J`` and the flow stay double precision and come
from :func:`~quadszego.hardy.j_and_flow`, the one place ``J`` is computed: a
coefficient rounded to double after the fact carries an unstructured error
of size ``eps ||u||``, which moves ``J`` by round-off only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtendedPrecisionUnavailable, PoleOutsideDisc
from .hardy import HardyCoefficients, _flow_pass, _j_step, _product_pass, grid_values, j_and_flow

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


def family_constants(theta: float) -> tuple[float, float, float]:
    """(mean coefficient, C, P) of the family at ``theta``."""
    root = math.sqrt(9.0 + 2.0 * math.cos(2 * theta) - 2.0 * math.cos(4 * theta))
    mean = -(2.0 * math.sqrt(3.0) / 3.0) * math.sin(theta)
    c = (1.0 + 2.0 * math.cos(2 * theta)) ** 2 / (3.0 * root)
    p = 4.0 * (2.0 + math.cos(2 * theta)) * math.sin(theta) / (math.sqrt(3.0) * root)
    return mean, c, p


def _check_trunc(trunc: int) -> None:
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")


def build_steady(params: SteadyV3Params, trunc: int) -> HardyCoefficients:
    """Expand a family member into ``trunc`` Fourier modes.

    ``u_hat(0) = lam e^{ia} mean``, ``u_hat(k) = lam e^{ia} C P^{k-1} e^{ikb}``.
    ``|P| >= 1`` cannot occur on the stated theta range and raises
    :class:`PoleOutsideDisc` as an internal-consistency failure; ``trunc < 1``
    raises ``ValueError``.
    """
    _check_trunc(trunc)
    mean, c, p = family_constants(params.theta)
    if abs(p) >= 1:
        raise PoleOutsideDisc(f"pole modulus {p!r} at theta={params.theta!r}")
    front = params.scale * cmath.exp(1j * params.a)
    out = np.zeros(trunc, dtype=np.complex128)
    out[0] = front * mean
    k = np.arange(1, trunc)
    out[1:] = front * c * (p * np.exp(1j * params.b_angle)) ** (k - 1) * np.exp(1j * params.b_angle)
    return HardyCoefficients(out)


def suggested_trunc(theta: float, tail: float = 3e-14, cap: int = 6_000_000) -> int:
    """Truncation keeping the neglected geometric tail of ``|J|`` below ``tail``.

    The dominant omitted contribution to J comes from index triples with
    ``k + l >= M`` and is of order ``C^3 M P^{2M} / (1 - P^2)`` (plus a smaller
    ``2|b| C^2 P^{2M} / (1 - P^2)`` term); solved by a growing search and
    clamped to ``[512, cap]``.  The 6M cap binds from theta ~ 1.0312, 1.6e-2
    before the excluded endpoint pi/3; from there on the measured |J| is
    dominated by the tail rather than by the family defect.
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
    while m < cap and tail_est(m) > tail:
        m = int(m * 1.3) + 64
    return min(m, cap)


@dataclass(frozen=True)
class SteadinessMeasure:
    """|J| and flow-derivative norm of a family member, with the truncation used."""

    abs_j: float
    rhs_norm: float
    trunc: int
    extended: bool


def _family_constants_ld(theta: float):
    t = np.float128(theta)
    root = np.sqrt(np.float128(9) + 2 * np.cos(2 * t) - 2 * np.cos(4 * t))
    mean = -(2 * np.sqrt(np.float128(3)) / 3) * np.sin(t)
    c = (1 + 2 * np.cos(2 * t)) ** 2 / (3 * root)
    p = 4 * (2 + np.cos(2 * t)) * np.sin(t) / (np.sqrt(np.float128(3)) * root)
    return mean, c, p


def _family_coefficients_ld(params: SteadyV3Params, trunc: int) -> np.ndarray:
    """The ``trunc`` family coefficients in complex256, from 80-bit constants.

    ``u_hat(k) = front C e^{ib} q^(k-1)`` with ``q = P e^{ib}``: the powers
    come from one running product of ``q`` (relative error about
    ``sqrt(k)`` ulps of 80-bit) instead of a transcendental power per element.
    """
    mean, c, p = _family_constants_ld(params.theta)
    if abs(float(p)) >= 1:
        raise PoleOutsideDisc(f"pole modulus {float(p)!r} at theta={params.theta!r}")
    front = np.complex256(params.scale) * np.exp(np.complex256(1j * params.a))
    rot = np.exp(np.complex256(1j * params.b_angle))
    coeffs = np.empty(trunc, dtype=np.complex256)
    coeffs[0] = front * mean
    coeffs[1:] = p * rot
    coeffs[1:2] = front * c * rot
    np.cumprod(coeffs[1:], out=coeffs[1:])
    return coeffs


def steadiness_measure(
    params: SteadyV3Params,
    trunc: int | None = None,
    extended: bool | None = None,
) -> SteadinessMeasure:
    """Evaluate ``|J|`` and the flow-derivative norm of a family member.

    Near the ``theta -> pi/3`` endpoint the equilibrium condition is badly
    conditioned in the family constants: rounding ``P`` to double moves the
    state off the zero-J set by ``~|dJ/dP| * eps``, above ``STEADY_TOL`` for
    the last few percent of the parameter range.  ``extended=True`` (the
    default once the needed truncation passes 50k modes) therefore evaluates
    the constants and the coefficients in 80-bit precision and rounds each
    coefficient once to double.  That rounding is an unstructured error of
    size ``eps ||u||``, not a move along the family, so ``J`` and the flow
    are double-precision products, as on the double path.  Both come from
    :func:`~quadszego.hardy.j_and_flow`, one FFT pair on the sample grid:
    ``J`` is the pairwise grid mean of ``|u|^2 u``, and ``rhs_norm`` is the
    norm of the ``trunc`` kept flow modes.
    Without ``np.float128`` it raises :class:`ExtendedPrecisionUnavailable`
    up front, as it raises ``ValueError`` for ``trunc < 1``.
    """
    tr = suggested_trunc(params.theta) if trunc is None else trunc
    _check_trunc(tr)
    if extended is None:
        extended = tr > 50_000
    if extended and not hasattr(np, "float128"):
        raise ExtendedPrecisionUnavailable(f"theta={params.theta!r} at trunc={tr} needs np.float128, absent here")
    if extended:
        coeffs = _family_coefficients_ld(params, tr).astype(np.complex128)
    else:
        coeffs = build_steady(params, tr).coeffs
    j, flow = j_and_flow(coeffs)
    rhs_norm = float(np.linalg.norm(flow))
    return SteadinessMeasure(abs_j=float(abs(j)), rhs_norm=rhs_norm, trunc=tr, extended=extended)


def is_steady(u: HardyCoefficients, tol: float = STEADY_TOL) -> bool:
    """Whether ``u`` is an equilibrium: ``|J(u)| < tol``.

    Equilibria are exactly the zero-J states, so this is equivalent to a
    vanishing flow derivative.  One inverse FFT samples ``u`` for ``J``, the
    flow and the products; the flow takes its own forward FFT (as in
    :func:`~quadszego.hardy.j_and_flow`) and the products theirs (as in
    :func:`~quadszego.hardy.quadratic_products`): the flow norm must stay
    under ``|J| (2 ||Pi|u|^2|| + ||u^2||)``, with a 10x slack for round-off.
    """
    m = u.trunc
    v = grid_values(u.coeffs)
    j, abs2 = _j_step(v)
    u2, abs2_modes = _product_pass(v.copy(), abs2, m, 2 * m - 1)
    flow = _flow_pass(v, j, abs2, m)
    norm_scale = 2.0 * np.linalg.norm(abs2_modes) + np.linalg.norm(u2)
    if np.linalg.norm(flow) > abs(j) * norm_scale * 10.0 + 1e-13:
        raise AssertionError("flow-derivative route disagrees with the J route")
    return bool(abs(j) < tol)


def explicit_example(trunc: int = 512) -> HardyCoefficients:
    """The explicit equilibrium ``-sqrt(3)/3 + (4/(3 sqrt(11))) z / (1 - (5/sqrt(33)) z)``."""
    out = np.zeros(trunc, dtype=np.complex128)
    out[0] = -math.sqrt(3.0) / 3.0
    pole = 5.0 / math.sqrt(33.0)
    out[1:] = (4.0 / (3.0 * math.sqrt(11.0))) * pole ** np.arange(trunc - 1)
    return HardyCoefficients(out)
