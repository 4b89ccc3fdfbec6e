"""Truncated Hardy-space representation on the torus.

A state is a finite vector of Fourier coefficients ``u_hat(0..M-1)``; all
negative modes are identically zero (Hardy constraint).  Everything here is a
pure function over immutable values: the coefficient buffer of a
:class:`HardyCoefficients` is frozen at construction, so instances are safe to
share across threads.

Conventions
-----------
* inner product ``(u|v) = sum_k u_hat(k) * conj(v_hat(k))`` (normalized
  Lebesgue measure on the circle, Parseval);
* the flow's products ``u^2`` and ``Pi(|u|^2)`` come from one alias-free FFT
  kernel, :func:`quadratic_products`, exact up to round-off in ``||u||^2``;
* ``J = (u^2|u)`` is computed in one place, the J step that reads the
  samples of :func:`grid_values`.  :func:`j_and_flow` adds the flow's
  right-hand side to it, :func:`j_and_products` the products of
  :func:`quadratic_products`, and :func:`conserved` takes it alone; the
  integrator, the traveling-wave residual and the equilibrium checks all
  take ``J`` from one of these, so every caller gets the same ``J`` bit for
  bit.  Every FFT routine samples ``u`` on the grid that :func:`grid_values`
  chooses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

__all__ = [
    "HardyCoefficients",
    "ConservedTriple",
    "inner_product",
    "sobolev_norm",
    "apply_D",
    "conserved",
    "grid_values",
    "quadratic_products",
    "j_and_products",
    "j_and_flow",
]


def grid_values(c: np.ndarray) -> np.ndarray:
    """``u`` at ``exp(2 pi i j / L)``, ``j = 0..L-1``, from its ``M``
    coefficients ``c``, with ``L = next_fast_len(2M-1)``; keeps ``c``'s dtype.

    The products the flow needs, ``u^2``, ``|u|^2`` and ``u^2 conj(u)``,
    have frequencies in ``-(M-1)..2M-2``.  For ``k`` in ``0..M-1`` both
    ``k - L`` and ``k + L`` lie outside that range when ``L >= 2M-1``, so a
    forward FFT on this grid gives their modes ``0..M-1`` without aliasing;
    in particular the grid mean of ``u^2 conj(u)`` is exactly ``J = (u^2|u)``.
    """
    m = len(c)
    # padded here: scipy.fft pads a short input more slowly than zeros() does
    v = np.zeros(scipy.fft.next_fast_len(2 * m - 1), dtype=np.result_type(c.dtype, np.complex64))
    v[:m] = c
    return scipy.fft.ifft(v, norm="forward", overwrite_x=True)


def _check_product_length(m: int, n: int) -> None:
    if not 1 <= n <= 2 * m - 1:
        raise ValueError(f"need 1 <= n <= 2M-1 = {2 * m - 1}, got n={n}")


def _j_step(v: np.ndarray) -> tuple[complex, np.ndarray]:
    """``J = (u^2|u)`` and ``|v|^2`` from the samples ``v`` of
    :func:`grid_values`.

    ``J`` is the mean of ``|v|^2 v``, summed pairwise, exact because no
    nonzero frequency of ``u^2 conj(u)`` is a multiple of the grid length; a
    BLAS dot product's round-off at millions of modes would exceed the
    equilibrium certificate's gate, ``steady.STEADY_TOL``.  Every ``J`` in
    the package comes from here, so all callers agree bit for bit.
    """
    abs2 = v.real**2
    abs2 += v.imag**2
    return np.sum(abs2 * v) / len(v), abs2


def _product_pass(v: np.ndarray, abs2: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes ``0..n-1`` of ``u^2`` and ``Pi(|u|^2)`` from the samples ``v``
    and ``|v|^2``: one real FFT of ``|v|^2`` and one FFT of ``v^2``, which
    squares ``v`` in place."""
    keep = min(n, m)
    pi_abs2 = np.zeros(n, dtype=v.dtype)
    pi_abs2[:keep] = scipy.fft.rfft(abs2, norm="forward")[:keep]
    v *= v
    u2 = scipy.fft.fft(v, norm="forward", overwrite_x=True)[:n]
    return u2, pi_abs2


def quadratic_products(c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes ``0..n-1`` of ``u^2`` and of ``Pi(|u|^2)``, for ``1 <= n <= 2M-1``.

    ``c`` holds the ``M`` coefficients of ``u``; the results keep its dtype
    (complex128, or wider in an all-80-bit test reference).  One inverse FFT
    samples ``u`` on the grid of :func:`grid_values`, so no kept mode aliases;
    one forward FFT of ``u^2`` and one real FFT of ``|u|^2`` follow.  Modes
    of ``Pi(|u|^2)`` at or above ``M`` are 0.
    """
    m = len(c)
    _check_product_length(m, n)
    v = grid_values(c)
    # a blowing-up state overflows here; callers check the result for inf/nan
    with np.errstate(over="ignore", invalid="ignore"):
        abs2 = v.real**2
        abs2 += v.imag**2
        return _product_pass(v, abs2, m, n)


def j_and_products(c: np.ndarray, n: int) -> tuple[complex, np.ndarray, np.ndarray]:
    """``J = (u^2|u)`` with the products of :func:`quadratic_products`, from
    one inverse FFT: ``J`` is the one :func:`j_and_flow` returns, bit for bit,
    and the products equal ``quadratic_products(c, n)`` bit for bit."""
    m = len(c)
    _check_product_length(m, n)
    v = grid_values(c)
    with np.errstate(over="ignore", invalid="ignore"):
        j, abs2 = _j_step(v)
        return (j, *_product_pass(v, abs2, m, n))


def j_and_flow(c: np.ndarray) -> tuple[complex, np.ndarray]:
    """``J = (u^2|u)`` and d/dt of the coefficient vector ``c``: the flow
    reads ``i du/dt = 2 J Pi(|u|^2) + conj(J) u^2``.

    ``u`` is sampled as ``v`` on the grid of :func:`grid_values`
    (``L >= 2M-1`` points), where ``J`` is the mean of ``|v|^2 v`` (summed
    pairwise, see :func:`_j_step`).  The kept modes ``0..M-1`` of
    ``-i (2 J |v|^2 + conj(J) v^2)`` then come from one forward FFT,
    alias-free on the same grid; ``Pi`` needs no extra step, since the
    negative modes of ``|u|^2`` are simply not kept.
    """
    v = grid_values(c)
    j, abs2 = _j_step(v)
    return j, _flow_pass(v, j, abs2, len(c))


def _flow_pass(v: np.ndarray, j: complex, abs2: np.ndarray, m: int) -> np.ndarray:
    """The flow's modes ``0..m-1`` from :func:`_j_step`'s samples; overwrites ``v``."""
    v *= v
    v *= -1j * np.conj(j)
    v += (-2j * j) * abs2
    return scipy.fft.fft(v, norm="forward", overwrite_x=True)[:m]


@dataclass(frozen=True)
class HardyCoefficients:
    """Truncated sequence of nonnegative-frequency Fourier coefficients.

    Parameters
    ----------
    coeffs : sequence of complex
        ``u_hat(k)`` for ``k = 0 .. M-1``.  Stored as a read-only
        ``complex128`` array; ``trunc`` is its length.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D sequence")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    def padded(self, m: int) -> np.ndarray:
        """Coefficient vector zero-padded (or identical) to length ``m``."""
        if m < self.trunc:
            raise ValueError(f"cannot pad {self.trunc} modes down to {m}")
        if m == self.trunc:
            return self.coeffs
        out = np.zeros(m, dtype=np.complex128)
        out[: self.trunc] = self.coeffs
        return out

    def truncated(self, m: int) -> "HardyCoefficients":
        """Copy restricted (or zero-padded) to exactly ``m`` modes."""
        if m <= self.trunc:
            return HardyCoefficients(self.coeffs[:m])
        return HardyCoefficients(self.padded(m))

    def norm(self) -> float:
        """L2 norm ``sqrt((u|u))``."""
        return float(np.linalg.norm(self.coeffs))

    # Two values with different trunc compare equal iff they agree after
    # zero-padding to the larger trunc.
    def __eq__(self, other) -> bool:
        if not isinstance(other, HardyCoefficients):
            return NotImplemented
        m = max(self.trunc, other.trunc)
        return bool(np.array_equal(self.padded(m), other.padded(m)))

    def __hash__(self):
        # strip trailing zeros so padded-equal values hash alike; adding +0.0
        # turns -0.0 into +0.0, which __eq__ already treats as equal
        arr = self.coeffs + 0.0
        nz = np.nonzero(arr)[0]
        key = arr[: nz[-1] + 1].tobytes() if nz.size else b""
        return hash(key)

    def to_json(self) -> dict:
        """JSON-ready payload ``{"trunc": M, "re": [...], "im": [...]}``."""
        return {
            "trunc": self.trunc,
            "re": self.coeffs.real.tolist(),
            "im": self.coeffs.imag.tolist(),
        }

    @staticmethod
    def from_json(payload: dict) -> "HardyCoefficients":
        if not isinstance(payload, dict):
            raise ValueError("a state must be a JSON object with keys trunc, re, im")
        for key in ("trunc", "re", "im"):
            if key not in payload:
                raise ValueError(f"state is missing the key {key!r}")
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
        if re.shape != (payload["trunc"],) or im.shape != (payload["trunc"],):
            raise ValueError("trunc does not match coefficient arrays")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("state coefficients must be finite (NaN or Infinity in the file)")
        return HardyCoefficients(re + 1j * im)


@dataclass(frozen=True)
class ConservedTriple:
    """Conserved quantities of a state: mass Q, momentum M, energy E and the
    cubic functional J with ``E = |J|^2 / 2``."""

    Q: float
    M: float
    E: float
    J: complex


def inner_product(u: HardyCoefficients, v: HardyCoefficients) -> complex:
    """``(u|v) = sum_k u_hat(k) conj(v_hat(k))`` after zero-padding."""
    m = max(u.trunc, v.trunc)
    return complex(np.vdot(v.padded(m), u.padded(m)))


def sobolev_norm(u: HardyCoefficients, s: float) -> float:
    """``sqrt(sum_k (1+k)^{2s} |u_hat(k)|^2)`` for ``s >= 0``.

    At ``s = 1/2`` the weight is ``1 + k``, the energy-space norm.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    k = np.arange(u.trunc, dtype=float)
    return float(np.sqrt(np.sum((1.0 + k) ** (2 * s) * np.abs(u.coeffs) ** 2)))


def apply_D(u: HardyCoefficients) -> HardyCoefficients:
    """Frequency multiplier ``u_hat(k) -> k u_hat(k)`` (D = -i d/dx = z d/dz)."""
    k = np.arange(u.trunc)
    return HardyCoefficients(k * u.coeffs)


def conserved(u: HardyCoefficients) -> ConservedTriple:
    """Mass, momentum, energy and the functional J of a state.

    ``Q = sum |u_hat|^2``, ``M = sum k |u_hat|^2``,
    ``J = sum_{k,l} u_hat(k) u_hat(l) conj(u_hat(k+l)) = (u^2|u)`` (the
    one :func:`j_and_flow` returns, from one inverse FFT and no forward FFT)
    and ``E = |J|^2 / 2``.
    """
    # as in quadratic_products: a huge or non-finite state gives inf/nan
    # quietly, and callers check the result
    with np.errstate(over="ignore", invalid="ignore"):
        absq = np.abs(u.coeffs) ** 2
        q = float(np.sum(absq))
        mom = float(np.sum(np.arange(u.trunc) * absq))
        j = complex(_j_step(grid_values(u.coeffs))[0])
    # a product, not Python float **: a huge state gives E = inf, not OverflowError
    return ConservedTriple(Q=q, M=mom, E=0.5 * abs(j) * abs(j), J=j)
