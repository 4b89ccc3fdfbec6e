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
* the flow's nonlinearity ``2 J Pi(|u|^2) + conj(J) u^2`` is read through
  two sampled entry points: :func:`quadratic_products` returns ``J`` with
  the alias-free modes of ``u^2`` and ``Pi(|u|^2)``, :func:`j_and_flow`
  ``J`` with the flow.  The sample grid, the J step (the one place
  ``J = (u^2|u)`` is computed, so all callers agree bit for bit) and the FFT
  passes are private here; :func:`conserved` uses them for ``J`` alone,
  and the equilibrium check ``steady.is_steady`` reads that ``J``.
  The samples come in a private order (a blocked layout on long grids, see
  :func:`_grid_values`) that nothing outside this module sees.  The
  transforms are ``numpy.fft``'s; the package imports no scipy.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HardyCoefficients",
    "ConservedTriple",
    "inner_product",
    "sobolev_norm",
    "apply_D",
    "conserved",
    "quadratic_products",
    "j_and_flow",
]


# Grid length from which the samples come in the blocked layout of Bailey's
# four-step FFT; shorter grids take one 1-D transform each way.  Measured with
# j_and_flow on 2 vCPUs: blocked ran 10-36 % faster at every length from 2^17
# to 4 939 200, and 1-D won or tied at some lengths below (BENCH_numpy_fft.json).
_BLOCKED_FROM = 1 << 17


@functools.lru_cache(maxsize=1024)
def _next_fast_len(n: int) -> int:
    """The smallest 2,3,5,7,11-smooth integer ``>= n >= 1``, which equals
    ``scipy.fft.next_fast_len(n)``: pocketfft's search for a fast complex
    length.  Cached, since every right-hand side asks for it."""
    if n <= 12:
        return n
    best = 2 * n
    f11 = 1
    while f11 < best:
        f7 = f11
        while f7 < best:
            f5 = f7
            while f5 < best:
                # walk x = f5 2^a 3^b across n, keeping the least x >= n
                x = f5
                while x < n:
                    x *= 2
                while x != n:
                    if x < n:
                        x *= 3
                        continue
                    best = min(best, x)
                    if x & 1:
                        break
                    x >>= 1
                else:
                    return n
                f5 *= 5
            f7 *= 7
        f11 *= 11
    return best


@functools.lru_cache(maxsize=1024)
def _blocks(length: int) -> tuple[int, int]:
    """``(L1, L2)`` with ``L1 L2 = length`` and ``L1`` the divisor nearest ``sqrt(length)``."""
    divisors = [d for k in range(1, math.isqrt(length) + 1) if length % k == 0 for d in (k, length // k)]
    near = min(divisors, key=lambda d: abs(math.log(d * d / length)))
    return near, length // near


def _twiddle(a: np.ndarray, sign: int) -> None:
    """Multiply ``a[n1, k2]`` by ``exp(sign 2 pi i n1 k2 / L)`` in place, ``L = a.size``.

    With ``k2 = s h + l`` the phase splits into ``n1 s h`` and ``n1 l``, so
    two tables of about ``L^(3/4)`` entries, each phase reduced mod ``L``
    exactly in integers, do it as two broadcast multiplies; both are in
    ``a``'s precision (``2 pi`` too, from ``arctan``).
    """
    l1, l2 = a.shape
    s = _blocks(l2)[0]
    step = sign * 8 * np.arctan(np.ones((), a.real.dtype)) / a.size
    n1 = np.arange(l1)[:, None]
    hi, lo = (np.exp(1j * (step * (n1 * k % a.size))).astype(a.dtype, copy=False)
              for k in (s * np.arange(l2 // s), np.arange(s)))
    split = a.reshape(l1, l2 // s, s)
    split *= hi[:, :, None]
    split *= lo[:, None, :]


def _grid_values(c: np.ndarray) -> np.ndarray:
    """``u`` at ``exp(2 pi i j / L)``, ``j = 0..L-1``, from its ``M``
    coefficients ``c``, with ``L = _next_fast_len(2M-1)``; keeps ``c``'s
    dtype.  The samples come in a private order, which only pointwise
    products, grid sums and :func:`_modes` read.

    The products the flow needs, ``u^2``, ``|u|^2`` and ``u^2 conj(u)``,
    have frequencies in ``-(M-1)..2M-2``.  For ``k`` in ``0..M-1`` both
    ``k - L`` and ``k + L`` lie outside that range when ``L >= 2M-1``, so a
    forward FFT on this grid gives their modes ``0..M-1`` without aliasing;
    in particular the grid mean of ``u^2 conj(u)`` is exactly ``J = (u^2|u)``.

    Below ``_BLOCKED_FROM`` points one 1-D inverse FFT gives ``j`` in natural
    order.  From there on the four-step FFT (D. H. Bailey, J. Supercomputing
    4, 1990) takes two batched passes of about ``sqrt(L)`` points: with
    ``L = L1 L2`` and the modes as ``L1 x L2`` rows ``k = L2 k1 + k2``, an
    inverse FFT down each column, the twiddle ``exp(2 pi i n1 k2 / L)`` and
    an inverse FFT along each row leave ``j = n1 + L1 n2`` at row ``n1``,
    column ``n2``; no pass transposes.
    """
    m = len(c)
    v = np.zeros(_next_fast_len(2 * m - 1), dtype=np.result_type(c.dtype, np.complex64))
    v[:m] = c
    if len(v) < _BLOCKED_FROM:
        return np.fft.ifft(v, norm="forward", out=v)
    a = v.reshape(_blocks(len(v)))
    np.fft.ifft(a, axis=0, norm="forward", out=a)
    _twiddle(a, 1)
    np.fft.ifft(a, axis=1, norm="forward", out=a)
    return v


def _modes(w: np.ndarray, n: int) -> np.ndarray:
    """Modes ``0..n-1``, in natural order, of samples ``w`` laid out as
    :func:`_grid_values` lays them out; overwrites ``w``.  The blocked
    layout runs the inverse's steps mirrored: rows, conjugate twiddle, columns."""
    if len(w) < _BLOCKED_FROM:
        return np.fft.fft(w, norm="forward", out=w)[:n]
    a = w.reshape(_blocks(len(w)))
    np.fft.fft(a, axis=1, norm="forward", out=a)
    _twiddle(a, -1)
    np.fft.fft(a, axis=0, norm="forward", out=a)
    return w[:n]


def _j_step(v: np.ndarray) -> tuple[complex, np.ndarray]:
    """``J = (u^2|u)`` and ``|v|^2`` from the samples ``v`` of
    :func:`_grid_values`.

    ``J`` is the mean of ``|v|^2 v``, summed pairwise, exact because no
    nonzero frequency of ``u^2 conj(u)`` is a multiple of the grid length; a
    BLAS dot product's round-off at millions of modes would exceed the
    equilibrium gate ``steady.STEADY_TOL``.  Every ``J`` in the package comes
    from here, so all callers agree bit for bit.
    """
    abs2 = v.real**2
    abs2 += v.imag**2
    return np.sum(abs2 * v) / len(v), abs2


def _product_pass(v: np.ndarray, abs2: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes ``0..n-1`` of ``u^2`` and ``Pi(|u|^2)`` from the samples ``v``
    and ``|v|^2``: one forward transform of ``|v|^2`` (a real FFT below
    ``_BLOCKED_FROM`` points) and one of ``v^2``, which squares ``v`` in place."""
    keep = min(n, m)
    pi_abs2 = np.zeros(n, dtype=v.dtype)
    if len(v) < _BLOCKED_FROM:
        pi_abs2[:keep] = np.fft.rfft(abs2, norm="forward")[:keep]
    else:
        pi_abs2[:keep] = _modes(abs2.astype(v.dtype), keep)
    v *= v
    return _modes(v, n), pi_abs2


def quadratic_products(c: np.ndarray, n: int) -> tuple[complex, np.ndarray, np.ndarray]:
    """``J = (u^2|u)`` and modes ``0..n-1`` of ``u^2`` and ``Pi(|u|^2)``, ``1 <= n <= 2M-1``.

    ``c`` holds the ``M`` coefficients of ``u``; the results keep its dtype
    (complex128, or wider in an all-80-bit test reference).  One inverse FFT
    samples ``u`` on the grid of :func:`_grid_values`, so no kept mode
    aliases, and gives the ``J`` of :func:`j_and_flow` bit for bit; one
    forward transform of ``|u|^2`` and one of ``u^2`` follow.  Modes ``>= M`` of ``Pi(|u|^2)`` are 0.
    """
    m = len(c)
    if not 1 <= n <= 2 * m - 1:
        raise ValueError(f"need 1 <= n <= 2M-1 = {2 * m - 1}, got n={n}")
    v = _grid_values(c)
    # a blowing-up state overflows here; callers check the result for inf/nan
    with np.errstate(over="ignore", invalid="ignore"):
        j, abs2 = _j_step(v)
        return (j, *_product_pass(v, abs2, m, n))


def j_and_flow(c: np.ndarray) -> tuple[complex, np.ndarray]:
    """``J = (u^2|u)`` and d/dt of the coefficient vector ``c``: the flow
    reads ``i du/dt = 2 J Pi(|u|^2) + conj(J) u^2``.

    ``u`` is sampled as ``v`` on the grid of :func:`_grid_values`
    (``L >= 2M-1`` points), where ``J`` is the mean of ``|v|^2 v`` (summed
    pairwise, see :func:`_j_step`).  The kept modes ``0..M-1`` of
    ``-i (2 J |v|^2 + conj(J) v^2)`` then come from one forward transform,
    alias-free on the same grid; ``Pi`` needs no extra step, since the
    negative modes of ``|u|^2`` are simply not kept.
    """
    v = _grid_values(c)
    j, abs2 = _j_step(v)
    return j, _flow_pass(v, j, abs2, len(c))


def _flow_pass(v: np.ndarray, j: complex, abs2: np.ndarray, m: int) -> np.ndarray:
    """The flow's modes ``0..m-1`` from :func:`_j_step`'s samples; overwrites ``v``."""
    v *= v
    v *= -1j * np.conj(j)
    v += (-2j * j) * abs2
    return _modes(v, m)


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
        weighted = np.abs(u.coeffs) ** 2
        q = float(np.sum(weighted))
        weighted *= np.arange(u.trunc)
        weighted[0] = 0.0  # not 0 * inf, which made M of a huge state NaN
        mom = float(np.sum(weighted))
        j = complex(_j_step(_grid_values(u.coeffs))[0])
        if not cmath.isfinite(j) and np.all(np.isfinite(u.coeffs)):
            # the grid product overflowed (inf * 0 gave NaN); J is cubic and
            # scaling by a power of two is exact, so J(u) = 2^(3e) J(2^-e u)
            e = int(np.frexp(np.abs(u.coeffs.view(np.float64)).max())[1])
            small = complex(_j_step(_grid_values(u.coeffs * 2.0**-e))[0])
            j = complex(np.ldexp(small.real, 3 * e), np.ldexp(small.imag, 3 * e))
    # a product, not Python float **: a huge state gives E = inf, not OverflowError
    return ConservedTriple(Q=q, M=mom, E=0.5 * abs(j) * abs(j), J=j)

