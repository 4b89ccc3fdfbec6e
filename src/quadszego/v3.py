"""Closed ODE system on the invariant three-parameter class and the
instability experiment.

States ``u(z) = b + c z / (1 - p z)`` with ``|p| < 1``, ``c != 0``,
``c - b p != 0`` form a flow-invariant set; on it the evolution closes as

    i db/dt = b^2 conj(J) + 2|b|^2 J + 2 J |c|^2 / (1-|p|^2)
    i dc/dt = 2 b c conj(J) + 2 conj(b) c J + 2 J p |c|^2 / (1-|p|^2)
    i dp/dt = c conj(J)

with ``J = (Q + |c| sqrt(M)) b + M c conj(p)``.  Writing ``x = |c| sqrt(M)``
and ``psi = arg(b conj(c) p)`` (set to 0 when ``b p = 0``), the doubled
energy ``Ecal = |J|^2`` takes the closed form

    Ecal = (Q+x)^2 (Q-x) + x^2 (M-x) + 2 x (Q+x) sqrt((Q-x)(M-x)) cos(psi)

and the evolution of ``x`` depends on conserved quantities only:

    (dx/dt)^2 = 4 x^2 (Q+x)^2 (Q-x)(M-x)
                - [ (Q+x)^2 (Q-x) + x^2 (M-x) - Ecal ]^2.

The instability mechanism around the translated ground state ``v_r``
(parameters ``b = -2r/(1-r)``, ``c = p = sqrt(r)``) rotates ``b`` by a small
phase ``gamma``; this leaves Q and M untouched, raises the energy by
``dEcal > 0`` and gives the deviation ``y = x - x_r`` the initial push

    (dy/dt)^2(0) = dEcal * (16 r^4 (1+r) / (1-r)^5 - dEcal),

after which ``|y|`` escapes monotonically in at least one time direction.

:func:`v3_integrate` runs the system on the package's one integrator,
adaptive DOP853 (:func:`~quadszego.dynamics.sample_dop853`), and fills a
fixed time grid from its dense output, one solver step at a time, so an
early stop never integrates more than one step past the stop sample.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import sample_dop853
from .errors import DegenerateState, TrajectoryTooShort
from .hardy import HardyCoefficients

__all__ = [
    "V3State",
    "V3Derived",
    "derived",
    "energy_closed_form",
    "V3Trajectory",
    "v3_integrate",
    "embed",
    "evolx_residual",
    "evolx_rhs",
    "InstabilityReport",
    "instability_experiment",
    "translated_ground_state",
]

_P_LIMIT = 1e-10
_C_LIMIT = 1e-14


@dataclass(frozen=True)
class V3State:
    """Triple (b, c, p) with ``|p| < 1``, ``c != 0`` and ``c - b p != 0``."""

    b: complex
    c: complex
    p: complex

    def __post_init__(self):
        if abs(self.p) >= 1:
            raise ValueError("need |p| < 1")
        if self.c == 0:
            raise ValueError("need c != 0")
        if self.c - self.b * self.p == 0:
            raise ValueError("need c - b p != 0")


@dataclass(frozen=True)
class V3Derived:
    """Conserved and derived quantities of a reduced state."""

    Q: float
    M: float
    J: complex
    x: float  # |c| sqrt(M)
    psi: float  # arg(b conj(c) p); 0 when b p = 0
    Ecal: float  # |J|^2 (doubled energy)


def _qmj(b: complex, c: complex, p: complex):
    denom = 1.0 - abs(p) ** 2
    q = abs(b) ** 2 + abs(c) ** 2 / denom
    mom = abs(c) ** 2 / denom**2
    j = (q + abs(c) * math.sqrt(mom)) * b + mom * c * p.conjugate()
    return q, mom, j


def _chart(b, c, p):
    """``(x, psi)`` of scalar or array states, elementwise.  Squares are products and
    ``b conj(c) p`` is expanded in reals: numpy's ``** 2`` and complex product may round
    a 0-d array differently from a longer one, and the recorder must match :func:`derived`."""
    abs_c, abs_p = np.abs(c), np.abs(p)
    denom = 1.0 - abs_p * abs_p
    x = abs_c * np.sqrt(abs_c * abs_c / (denom * denom))
    re = b.real * c.real + b.imag * c.imag  # b conj(c)
    im = b.imag * c.real - b.real * c.imag
    re, im = re * p.real - im * p.imag, re * p.imag + im * p.real
    return x, np.where((re != 0) | (im != 0), np.arctan2(im, re), 0.0)


def derived(s: V3State) -> V3Derived:
    q, mom, j = _qmj(s.b, s.c, s.p)
    x, psi = _chart(s.b, s.c, s.p)
    # a product, not Python float **: a huge state gives Ecal = inf, not OverflowError
    return V3Derived(Q=q, M=mom, J=j, x=float(x), psi=float(psi), Ecal=abs(j) * abs(j))


def energy_closed_form(q: float, mom: float, x: float, psi: float) -> float:
    """``Ecal`` from (Q, M, x, psi) alone; matches ``|J|^2`` on admissible states."""
    rad = (q - x) * (mom - x)
    return (q + x) ** 2 * (q - x) + x**2 * (mom - x) + 2.0 * x * (q + x) * math.sqrt(max(rad, 0.0)) * math.cos(psi)


def _check_admissible(b: complex, c: complex, p: complex):
    if abs(p) >= 1.0 - _P_LIMIT:
        raise DegenerateState(f"|p| = {abs(p):.12f} within {_P_LIMIT:.0e} of 1")
    if abs(c) <= _C_LIMIT:
        raise DegenerateState(f"|c| = {abs(c):.3e} within {_C_LIMIT:.0e} of 0")


def _deriv(b: complex, c: complex, p: complex) -> tuple[complex, complex, complex]:
    q, mom, j = _qmj(b, c, p)
    jc = j.conjugate()
    denom = 1.0 - abs(p) ** 2
    db = -1j * (b * b * jc + 2.0 * abs(b) ** 2 * j + 2.0 * j * abs(c) ** 2 / denom)
    dc = -1j * (2.0 * b * c * jc + 2.0 * b.conjugate() * c * j + 2.0 * j * p * abs(c) ** 2 / denom)
    dp = -1j * (c * jc)
    return db, dc, dp


@dataclass(frozen=True, eq=False)
class V3Trajectory:
    """Per-sample record of a reduced trajectory.

    ``times``, ``x`` and ``psi`` are stored at every sample ``i * dt`` (the
    instability diagnostics need the full resolution); complex states at
    every ``stride``-th sample.
    """

    dt: float
    times: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    state_times: np.ndarray
    states: tuple[V3State, ...]
    drift: dict
    steps: int = 0  # accepted solver steps
    nfev: int = 0  # right-hand-side evaluations, dense output included


def _solver_rhs(t, y):
    b, c, p = y.tolist()
    _check_admissible(b, c, p)
    return np.array(_deriv(b, c, p))


def v3_integrate(
    s0: V3State,
    dt: float,
    t_final: float,
    stride: int = 100,
    stop_when=None,
) -> V3Trajectory:
    """The reduced system by DOP853 with dense output, sampled every ``dt``.

    :func:`~quadszego.dynamics.sample_dop853` takes adaptive steps on the
    complex triple (b, c, p) and fills every sample ``i * dt`` a step has
    passed.  ``dt`` is the sample spacing, not a step size.  ``t_final`` may
    be negative (time then runs backwards).

    The optional ``stop_when(t, x, psi)`` predicate ends the run early (used
    by escape-time experiments).  It receives the arrays of the samples one
    solver step has just passed and returns a boolean array of the same
    shape; the run ends at the first sample where it holds, and the solver
    never gets further than one step past it.  Raises
    :class:`DegenerateState` near ``|p| = 1`` or ``c = 0``, checked at every
    right-hand-side evaluation, or if the solver gives up,
    :class:`~quadszego.errors.NonFiniteState` for a non-finite datum, and
    ``ValueError`` up front for ``dt == 0``, ``stride < 1`` or a ``t_final``
    that is not a whole number of ``dt``.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    steps = abs(t_final) / abs(dt)
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
        raise ValueError(f"t_final must be a whole number of samples dt, got |t_final/dt| = {steps!r}")
    n_steps = int(round(steps))
    h = math.copysign(abs(dt), t_final)
    d0 = derived(s0)

    times = np.empty(n_steps + 1)
    xs = np.empty(n_steps + 1)
    psis = np.empty(n_steps + 1)
    times[0], xs[0], psis[0] = 0.0, d0.x, d0.psi
    state_times = [0.0]
    states = [s0]
    drift = {"Q": 0.0, "M": 0.0, "Ecal": 0.0}

    end = n_steps  # moves to the stop sample once stop_when holds
    done = 0  # last filled sample

    def record(idx: np.ndarray, ys: np.ndarray) -> bool:
        nonlocal end, done
        times[idx] = idx * h
        b, c, p = ys
        x, psi = _chart(b, c, p)
        if stop_when is not None:
            hits = np.flatnonzero(stop_when(times[idx], x, psi))
            if hits.size:
                idx = idx[: hits[0] + 1]
                end = int(idx[-1])
        xs[idx] = x[: len(idx)]
        psis[idx] = psi[: len(idx)]
        for k in np.flatnonzero((idx % stride == 0) | (idx == end)):
            bk, ck, pk = complex(b[k]), complex(c[k]), complex(p[k])
            q, mom, j = _qmj(bk, ck, pk)
            drift["Q"] = max(drift["Q"], abs(q - d0.Q) / max(abs(d0.Q), 1e-300))
            drift["M"] = max(drift["M"], abs(mom - d0.M) / max(abs(d0.M), 1e-300))
            drift["Ecal"] = max(drift["Ecal"], abs(abs(j) * abs(j) - d0.Ecal) / max(abs(d0.Ecal), 1e-300))
            state_times.append(float(times[idx[k]]))
            states.append(V3State(b=bk, c=ck, p=pk))
        done = int(idx[-1])
        return done == end

    y0 = np.array([s0.b, s0.c, s0.p], dtype=np.complex128)
    solver_steps, nfev = sample_dop853(_solver_rhs, y0, h, n_steps, record, failure=DegenerateState)

    return V3Trajectory(
        dt=h,
        times=times[: done + 1],
        x=xs[: done + 1],
        psi=psis[: done + 1],
        state_times=np.array(state_times),
        states=tuple(states),
        drift=drift,
        steps=solver_steps,
        nfev=nfev,
    )


def embed(s: V3State, trunc: int) -> HardyCoefficients:
    """Fourier representation: ``u_hat(0) = b``, ``u_hat(k) = c p^(k-1)``, ``trunc >= 1``."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    out = np.zeros(trunc, dtype=np.complex128)
    out[0] = s.b
    out[1:] = s.c * np.asarray(s.p, dtype=np.complex128) ** np.arange(trunc - 1)
    return HardyCoefficients(out)


def evolx_rhs(q: float, mom: float, ecal: float, x: np.ndarray) -> np.ndarray:
    """Right side of the closed evolution law for ``x``."""
    x = np.asarray(x, dtype=float)
    g = (q + x) ** 2 * (q - x) + x**2 * (mom - x)
    return 4.0 * x**2 * (q + x) ** 2 * (q - x) * (mom - x) - (g - ecal) ** 2


def evolx_residual(traj: V3Trajectory) -> float:
    """Max defect of ``(dx/dt)^2`` (centered finite differences) against the
    conserved-quantity closed form, over interior trajectory points."""
    d0 = derived(traj.states[0])
    x = traj.x
    if len(x) < 3:
        raise TrajectoryTooShort("trajectory too short for centered differences")
    fd = (x[2:] - x[:-2]) / (2.0 * traj.dt)
    rhs_vals = evolx_rhs(d0.Q, d0.M, d0.Ecal, x[1:-1])
    return float(np.max(np.abs(fd**2 - rhs_vals)))


def translated_ground_state(r: float, gamma: float = 0.0) -> V3State:
    """``v_r`` with the mean rotated by ``exp(i gamma)``:
    ``b = -e^{i gamma} 2r/(1-r)``, ``c = p = sqrt(r)``."""
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    return V3State(
        b=-cmath.exp(1j * gamma) * 2.0 * r / (1.0 - r),
        c=math.sqrt(r),
        p=math.sqrt(r),
    )


@dataclass(frozen=True)
class InstabilityReport:
    """Outcome of one perturbed-ground-state run.

    ``coeff_linear`` is the reference prediction for the y-linear term of the
    expanded evolution law; ``y_linear_fit`` is the same coefficient measured
    by regressing ``(dy/dt)^2`` on ``[1, y, y^2]`` along the simulated orbit.
    The measured value vanishes: expanding the closed-form law exactly gives
    ``(dy/dt)^2 = dE (A - dE) - D y^2 + O(y^3)`` with
    ``D = 3 r^4 (1+r)^2 (5r+3) / (1-r)^7`` (``coeff_quadratic``), so the
    reachable set is an oscillation band of half-width ``~sqrt(dE A / D)``
    rather than an unbounded escape; ``y_max_abs`` records the measured band.
    """

    r: float
    gamma: float
    delta_ecal: float
    coeff_leading: float  # A = 16 r^4 (1+r) / (1-r)^5
    coeff_linear: float  # reference prediction: -64 r^7 (1+r)^2 / (1-r)^9
    coeff_quadratic: float  # -D from the exact expansion of the closed-form law
    dydt2_measured: float
    dydt2_predicted: float  # delta_ecal * (coeff_leading - delta_ecal)
    y_linear_fit: float
    y_quadratic_fit: float
    y_max_abs: float
    exit_threshold: float
    exit_time_forward: float | None
    exit_time_backward: float | None
    monotone_escape: bool
    q_error: float
    m_error: float
    gamma_order: float  # measured scaling exponent of delta_ecal in gamma

    @property
    def escaped(self) -> bool:
        return self.exit_time_forward is not None or self.exit_time_backward is not None

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["escaped"] = self.escaped
        return out


def _first_exit(traj: V3Trajectory, x_r: float, threshold: float) -> tuple[float | None, bool]:
    y = traj.x - x_r
    beyond = np.abs(y) > threshold
    if not np.any(beyond):
        return None, False
    idx = int(np.argmax(beyond))
    # escape interval: from the last sign change of y before the exit
    sign = np.sign(y[: idx + 1])
    changes = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    start = int(changes[-1]) + 1 if len(changes) else 0
    seg = np.abs(y[start : idx + 1])
    monotone = bool(np.all(np.diff(seg) >= -1e-14))
    return float(traj.times[idx]), monotone


def _fit_y_polynomial(traj: V3Trajectory, x_r: float) -> tuple[float, float]:
    """Least-squares fit of ``(dy/dt)^2 = c0 + c1 y + c2 y^2`` along a run;
    returns ``(c1, c2)`` (nan when the orbit never moved)."""
    y = traj.x - x_r
    if np.max(np.abs(y)) < 1e-12:
        return float("nan"), float("nan")
    fd = (y[2:] - y[:-2]) / (2.0 * traj.dt)
    ymid = y[1:-1]
    design = np.column_stack([np.ones_like(ymid), ymid, ymid**2])
    sol, *_ = np.linalg.lstsq(design, fd**2, rcond=None)
    return float(sol[1]), float(sol[2])


def instability_experiment(
    r: float,
    gamma: float,
    eps0: float = 1e-2,
    dt: float = 1e-4,
    t_final: float = 50.0,
) -> InstabilityReport:
    """Perturb ``v_r`` by a mean-phase rotation and track the deviation of ``x``.

    The perturbation keeps Q and M exact and raises the doubled energy by
    ``delta_ecal > 0``; the report compares the measured ``(dy/dt)^2(0)``
    (5-point one-sided stencil, keeping the leading-order check clean) with
    the predicted ``delta_ecal * (coeff_leading - delta_ecal)``, records the
    first exit of ``|y|`` from the ball of radius ``eps0 * sqrt(M_r)`` in both
    time directions, fits the y-linear term of the evolution law along the
    forward run, and measures how ``delta_ecal`` scales from ``gamma/2`` to
    ``gamma``.  No exit before ``t_final`` leaves the exit times ``None`` (a
    flag for parameter review, not a silent pass).  ``dt`` is the sample
    spacing of the runs (see :func:`v3_integrate`), which the stencil, the
    exit times and the fit read.
    """
    if not 0 <= gamma < math.pi / 2:
        raise ValueError("gamma must lie in [0, pi/2) so that cos(pi + gamma) > -1 strictly")
    if not eps0 > 0:
        raise ValueError(f"eps0 must be > 0 (the exit ball's radius), got {eps0}")
    base = translated_ground_state(r)
    pert = translated_ground_state(r, gamma)
    d_base = derived(base)
    d_pert = derived(pert)
    delta_ecal = d_pert.Ecal - d_base.Ecal
    x_r = d_base.x

    coeff_leading = 16.0 * r**4 * (1.0 + r) / (1.0 - r) ** 5
    coeff_linear = -64.0 * r**7 * (1.0 + r) ** 2 / (1.0 - r) ** 9
    coeff_quadratic = -3.0 * r**4 * (1.0 + r) ** 2 * (5.0 * r + 3.0) / (1.0 - r) ** 7
    threshold = eps0 * math.sqrt(d_base.M)

    def stop(t, x, psi):
        return np.abs(x - x_r) > 1.25 * threshold

    fwd = v3_integrate(pert, dt, t_final, stride=1000, stop_when=stop)
    bwd = v3_integrate(pert, dt, -t_final, stride=1000, stop_when=stop)

    # one-sided 4th-order stencil for dy/dt at t=0
    if len(fwd.x) < 5:
        raise TrajectoryTooShort("trajectory too short for the 5-point stencil")
    y = fwd.x[:5] - x_r
    dydt0 = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * dt)

    exit_fwd, mono_fwd = _first_exit(fwd, x_r, threshold)
    exit_bwd, mono_bwd = _first_exit(bwd, x_r, threshold)
    monotone = mono_fwd if exit_fwd is not None else mono_bwd
    y_max = max(float(np.max(np.abs(fwd.x - x_r))), float(np.max(np.abs(bwd.x - x_r))))

    lin_fit, quad_fit = _fit_y_polynomial(fwd, x_r)
    half = translated_ground_state(r, gamma / 2.0)
    delta_half = derived(half).Ecal - d_base.Ecal
    gamma_order = (
        math.log(delta_ecal / delta_half) / math.log(2.0) if delta_half > 0 and delta_ecal > 0 else float("nan")
    )

    return InstabilityReport(
        r=r,
        gamma=gamma,
        delta_ecal=delta_ecal,
        coeff_leading=coeff_leading,
        coeff_linear=coeff_linear,
        coeff_quadratic=coeff_quadratic,
        dydt2_measured=float(dydt0**2),
        dydt2_predicted=delta_ecal * (coeff_leading - delta_ecal),
        y_linear_fit=lin_fit,
        y_quadratic_fit=quad_fit,
        y_max_abs=y_max,
        exit_threshold=threshold,
        exit_time_forward=exit_fwd,
        exit_time_backward=abs(exit_bwd) if exit_bwd is not None else None,
        monotone_escape=monotone,
        q_error=abs(d_pert.Q - d_base.Q),
        m_error=abs(d_pert.M - d_base.M),
        gamma_order=gamma_order,
    )

