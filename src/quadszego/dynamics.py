"""Time integration of the quadratic flow with conservation and spectrum monitors.

The truncated equation is a smooth, non-stiff ODE on the first ``trunc``
Fourier coefficients.  :func:`sample_dop853`, the package's one integrator
(the reduced flow of :mod:`~quadszego.v3` runs on it too), steps it by
adaptive DOP853 (Hairer, Norsett & Wanner, *Solving ODE I*, sec. II.5),
implemented in :mod:`~quadszego._dop853` to match ``scipy.integrate.DOP853``
bit for bit without importing ``scipy.integrate``, and reads it on the
``dt`` sample grid; the conservation monitors catch inadequate resolution.
Each right-hand side is one :func:`~quadszego.hardy.j_and_flow`, an
alias-free FFT pair that keeps the state dimension fixed.

Invariants are recorded during integration, because their drift aborts it.
The Hankel spectra are not: a :class:`TrajectoryRecord` computes them on
first read, from one sketch of ``H`` per snapshot, and shares them between
``k2_spectra`` and :func:`rank_conservation_check`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DriftExceeded, NonFiniteState
from .hardy import ConservedTriple, HardyCoefficients, conserved, j_and_flow
from .operators import hankel, shifted_hankel, sketched_hankel_pair

__all__ = [
    "SimulationConfig",
    "TrajectoryRecord",
    "rhs",
    "integrate",
    "sample_dop853",
    "rank_conservation_check",
    "trajectory_to_csv",
    "trajectory_to_jsonl",
]

#: columns K's half of a snapshot's sketch takes beyond the ``n_spectrum``
#: values it monitors; the sketch of H takes one more
_SKETCH_OVERSAMPLE = 4

# Local error control of both flows: tight enough that the reduced system's
# dense output reproduces RK4 at dt = 1e-4 to about 1e-13 in x, and that the
# truncated flow follows the exact traveling-wave orbits to about 1e-12.
RTOL = 1e-13
ATOL = 1e-15


@dataclass(frozen=True)
class SimulationConfig:
    """Integration parameters; ``dt`` is the sample spacing (the solver
    chooses its own steps) and ``t_final`` a whole number of samples ``dt``
    (to 1e-9 of a sample), of ``dt``'s sign.

    Snapshots (state and invariants) are recorded every ``monitor_stride``
    samples; drift of Q, M, E beyond ``tol_drift`` (relative to t=0) aborts
    with :class:`DriftExceeded`.  ``n_spectrum`` is the width of the
    record's ``k2_spectra``, which are computed on first read, not here.
    """

    dt: float
    t_final: float
    trunc: int
    monitor_stride: int = 100
    tol_drift: float = 1e-6
    n_spectrum: int = 8  # monitored K^2 eigenvalues per snapshot

    def __post_init__(self):
        if self.dt == 0:
            raise ValueError("dt must be nonzero")
        steps = self.t_final / self.dt
        if not (np.isfinite(steps) and round(steps) >= 0 and abs(steps - round(steps)) <= 1e-9):
            raise ValueError(f"t_final must be a whole number of dt steps of dt's sign, got t_final/dt = {steps!r}")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")
        if self.trunc < 2:
            raise ValueError("trunc must be >= 2")
        if not self.tol_drift > 0:
            raise ValueError("tol_drift must be > 0")
        if self.n_spectrum < 1:
            raise ValueError("n_spectrum must be >= 1")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Snapshots of an integrated trajectory (immutable once returned).

    Each snapshot's singular values of ``H`` and ``K`` are computed on first
    read as ``(s, r)`` pairs: descending ``s`` with every singular value
    within ``r`` of them (and in ``[0, r]`` past ``len(s)``).  One
    :func:`~quadszego.operators.sketched_hankel_pair` of width
    ``n_spectrum + 5`` gives both, so K's half sees ``n_spectrum + 4``
    columns.  A half is kept when ``r <= 16 M eps ||.||_F``, with
    ``||H||_F = sqrt(Q + M)`` and ``||K||_F = sqrt(M)`` from the snapshot's
    invariants; otherwise, and for both once the width reaches ``M``, the
    matrix takes its dense ``svdvals`` with ``r = 0`` on first read.  The
    pairs are cached read-only and shared by ``k2_spectra`` (K) and
    :func:`rank_conservation_check` (H and K).
    """

    times: np.ndarray
    states: tuple[HardyCoefficients, ...]
    invariants: tuple[ConservedTriple, ...]
    drift: dict  # max relative deviation of Q, M, E from t=0
    n_spectrum: int = 8  # width of k2_spectra
    steps: int = 0  # accepted solver steps
    nfev: int = 0  # right-hand-side evaluations, dense output included

    def __post_init__(self):
        if not len(self.states) == len(self.invariants) == len(self.times):
            raise ValueError("all snapshot sequences must share one length")
        object.__setattr__(self, "_pairs", [None] * len(self.states))

    def _certified_at(self, i: int, half: int) -> tuple[np.ndarray, float]:
        """``(s, r)`` for ``H`` (``half = 0``) or ``K`` (``half = 1``) at
        snapshot ``i``; the sketch is taken once, a dense half on first read."""
        pair = self._pairs[i]
        if pair is None:
            pair = self._pairs[i] = [None, None]
            state, inv = self.states[i], self.invariants[i]
            m = state.trunc
            width = self.n_spectrum + _SKETCH_OVERSAMPLE + 1
            if width < m:
                limit = 16 * m * np.finfo(float).eps
                sketch = sketched_hankel_pair(hankel(state), width)
                for j, ((s, r), norm2) in enumerate(zip(sketch, (inv.Q + inv.M, inv.M))):
                    if r <= limit * np.sqrt(norm2):
                        s.flags.writeable = False
                        pair[j] = (s, r)
        if pair[half] is None:
            s = np.linalg.svdvals((hankel, shifted_hankel)[half](self.states[i]))
            s.flags.writeable = False
            pair[half] = (s, 0.0)
        return pair[half]

    @cached_property
    def k2_spectra(self) -> np.ndarray:
        """(n_snapshots, n_spectrum): the top K^2 eigenvalues ``s_j^2``,
        descending and nonnegative, zero-padded when the matrix has fewer.

        A sketched snapshot's row lies within ``(2 sigma_1 + r) r`` of the
        squared dense ``svdvals``, with ``r <= 16 M eps ||K||_F``; a dense
        snapshot's row equals them bit for bit.
        """
        out = np.zeros((len(self.states), self.n_spectrum))
        for i, row in enumerate(out):
            top = self._certified_at(i, 1)[0][: self.n_spectrum]
            row[: len(top)] = top**2
        out.flags.writeable = False
        return out


def rhs(u: HardyCoefficients) -> HardyCoefficients:
    """Right-hand side of the flow, truncated to ``u.trunc``."""
    return HardyCoefficients(j_and_flow(u.coeffs)[1])


def sample_dop853(fun, y0: np.ndarray, h: float, n: int, record, keep=None, failure=NonFiniteState) -> tuple[int, int]:
    """Step ``y' = fun(t, y)``, ``y(0) = y0``, by the package's DOP853
    (:class:`~quadszego._dop853.Dop853`, bit-identical to scipy's) to
    ``t = n h``; returns the accepted steps and the right-hand-side
    evaluations, dense output included.

    After each step ``record(idx, ys)`` gets the samples ``i * h`` the step
    has passed and ``keep(idx)`` (a boolean mask; all when ``None``) retains,
    their states the columns of ``ys``; a true return ends the run there.  A
    sample on the step's end takes the solver's state; any other is read
    from the step's dense output, which costs three evaluations and is built
    only then.  Raises :class:`NonFiniteState` for a non-finite datum (also
    when ``n == 0``), initial right-hand side or accepted state, and
    ``failure`` when the step size underflows.
    """
    from ._dop853 import Dop853  # here: runs that never integrate (steady, ...) do not load it

    if not np.all(np.isfinite(y0)):
        raise NonFiniteState("non-finite initial state")
    if n == 0:
        return 0, 0
    # a state blowing up overflows in the stages, and the step then shrinks
    # until the solver gives up
    with np.errstate(over="ignore", invalid="ignore"):
        solver = Dop853(fun, y0, n * h, RTOL, ATOL)
        if not np.all(np.isfinite(solver.f)):  # the first step size would be NaN, never rejected
            raise NonFiniteState("non-finite right-hand side of the initial state")
        steps = done = 0
        while done < n:
            if not solver.step():
                raise failure(f"the solver stopped at t={solver.t:.6g}: the step size fell below the float spacing")
            steps += 1
            if not np.all(np.isfinite(solver.y)):
                raise NonFiniteState(f"non-finite state at t={solver.t:.6g}")
            # the last sample passed; an ulp either way only moves a sample
            # to the neighbouring step's interpolant
            last = n if solver.finished else int(solver.t / h)
            idx = np.arange(done + 1, last + 1)
            done = last
            idx = idx if keep is None else idx[keep(idx)]
            if idx.size == 0:
                continue
            t = idx * h
            if t[-1] != solver.t:
                ys = solver.dense_output(t)
            elif len(t) == 1:
                ys = solver.y[:, None]
            else:
                ys = np.column_stack([solver.dense_output(t[:-1]), solver.y])
            if record(idx, ys):
                break
    return steps, solver.nfev


def integrate(u0: HardyCoefficients, cfg: SimulationConfig) -> TrajectoryRecord:
    """Adaptive trajectory from ``u0`` with monitors, sampled every ``cfg.dt``
    by :func:`sample_dop853`; each right-hand side is one
    :func:`~quadszego.hardy.j_and_flow`: one inverse and one forward FFT on
    the smallest 2,3,5,7,11-smooth grid of at least ``2 trunc - 1`` points.

    Snapshots (state and invariants) are taken every ``cfg.monitor_stride``
    samples and at the last; their K^2 spectra are left to the record, which
    computes them on first read.  Raises :class:`NonFiniteState` if the
    datum or a solver state is not finite, or the solver gives up, and
    :class:`DriftExceeded` if an invariant drifts beyond ``cfg.tol_drift``
    relative to its t=0 value.
    """
    n = int(round(cfg.t_final / cfg.dt))
    times = [0.0]
    states = [u0.truncated(cfg.trunc)]
    invariants = [conserved(states[0])]
    ref = invariants[0]
    drift = {"Q": 0.0, "M": 0.0, "E": 0.0}

    def record(idx: np.ndarray, ys: np.ndarray) -> None:
        for t, cvec in zip(idx * cfg.dt, ys.T):
            state = HardyCoefficients(cvec)
            inv = conserved(state)
            times.append(float(t))
            states.append(state)
            invariants.append(inv)
            for name, now, initial in (("Q", inv.Q, ref.Q), ("M", inv.M, ref.M), ("E", inv.E, ref.E)):
                scale = max(abs(initial), 1e-300)
                rel = abs(now - initial) / scale
                drift[name] = max(drift[name], rel)
                if rel > cfg.tol_drift:
                    raise DriftExceeded(
                        f"{name} drifted by {rel:.3e} (> {cfg.tol_drift:.1e}) at t={t:.6g}; "
                        "trunc may be too small"
                    )

    steps, nfev = sample_dop853(
        lambda t, y: j_and_flow(y)[1], states[0].coeffs, cfg.dt, n, record,
        keep=lambda i: (i % cfg.monitor_stride == 0) | (i == n),
    )

    return TrajectoryRecord(
        times=np.array(times),
        states=tuple(states),
        invariants=tuple(invariants),
        drift=drift,
        n_spectrum=cfg.n_spectrum,
        steps=steps,
        nfev=nfev,
    )


def _certified_count(s: np.ndarray, r: float, scales: tuple[float, float], tol: float) -> int | None:
    """Certified ``#{j : sigma_j^2 > tol scale}`` for every ``scale`` in
    ``[scales[0], scales[1]]``; ``None`` when the bound cannot settle it.

    Each ``sigma_j`` lies in ``[s_j - r, s_j + r]`` and past ``len(s)`` in
    ``[0, r]``.  The lower end is ``s_j - r`` rather than ``s_j``: a
    computed ``s_j`` may exceed ``sigma_j`` by round-off, which ``r``
    covers.  A value counts once its whole bracket clears the threshold at
    every scale, and every value must be settled either way.  With
    ``r = 0`` and one scale this is the plain count of ``s_j^2 > tol scale``.
    """
    lo = np.maximum(s - r, 0.0) ** 2
    hi = (s + r) ** 2
    above = lo > tol * scales[1]
    below = hi <= tol * scales[0]
    if not np.all(above | below) or r * r > tol * scales[0]:
        return None
    return int(np.sum(above))


def rank_conservation_check(traj: TrajectoryRecord, d: int, tol: float = 1e-8) -> bool:
    """True iff the ranks prescribed by the class V(d) hold at every snapshot.

    ``d = 2N`` requires ``rank H = rank K = N``; ``d = 2N+1`` requires
    ``rank H = N+1`` and ``rank K = N``.  Eigenvalues beyond the rank must
    stay below ``tol`` relative to the leading eigenvalue of ``H^2``.

    Both counts are certified from the record's cached ``(s, r)`` pairs (see
    :func:`_certified_count`), H's of which also brackets the scale: one
    sketch of ``H`` per snapshot, whose shifted columns give ``K``.  A rank
    of H above the sketch's width leaves a residual that fails the keep
    rule, so that snapshot reads the dense values of ``H``.  Where either
    count is open, the snapshot takes every singular value of ``H`` and of
    ``K`` (not cached, so ``k2_spectra`` does not depend on which is read
    first) and counts them by the same rule at ``r = 0``: the dense route.
    A wrong H count stops the check before K's values of that snapshot are
    read, and a check that fails at snapshot ``i`` has sketched snapshots
    ``0..i`` only.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return not any(state.norm() > tol for state in traj.states)
    n = d // 2
    want_h, want_k = (n, n) if d % 2 == 0 else (n + 1, n)
    for i, state in enumerate(traj.states):
        s, r = traj._certified_at(i, 0)
        scales = (max(max(s[0] - r, 0.0) ** 2, 1e-300), max((s[0] + r) ** 2, 1e-300))
        rank_h = _certified_count(s, r, scales, tol)
        if rank_h is not None and rank_h != want_h:
            return False
        s_k, r_k = traj._certified_at(i, 1)
        rank_k = _certified_count(s_k, r_k, scales, tol)
        if rank_h is None or rank_k is None:
            # r = 0: the cached values are already dense
            h = np.linalg.svdvals(hankel(state)) if r else s
            k = np.linalg.svdvals(shifted_hankel(state)) if r_k else s_k
            scale = max(h[0] * h[0], 1e-300)
            rank_h = _certified_count(h, 0.0, (scale, scale), tol)
            rank_k = _certified_count(k, 0.0, (scale, scale), tol)
        if (rank_h, rank_k) != (want_h, want_k):
            return False
    return True


def trajectory_to_csv(traj: TrajectoryRecord, path) -> None:
    """Columns: t, Q, M, E, |J|, k2_eig_1..n.

    The ``k2_eig_*`` columns are ``traj.k2_spectra``, deterministic, so the
    file is byte-identical from run to run.
    """
    n_spec = traj.k2_spectra.shape[1]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "Q", "M", "E", "absJ"] + [f"k2_eig_{i+1}" for i in range(n_spec)])
        for t, inv, spec in zip(traj.times, traj.invariants, traj.k2_spectra):
            writer.writerow(
                [repr(float(t)), repr(inv.Q), repr(inv.M), repr(inv.E), repr(abs(inv.J))]
                + [repr(float(s)) for s in spec]
            )


def trajectory_to_jsonl(traj: TrajectoryRecord, path) -> None:
    """One JSON object per snapshot: ``{"t": ..., "state": {trunc, re, im}}``."""
    with open(path, "w") as f:
        for t, state in zip(traj.times, traj.states):
            f.write(json.dumps({"t": float(t), "state": state.to_json()}) + "\n")
