"""Time integration of the quadratic flow with conservation and spectrum monitors.

The truncated equation is a smooth, non-stiff ODE on the first ``trunc``
Fourier coefficients; classical fixed-step RK4 is used and the conservation
monitors catch inadequate resolution.  Each RK4 stage evaluates the whole
right-hand side with :func:`~quadszego.hardy.j_and_flow`: one inverse FFT
samples the state, ``J(u)`` is the grid mean of ``|u|^2 u``, and one forward
FFT returns the first ``trunc`` modes, so the state dimension stays fixed and
nothing aliases onto a kept mode.

Invariants are recorded during integration, because their drift aborts it.
The Hankel spectra are not: a :class:`TrajectoryRecord` computes them on
first read and shares them between ``k2_spectra`` and
:func:`rank_conservation_check`.  For a truncated state ``K`` is ``H``
shifted one column left, so one QR of ``H``'s first columns sketches both
(:func:`~quadszego.operators.sketched_hankel_pair`); each half is kept where
it certifies its matrix to round-off, and that matrix takes the dense
``svdvals`` elsewhere.
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
    "rank_conservation_check",
    "trajectory_to_csv",
    "trajectory_to_jsonl",
]

#: columns K's half of a snapshot's sketch takes beyond the ``n_spectrum``
#: values it monitors; the sketch of H takes one more
_SKETCH_OVERSAMPLE = 4


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed-step integration parameters; ``t_final`` is a whole number of
    steps ``dt`` (to 1e-9 of a step), of ``dt``'s sign.

    ``monitor_stride`` controls how often snapshots (state and invariants)
    are recorded; drift of Q, M, E beyond ``tol_drift`` (relative to t=0)
    aborts with :class:`DriftExceeded`.  ``n_spectrum`` is the width of the
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

    def _k_sketch_at(self, i: int) -> tuple[np.ndarray, float]:
        """``(s, r)`` for ``K_u`` at snapshot ``i``."""
        return self._certified_at(i, 1)

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
            top = self._k_sketch_at(i)[0][: self.n_spectrum]
            row[: len(top)] = top**2
        out.flags.writeable = False
        return out


def rhs(u: HardyCoefficients) -> HardyCoefficients:
    """Right-hand side of the flow, truncated to ``u.trunc``."""
    return HardyCoefficients(j_and_flow(u.coeffs)[1])


def integrate(u0: HardyCoefficients, cfg: SimulationConfig) -> TrajectoryRecord:
    """Fixed-step RK4 trajectory from ``u0`` with monitors.

    Each of the four stages of a step costs one inverse and one forward FFT
    of length ``next_fast_len(2 trunc - 1)`` (see
    :func:`~quadszego.hardy.j_and_flow`).  Snapshots (state and invariants)
    are taken every ``cfg.monitor_stride`` steps (plus the final step); their
    K^2 spectra are left to the record, which computes them on first read.
    Raises :class:`NonFiniteState` if a coefficient leaves the finite range
    and :class:`DriftExceeded` if an invariant drifts beyond
    ``cfg.tol_drift`` relative to its t=0 value.
    """
    dt = cfg.dt
    n_steps = int(round(cfg.t_final / dt))
    c = u0.padded(cfg.trunc) if u0.trunc <= cfg.trunc else u0.coeffs[: cfg.trunc].copy()
    c = np.array(c, dtype=np.complex128)

    times = [0.0]
    states = [HardyCoefficients(c)]
    invariants = [conserved(states[0])]
    ref = invariants[0]
    drift = {"Q": 0.0, "M": 0.0, "E": 0.0}

    def _record(t: float, cvec: np.ndarray):
        state = HardyCoefficients(cvec)
        inv = conserved(state)
        times.append(t)
        states.append(state)
        invariants.append(inv)
        for name, now, initial in (("Q", inv.Q, ref.Q), ("M", inv.M, ref.M), ("E", inv.E, ref.E)):
            scale = max(abs(initial), 1e-300)
            rel = abs(now - initial) / scale
            drift[name] = max(drift[name], rel)
            if rel > cfg.tol_drift:
                raise DriftExceeded(
                    f"{name} drifted by {rel:.3e} (> {cfg.tol_drift:.1e}) at t={t:.6g}; "
                    "dt may be too large or trunc too small"
                )

    # a blowing-up state overflows inside the stages; the finiteness check
    # below turns that into NonFiniteState
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            _, k1 = j_and_flow(c)
            _, k2 = j_and_flow(c + 0.5 * dt * k1)
            _, k3 = j_and_flow(c + 0.5 * dt * k2)
            _, k4 = j_and_flow(c + dt * k3)
            c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(c)):
                raise NonFiniteState(f"non-finite coefficient at step {step}")
            if step % cfg.monitor_stride == 0 or step == n_steps:
                _record(step * dt, c)

    return TrajectoryRecord(
        times=np.array(times),
        states=tuple(states),
        invariants=tuple(invariants),
        drift=drift,
        n_spectrum=cfg.n_spectrum,
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
    first) and counts exactly; the decisions are those of the dense route.
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
            h_eigs = (np.linalg.svdvals(hankel(state)) if r else s) ** 2
            k_eigs = (np.linalg.svdvals(shifted_hankel(state)) if r_k else s_k) ** 2
            scale = max(h_eigs[0], 1e-300)
            rank_h = int(np.sum(h_eigs > tol * scale))
            rank_k = int(np.sum(k_eigs > tol * scale))
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
