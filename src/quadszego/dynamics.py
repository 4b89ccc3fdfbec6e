"""Time integration of the quadratic flow with conservation and spectrum monitors.

The truncated equation is a smooth, non-stiff ODE on the first ``trunc``
Fourier coefficients; classical fixed-step RK4 is used and the conservation
monitors catch inadequate resolution.  ``J(u)`` is state-dependent and is
recomputed inside every RK4 stage.  Products come alias-free from
:func:`~quadszego.hardy.quadratic_products` and are cut back to the state
dimension each stage, so the state dimension stays fixed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DriftExceeded, NonFiniteState
from .hardy import ConservedTriple, HardyCoefficients, conserved, quadratic_products
from .operators import hankel, shifted_hankel

__all__ = [
    "SimulationConfig",
    "TrajectoryRecord",
    "rhs",
    "integrate",
    "rank_conservation_check",
    "trajectory_to_csv",
    "trajectory_to_jsonl",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed-step integration parameters.

    ``monitor_stride`` controls how often snapshots (state, invariants,
    K^2 spectrum) are recorded; drift of Q, M, E beyond ``tol_drift``
    (relative to t=0) aborts with :class:`DriftExceeded`.
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
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")
        if self.trunc < 2:
            raise ValueError("trunc must be >= 2")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Snapshots of an integrated trajectory (immutable once returned)."""

    times: np.ndarray
    states: tuple[HardyCoefficients, ...]
    invariants: tuple[ConservedTriple, ...]
    k2_spectra: np.ndarray  # (n_snapshots, n_spectrum), descending nonnegative rows
    drift: dict  # max relative deviation of Q, M, E from t=0

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.states) == len(self.invariants) == self.k2_spectra.shape[0] == n):
            raise ValueError("all snapshot sequences must share one length")


def _rhs_array(c: np.ndarray) -> np.ndarray:
    """d/dt of the coefficient vector: the flow reads
    ``i du/dt = 2 J Pi(|u|^2) + conj(J) u^2`` with ``J = (u^2|u)``."""
    u2, abs2 = quadratic_products(c, len(c))
    j = np.vdot(c, u2)
    return -1j * (2.0 * j * abs2 + np.conj(j) * u2)


def rhs(u: HardyCoefficients) -> HardyCoefficients:
    """Right-hand side of the flow, truncated to ``u.trunc``."""
    return HardyCoefficients(_rhs_array(u.coeffs))


def _k2_top_eigs(state: HardyCoefficients, n: int) -> np.ndarray:
    top = np.linalg.svdvals(shifted_hankel(state))[:n]
    out = np.zeros(n)
    out[: len(top)] = top**2
    return out


def integrate(u0: HardyCoefficients, cfg: SimulationConfig) -> TrajectoryRecord:
    """Fixed-step RK4 trajectory from ``u0`` with monitors.

    Snapshots are taken every ``cfg.monitor_stride`` steps (plus the final
    step).  Raises :class:`NonFiniteState` if a coefficient leaves the finite
    range and :class:`DriftExceeded` if an invariant drifts beyond
    ``cfg.tol_drift`` relative to its t=0 value.
    """
    dt = cfg.dt
    n_steps = int(round(cfg.t_final / dt))
    if n_steps < 0:
        raise ValueError("t_final and dt must have the same sign")
    c = u0.padded(cfg.trunc) if u0.trunc <= cfg.trunc else u0.coeffs[: cfg.trunc].copy()
    c = np.array(c, dtype=np.complex128)

    times = [0.0]
    states = [HardyCoefficients(c)]
    invariants = [conserved(states[0])]
    spectra = [_k2_top_eigs(states[0], cfg.n_spectrum)]
    ref = invariants[0]
    drift = {"Q": 0.0, "M": 0.0, "E": 0.0}

    def _record(t: float, cvec: np.ndarray):
        state = HardyCoefficients(cvec)
        inv = conserved(state)
        times.append(t)
        states.append(state)
        invariants.append(inv)
        spectra.append(_k2_top_eigs(state, cfg.n_spectrum))
        for name, now, initial in (("Q", inv.Q, ref.Q), ("M", inv.M, ref.M), ("E", inv.E, ref.E)):
            scale = max(abs(initial), 1e-300)
            rel = abs(now - initial) / scale
            drift[name] = max(drift[name], rel)
            if rel > cfg.tol_drift:
                raise DriftExceeded(
                    f"{name} drifted by {rel:.3e} (> {cfg.tol_drift:.1e}) at t={t:.6g}; "
                    "dt may be too large or trunc too small"
                )

    for step in range(1, n_steps + 1):
        k1 = _rhs_array(c)
        k2 = _rhs_array(c + 0.5 * dt * k1)
        k3 = _rhs_array(c + 0.5 * dt * k2)
        k4 = _rhs_array(c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(c)):
            raise NonFiniteState(f"non-finite coefficient at step {step}")
        if step % cfg.monitor_stride == 0 or step == n_steps:
            _record(step * dt, c)

    return TrajectoryRecord(
        times=np.array(times),
        states=tuple(states),
        invariants=tuple(invariants),
        k2_spectra=np.array(spectra),
        drift=drift,
    )


def rank_conservation_check(traj: TrajectoryRecord, d: int, tol: float = 1e-8) -> bool:
    """True iff the ranks prescribed by the class V(d) hold at every snapshot.

    ``d = 2N`` requires ``rank H = rank K = N``; ``d = 2N+1`` requires
    ``rank H = N+1`` and ``rank K = N``.  Eigenvalues beyond the rank must
    stay below ``tol`` relative to the leading eigenvalue.
    """
    n = d // 2
    want_h, want_k = (n, n) if d % 2 == 0 else (n + 1, n)
    for state in traj.states:
        if d == 0:
            if state.norm() > tol:
                return False
            continue
        h_eigs = np.linalg.svdvals(hankel(state)) ** 2
        k_eigs = np.linalg.svdvals(shifted_hankel(state)) ** 2
        scale = max(h_eigs[0], 1e-300)
        if int(np.sum(h_eigs > tol * scale)) != want_h:
            return False
        if int(np.sum(k_eigs > tol * scale)) != want_k:
            return False
    return True


def trajectory_to_csv(traj: TrajectoryRecord, path) -> None:
    """Columns: t, Q, M, E, |J|, k2_eig_1..n."""
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
