"""The benchmark workloads: seeded inputs, warm-up and gated ops.

Each workload is a closed loop of *ops*; one pass over its fixed list of op
inputs is the workload's batch of certificates.  The seed draws only
quantities that leave step counts, truncations and matrix sizes unchanged,
so the cost of a batch does not depend on the seed.  Every op checks its
result against the library's own tolerance and returns ``True`` when the
certificate holds.

``tiny=True`` shrinks horizons and the steady grid for the smoke test; the
full sizes are the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# Layers are called through their modules, where the traced run wraps them.
from quadszego import dynamics, operators, steady, v3
from quadszego.dynamics import SimulationConfig
from quadszego.hardy import HardyCoefficients
from quadszego.steady import SteadyV3Params
from quadszego.v3 import V3State, embed
from quadszego.waves import TravelingWaveSpec, build_profile

# criterion 10's grid; its last point theta=1.0263 needs 2.46M modes
STEADY_GRID = np.linspace(0.0, np.pi / 3.0, 50, endpoint=False)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[np.random.Generator, bool], list]
    warm_up: Callable[[list], None]
    run_op: Callable[[object], bool]


# --- flow: RK4 at trunc 512, monitors only at the ends, plus the reduced ODE ---

FLOW_TRUNC = 512


@dataclass(frozen=True)
class FlowInput:
    u0: HardyCoefficients
    cfg: SimulationConfig
    spec: TravelingWaveSpec | None  # None for a three-parameter-class datum


# Family, |p| and N of each datum are fixed and the seed draws only angles.
# At trunc 512 the products of a datum with |p| below about 0.65 (N = 1)
# underflow into subnormal numbers, and an op then costs up to four times as
# much; a drawn |p| made the cost of a pass depend on the seed.
FLOW_FAMILIES = (("I", 0.75, 1), ("II", 0.7, 2))
FLOW_CLASS_P = 0.8


def _family_profile(rng, family: str, p_abs: float, n: int) -> tuple[TravelingWaveSpec, HardyCoefficients]:
    """Unit-mass family profile; the seed draws the angles of p and of lam.

    Unit mass keeps the flow's time scale comparable across |p|: at |lam|=1
    the family-II pulsation reaches ~600 at |p|=0.8 and RK4 at dt=1e-3 no
    longer resolves it.
    """
    p = p_abs * np.exp(2j * np.pi * rng.uniform())
    phase = np.exp(2j * np.pi * rng.uniform())
    mass = build_profile(TravelingWaveSpec(family, 1.0, p, n), FLOW_TRUNC).norm() ** 2
    spec = TravelingWaveSpec(family, phase / math.sqrt(mass), p, n)
    return spec, build_profile(spec, FLOW_TRUNC)


def _class_state(rng) -> HardyCoefficients:
    """Unit-mass ``b + c z/(1 - p z)``; the seed draws the angles of b, c, p."""
    p = FLOW_CLASS_P * np.exp(2j * np.pi * rng.uniform())
    b = 0.6 * np.exp(2j * np.pi * rng.uniform())
    c = np.exp(2j * np.pi * rng.uniform())
    scale = 1.0 / math.sqrt(abs(b) ** 2 + abs(c) ** 2 / (1.0 - abs(p) ** 2))
    return embed(V3State(b=b * scale, c=c * scale, p=p), FLOW_TRUNC)


def _flow_inputs(rng, tiny: bool) -> list:
    t_final = 0.01 if tiny else 1.0
    cfg = SimulationConfig(dt=1e-3, t_final=t_final, trunc=FLOW_TRUNC, monitor_stride=1000)
    inputs = []
    for family, p_abs, n in FLOW_FAMILIES:
        spec, u0 = _family_profile(rng, family, p_abs, n)
        inputs.append(FlowInput(u0, cfg, spec))
    inputs.append(FlowInput(_class_state(rng), cfg, None))
    inputs.append(ReducedInput(rng.uniform(0.2, 0.3), rng.uniform(2e-3, 2e-2), 0.02 if tiny else 0.5))
    return inputs


def _flow_warm_up(inputs: list) -> None:
    first = inputs[0]
    dynamics.integrate(first.u0, replace(first.cfg, t_final=5 * first.cfg.dt))
    _reduced_op(replace(inputs[-1], t_final=0.01))


def _flow_op(inp) -> bool:
    if isinstance(inp, ReducedInput):
        return _reduced_op(inp)
    traj = dynamics.integrate(inp.u0, inp.cfg)
    if inp.spec is None:
        return max(traj.drift.values()) <= 1e-8
    # exact traveling-wave phase law, as in criterion 2
    k = np.arange(inp.cfg.trunc)
    rate = inp.spec.omega + inp.spec.c * k
    err = max(
        float(np.linalg.norm(st.coeffs - inp.u0.coeffs * np.exp(-1j * rate * t)))
        for t, st in zip(traj.times, traj.states)
    )
    return err <= 1e-6


# --- monitor: invariants and K^2 spectra every 10 steps at trunc 256 ----------

MONITOR_TRUNC = 256


@dataclass(frozen=True)
class MonitorInput:
    u0: HardyCoefficients
    d: int  # class V(d), d = 2N
    cfg: SimulationConfig


def _rational_state(rng, n_poles: int) -> HardyCoefficients:
    """Unit-mass ``sum_j a_j / (1 - p_j z)`` in V(2N).

    The poles are spread in angle so that the N-th eigenvalue of the squared
    Hankel matrices stays far above the 1e-8 relative rank threshold (over
    200 seeds its ratio to the largest stays above 5e-5); poles drawn
    independently came within 4e-8 of it.
    """
    k = np.arange(MONITOR_TRUNC)
    mods = rng.uniform(0.35, 0.55, n_poles)
    args = 2 * np.pi * (rng.uniform() + np.arange(n_poles) / n_poles + rng.uniform(-0.1, 0.1, n_poles))
    amps = rng.uniform(0.7, 1.3, n_poles) * np.exp(2j * np.pi * rng.uniform(size=n_poles))
    coeffs = sum(a * (m * np.exp(1j * t)) ** k for a, m, t in zip(amps, mods, args))
    return HardyCoefficients(coeffs / np.linalg.norm(coeffs))


def _monitor_inputs(rng, tiny: bool) -> list[MonitorInput]:
    t_final = 0.02 if tiny else 0.2
    cfg = SimulationConfig(dt=1e-3, t_final=t_final, trunc=MONITOR_TRUNC, monitor_stride=10)
    return [MonitorInput(_rational_state(rng, n), 2 * n, cfg) for n in (1, 2, 3)]


def _monitor_warm_up(inputs: list[MonitorInput]) -> None:
    first = inputs[0]
    traj = dynamics.integrate(first.u0, replace(first.cfg, t_final=10 * first.cfg.dt))
    dynamics.rank_conservation_check(traj, first.d, tol=1e-8)
    operators.spectral_report(traj.states[-1])


def _monitor_op(inp: MonitorInput) -> bool:
    traj = dynamics.integrate(inp.u0, inp.cfg)
    ranks_ok = dynamics.rank_conservation_check(traj, inp.d, tol=1e-8)
    spec_dev = float(np.max(np.abs(traj.k2_spectra - traj.k2_spectra[0])))
    report = operators.spectral_report(traj.states[-1])
    return ranks_ok and spec_dev <= 1e-6 and not report.unresolved


# --- reduced: the pure-Python three-ODE system, one op of flow ---------------
#
# Not a workload of its own: on a shared 2-vCPU host its pure-Python RK4 ran
# up to 1.9x slower for minutes at a time, so ten-run series of it disagreed
# by more than any bound the benchmark can hold.  As one short op of `flow`
# its layer stays traced at about a tenth of that workload's time.


@dataclass(frozen=True)
class ReducedInput:
    r: float
    gamma: float
    t_final: float


def _reduced_op(inp: ReducedInput) -> bool:
    rep = v3.instability_experiment(inp.r, inp.gamma, eps0=1e-2, dt=1e-4, t_final=inp.t_final)
    push_ok = abs(rep.dydt2_measured / (rep.delta_ecal * rep.coeff_leading) - 1.0) < 0.05
    order_ok = abs(rep.gamma_order - 2.0) < 0.05
    # The integrator stops early only once |y| passes 1.25 times the exit
    # radius, which records an exit; no exit means every step was taken.
    # Criterion 8's exit clause itself is not a gate: without a linear term
    # the orbit stays in its band.
    return push_ok and order_ok and not rep.escaped


# --- steady: the equilibrium family on criterion 10's grid --------------------


def _steady_inputs(rng, tiny: bool) -> list[list[SteadyV3Params]]:
    """One op: the whole grid, as criterion 10 certifies it.

    Per-point ops would put the median op among the 34 points at trunc 512,
    which take about a millisecond each and say nothing about the 80-bit path.
    """
    grid = STEADY_GRID[40:48] if tiny else STEADY_GRID
    a, b = rng.uniform(0.0, 2 * np.pi, (2, len(grid)))
    return [[SteadyV3Params(scale=1.0, a=float(x), b_angle=float(y), theta=float(t)) for x, y, t in zip(a, b, grid)]]


def _steady_warm_up(inputs: list[list[SteadyV3Params]]) -> None:
    grid = inputs[0]
    steady.steadiness_measure(grid[len(grid) // 2])
    if hasattr(np, "float128"):
        steady.steadiness_measure(grid[-1], trunc=4096, extended=True)


def _steady_op(grid: list[SteadyV3Params]) -> bool:
    measures = [steady.steadiness_measure(params) for params in grid]
    return all(m.abs_j < 1e-11 and m.rhs_norm < 1e-11 for m in measures)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flow", _flow_inputs, _flow_warm_up, _flow_op),
        Workload("monitor", _monitor_inputs, _monitor_warm_up, _monitor_op),
        Workload("steady", _steady_inputs, _steady_warm_up, _steady_op),
    )
}
