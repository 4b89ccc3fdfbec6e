"""The certification suite: every release-gating check as a callable.

Each ``criterion_*`` function performs one end-to-end verification at its
pinned tolerance and returns a :class:`CheckResult`; ``run_all`` executes the
whole matrix.  One runner, :func:`_criterion`, times every criterion on a
monotonic clock (``time.perf_counter``) and builds its result, so each
criterion states its name and wall-clock gate once.  The pytest wrappers in
``tests/test_acceptance.py`` assert these results, and the ``szego certify``
subcommand emits them as JSON.

``quick=True`` shrinks grids and horizons for a fast smoke pass; the full
run is the one that certifies.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .compose import compose_zN, verify_flow_commutation
from .dynamics import SimulationConfig, integrate, rank_conservation_check
from .hardy import HardyCoefficients, conserved
from .operators import verify_au_minus_d, verify_lax
from .steady import STEADY_TOL, SteadyV3Params, explicit_example, steadiness_measure
from .v3 import V3State, embed, evolx_residual, instability_experiment, v3_integrate
from .waves import TravelingWaveSpec, build_profile, residual_traveling, standing_wave_arc, verify_standing

__all__ = ["CheckResult", "run_all", "CRITERIA"]

# Each value below is defined once, here, and is both a criterion's and the
# default of the ``szego`` subcommand that reruns that criterion's check.
TW_TOL = 1e-9  # criterion 1, ``verify-tw --tol``
GN_SEED, GN_SAMPLES = 42, 10_000  # criterion 7, ``gn-check``
INSTABILITY_R, INSTABILITY_GAMMA = 0.25, 1e-2  # criterion 8, ``instability``
V3_DATUM = V3State(b=0.3 + 0.1j, c=1.0, p=0.4)  # criteria 3, 9 and 11, ``compose-check``
COMPOSE_CONFIG = SimulationConfig(dt=1e-3, t_final=2.0, trunc=128)  # criterion 11, ``compose-check``
COMPOSE_TOL = 1e-6  # criterion 11's gap gate, ``compose-check --tol``


@dataclass
class CheckResult:
    """Outcome of one criterion.

    ``gate`` is the criterion's wall-clock gate in seconds, or ``None``
    where it has none; a result whose ``runtime`` reaches its gate does not
    pass, whatever ``passed`` was given.
    """

    name: str
    passed: bool
    runtime: float
    details: dict = field(default_factory=dict)
    gate: float | None = None

    def __post_init__(self):
        self.passed = bool(self.passed) and (self.gate is None or self.runtime < self.gate)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        budget = "" if self.gate is None else f" of {self.gate:g} s"
        return f"{status}  {self.name}  ({self.runtime:.1f} s{budget})"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "runtime": self.runtime,
            "gate": self.gate,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _criterion(name: str, gate: float | None = None):
    """Make a ``criterion_N(quick)`` body that returns ``(passed, details)``
    into a criterion: it runs the body timed on ``time.perf_counter`` and
    returns the :class:`CheckResult` named ``name`` with the gate ``gate``."""

    def wrap(check):
        @functools.wraps(check)
        def run(quick: bool = False) -> CheckResult:
            t0 = time.perf_counter()
            passed, details = check(quick)
            return CheckResult(name, passed, time.perf_counter() - t0, details, gate=gate)

        return run

    return wrap


def tw_grid(quick: bool = False) -> list[tuple]:
    """The (family, lam, p, N) grid of criterion 1 and ``szego verify-tw --grid``."""
    lams = [0.5, 1.0] if not quick else [1.0]
    ps = [0.2, 0.5, 0.8] if not quick else [0.5]
    ns = [1, 2, 3] if not quick else [1, 2]
    return [(family, lam, p, n) for family in ("I", "II") for lam in lams for p in ps for n in ns]


def tw_residual(job) -> dict:
    """Traveling-wave residual of one grid point, at 1024 modes for |p| >= 0.8, else 256."""
    family, lam, p, n = job
    spec = TravelingWaveSpec(family, lam, p, n)
    trunc = 1024 if abs(p) >= 0.8 else 256
    res = residual_traveling(build_profile(spec, trunc), spec.omega, spec.c)
    return {"family": family, "lambda": lam, "p": p, "N": n, "trunc": trunc, "residual": res}


def gn_sweep(rng: np.random.Generator, samples: int) -> tuple[int, float]:
    """Violations (beyond 1e-12) and worst relative excess of ``E <= Q^2 (Q+M)/2`` on random states."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    violations = 0
    worst = -np.inf
    for _ in range(samples):
        m = int(rng.integers(2, 48))
        decay = rng.uniform(0.2, 0.98)
        coeffs = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * decay ** np.arange(m)
        c = conserved(HardyCoefficients(coeffs))
        bound = 0.5 * c.Q**2 * (c.Q + c.M)
        excess = (c.E - bound) / max(bound, 1e-300)
        worst = max(worst, excess)
        if excess > 1e-12:
            violations += 1
    return violations, worst


@_criterion("1 traveling-wave certification", gate=10.0)
def criterion_1_traveling_wave_certification(quick: bool = False):
    """Residuals of both wave families over the (lam, p, N) grid; closed-form
    pulsation/velocity spot checks to 1e-12."""
    grid = tw_grid(quick)
    worst = max(tw_residual(job)["residual"] for job in grid)
    ref = TravelingWaveSpec("I", 1.0, 0.5, 1)
    omega_err = abs(ref.omega - 6.518518518518518)
    c_err = abs(ref.c - 1.7777777777777777)
    passed = worst < TW_TOL and omega_err < 1e-12 and c_err < 1e-12
    return passed, {"worst_residual": worst, "profiles": len(grid), "omega_err": omega_err, "c_err": c_err}


@_criterion("2 exact-orbit reproduction", gate=30.0)
def criterion_2_exact_orbit(quick: bool = False):
    """Simulated family-I wave matches the exact coefficient phase law in L2."""
    spec = TravelingWaveSpec("I", 1.0, 0.5, 1)
    v0 = build_profile(spec, 256)
    t_final = 1.0 if quick else 5.0
    cfg = SimulationConfig(dt=1e-3, t_final=t_final, trunc=256, monitor_stride=250, tol_drift=1e-6)
    traj = integrate(v0, cfg)
    k = np.arange(256)
    err = max(
        float(np.linalg.norm(st.coeffs - v0.coeffs * np.exp(-1j * (spec.omega + spec.c * k) * t)))
        for t, st in zip(traj.times, traj.states)
    )
    return err < 1e-6, {"max_l2_error": err, "t_final": t_final}


@_criterion("3 conservation drift", gate=60.0)
def criterion_3_conservation(quick: bool = False):
    """Q, M, E relative drift on the three-parameter-class datum."""
    t_final = 2.0 if quick else 10.0
    cfg = SimulationConfig(dt=1e-3, t_final=t_final, trunc=256, monitor_stride=100, tol_drift=1e-6)
    traj = integrate(embed(V3_DATUM, 256), cfg)
    worst = max(traj.drift.values())
    return worst < 1e-8, {"drift": dict(traj.drift), "t_final": t_final}


@_criterion("4 Lax identities")
def criterion_4_lax_identities(quick: bool = False):
    """Both operator identities: block residual < 1e-9 at M=256, full-matrix
    residual falling by >= 4x from M=256 to M=512."""
    m_small, m_big = (128, 256) if quick else (256, 512)
    details = {}
    passed = True
    for name, make in _lax_symbols().items():
        rk_b, rh_b = verify_lax(make(m_small), block=64)
        rk_full_small, rh_full_small = verify_lax(make(m_small))
        rk_full_big, rh_full_big = verify_lax(make(m_big))
        block_ok = max(rk_b, rh_b) < 1e-9
        decay_ok = rk_full_big <= rk_full_small / 4.0 and rh_full_big <= rh_full_small / 4.0
        passed &= block_ok and decay_ok
        details[name] = {
            "block64_K": rk_b,
            "block64_H": rh_b,
            "full_K_small": rk_full_small,
            "full_K_big": rk_full_big,
            "full_H_small": rh_full_small,
            "full_H_big": rh_full_big,
        }
    return passed, details


def _lax_symbols():
    """Five rational symbols; pole moduli near 0.9 keep the symbol-tail part
    of the full-matrix residual resolvable above round-off, so its decay
    under doubling M is measurable."""

    def pole(p, m):
        return np.asarray(p, dtype=complex) ** np.arange(m)

    def mean_plus_pole(m):
        arr = pole(0.87, m)
        arr[0] += 2.0
        return HardyCoefficients(arr)

    def pole_in_z2(m):
        arr = np.zeros(m, dtype=complex)
        arr[::2] = 0.88 ** np.arange(len(arr[::2]))
        return HardyCoefficients(arr)

    return {
        "pole_0.90": lambda m: HardyCoefficients(pole(0.90, m)),
        "pole_0.88_rot": lambda m: HardyCoefficients(pole(0.88 * np.exp(0.7j), m)),
        "two_poles": lambda m: HardyCoefficients(pole(0.90, m) + 0.5 * pole(-0.85, m)),
        "mean_plus_pole": mean_plus_pole,
        "pole_in_z2_0.88": pole_in_z2,
    }


@_criterion("5 integrability signatures")
def criterion_5_integrability_signatures(quick: bool = False):
    """K^2 spectrum constant along a rank-(2,2) trajectory; ranks preserved."""
    coeffs = 2.0 * 0.4 ** np.arange(256) - 0.2 ** np.arange(256)  # 1/((1-.4z)(1-.2z)) in V(4)
    u0 = HardyCoefficients(coeffs)
    t_final = 1.0 if quick else 5.0
    cfg = SimulationConfig(dt=1e-3, t_final=t_final, trunc=256, monitor_stride=100, tol_drift=1e-6, n_spectrum=4)
    traj = integrate(u0, cfg)
    spec0 = traj.k2_spectra[0]
    spec_dev = float(np.max(np.abs(traj.k2_spectra - spec0)))
    off_rank = float(np.max(traj.k2_spectra[:, 2:]))
    ranks_ok = rank_conservation_check(traj, 4, tol=1e-8)
    passed = spec_dev < 1e-6 and ranks_ok and off_rank < 1e-8
    return passed, {"spectrum_dev": spec_dev, "ranks_preserved": ranks_ok, "max_off_rank_eig": off_rank}


@_criterion("6 profile eigenstructure")
def criterion_6_profile_eigenstructure(quick: bool = False):
    """Eigenvector and scalar identities of the normalized multi-pole
    profiles, one :func:`verify_au_minus_d` per profile."""
    alpha = 0.4
    details = {}
    passed = True
    for n in ([1, 2] if quick else [1, 2, 3]):
        m = 256 if quick else 512
        arr = np.zeros(m, dtype=complex)
        arr[::n] = n * alpha ** np.arange(len(arr[::n]))
        u = HardyCoefficients(arr)
        varpi = n * (3.0 - alpha**2) / (1.0 - alpha**2)
        rep = verify_au_minus_d(u, varpi, tol=1e-8)
        umvm_res = max((e["residual"] for e in rep.umvm), default=np.inf)
        ok = (
            rep.eigen_residual < 1e-10
            and rep.n_sigma == n
            and abs(rep.eigenvalue - 0.5 * (varpi + n)) < 1e-12
            and rep.parallel_residual < 1e-10
            and abs(rep.zeta) > 0
            and umvm_res < 1e-10
            and rep.q_residual < 1e-10
        )
        passed &= ok
        details[f"N={n}"] = {
            "eigen_residual": rep.eigen_residual,
            "parallel_residual": rep.parallel_residual,
            "zeta": rep.zeta,
            "umvm_residual": umvm_res,
            "q_residual": rep.q_residual,
        }
    return passed, details


@_criterion("7 Gagliardo-Nirenberg sweep", gate=20.0)
def criterion_7_gagliardo_nirenberg(quick: bool = False):
    """Seeded sweep of the energy inequality; equality on geometric states."""
    rng = np.random.default_rng(GN_SEED)
    n_samples = 1000 if quick else GN_SAMPLES
    violations, worst = gn_sweep(rng, n_samples)
    worst_excess = max(0.0, worst)
    eq_worst = 0.0
    for _ in range(100):
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        p = rng.uniform(0, 0.88) * np.exp(2j * np.pi * rng.uniform())
        c = conserved(HardyCoefficients(lam * p ** np.arange(256)))
        bound = 0.5 * c.Q**2 * (c.Q + c.M)
        eq_worst = max(eq_worst, abs(c.E - bound) / bound)
    details = {"samples": n_samples, "violations": violations, "worst_excess": worst_excess, "equality_gap": eq_worst}
    return violations == 0 and eq_worst < 1e-12, details


@_criterion("8 instability mechanism")
def criterion_8_instability_mechanism(quick: bool = False):
    """Perturbed translated ground state: initial push, exit, gamma scaling.

    The exit clause is asserted exactly as stated.  It cannot hold: the
    closed-form evolution law confines (x, psi) to a level curve of the
    conserved energy, an oscillation band of half-width ~0.215*gamma at
    r = 1/4 (2.2e-3 at gamma = 1e-2, verified independently against the full
    spectral dynamics), strictly inside the 1e-2 exit ball.  The measured
    band and the vanishing y-linear fit are reported alongside.
    """
    if quick:
        rep = instability_experiment(INSTABILITY_R, INSTABILITY_GAMMA, t_final=10.0)
    else:
        rep = instability_experiment(INSTABILITY_R, INSTABILITY_GAMMA)
    push_ok = abs(rep.dydt2_measured / (rep.delta_ecal * rep.coeff_leading) - 1.0) < 0.05
    coeff_ok = abs(rep.coeff_leading - 0.329218) < 1e-6
    exit_ok = rep.escaped  # faithful assertion; see docstring
    order_ok = abs(rep.gamma_order - 2.0) < 0.05
    passed = push_ok and coeff_ok and exit_ok and order_ok
    return passed, {
        "dydt2_measured": rep.dydt2_measured,
        "dydt2_predicted": rep.dydt2_predicted,
        "delta_ecal": rep.delta_ecal,
        "escaped": rep.escaped,
        "y_max_abs": rep.y_max_abs,
        "exit_threshold": rep.exit_threshold,
        "y_linear_fit": rep.y_linear_fit,
        "coeff_linear_reference": rep.coeff_linear,
        "coeff_quadratic": rep.coeff_quadratic,
        "y_quadratic_fit": rep.y_quadratic_fit,
        "gamma_order": rep.gamma_order,
        "clauses": {"push": push_ok, "exit": exit_ok, "gamma_order": order_ok},
    }


@_criterion("9 reduced-vs-full consistency")
def criterion_9_v3_consistency(quick: bool = False):
    """Reduced ODE vs full spectral dynamics; evolution law of x by FD."""
    t_final = 1.0 if quick else 2.0
    cfg = SimulationConfig(dt=1e-3, t_final=t_final, trunc=256, monitor_stride=100, tol_drift=1e-6)
    pde = integrate(embed(V3_DATUM, 256), cfg)
    ode = v3_integrate(V3_DATUM, 1e-4, t_final, stride=1000)
    by_time = {round(float(t), 9): st for t, st in zip(ode.state_times, ode.states)}
    gap = 0.0
    for t, st in zip(pde.times, pde.states):
        key = round(float(t), 9)
        if key in by_time:
            gap = max(gap, float(np.linalg.norm(embed(by_time[key], 256).coeffs - st.coeffs)))
    res_coarse = evolx_residual(ode)
    res_fine = evolx_residual(v3_integrate(V3_DATUM, 5e-5, t_final, stride=1000))
    ratio = res_coarse / res_fine
    passed = gap < 1e-6 and res_coarse < 1e-5 and 2.5 < ratio
    return passed, {"l2_gap": gap, "evolx_residual": res_coarse, "fd_scaling_ratio": ratio}


@_criterion("10 steady family grid")
def criterion_10_steady_family(quick: bool = False):
    """50-point theta grid of the equilibrium family plus the explicit example."""
    n_grid = 12 if quick else 50
    thetas = np.linspace(0.0, np.pi / 3.0, n_grid, endpoint=False)
    worst_j = worst_rhs = 0.0
    for th in thetas:
        meas = steadiness_measure(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=float(th)))
        worst_j = max(worst_j, meas.abs_j)
        worst_rhs = max(worst_rhs, meas.rhs_norm)
    ex = explicit_example(512)
    ex_j = abs(conserved(ex).J)
    passed = worst_j < STEADY_TOL and worst_rhs < STEADY_TOL and ex_j < 1e-13
    return passed, {"worst_abs_J": worst_j, "worst_rhs_norm": worst_rhs, "example_abs_J": ex_j, "grid": n_grid}


@_criterion("11 composition invariance")
def criterion_11_composition_invariance(quick: bool = False):
    """Flow commutation under z -> z^N; isometry and J invariance."""
    cfg = replace(COMPOSE_CONFIG, t_final=0.5) if quick else COMPOSE_CONFIG
    u0 = embed(V3_DATUM, cfg.trunc)
    gaps = {n: verify_flow_commutation(u0, n, cfg) for n in (2, 3)}
    iso_err = abs(compose_zN(u0, 3).norm() - u0.norm())
    j_err = abs(conserved(compose_zN(u0, 3)).J - conserved(u0).J)
    passed = max(gaps.values()) < COMPOSE_TOL and iso_err < 1e-14 and j_err < 1e-14
    return passed, {"gap_N2": gaps[2], "gap_N3": gaps[3], "isometry_err": iso_err, "j_err": j_err}


@_criterion("12 standing-wave family")
def criterion_12_standing_wave_family(quick: bool = False):
    """Arc standing wave: mode residual small and halving as trunc doubles."""
    theta = 0.25
    trunc = 4096 if quick else 8192
    arcs = [(0.0, 2 * np.pi * theta)]
    res = verify_standing(standing_wave_arc(theta, arcs, trunc), 16)
    res2 = verify_standing(standing_wave_arc(theta, arcs, 2 * trunc), 16)
    passed = res < 1e-3 and res2 <= 0.65 * res
    return passed, {"residual": res, "residual_doubled": res2, "ratio": res2 / res, "trunc": trunc}


CRITERIA = [
    criterion_1_traveling_wave_certification,
    criterion_2_exact_orbit,
    criterion_3_conservation,
    criterion_4_lax_identities,
    criterion_5_integrability_signatures,
    criterion_6_profile_eigenstructure,
    criterion_7_gagliardo_nirenberg,
    criterion_8_instability_mechanism,
    criterion_9_v3_consistency,
    criterion_10_steady_family,
    criterion_11_composition_invariance,
    criterion_12_standing_wave_family,
]


def run_all(quick: bool = False) -> list[CheckResult]:
    results = []
    for fn in CRITERIA:
        res = fn(quick=quick)
        results.append(res)
        print(res.line(), flush=True)
    return results
