"""Experiment runner: one subcommand per verification workflow.

Exit codes: 0 all checks passed, 1 check failure, 2 usage error.  Each
subcommand resolves its parameters in one merge: its defaults, then the
optional JSON config file (``--config``), then the flags given.  A config key
is a flag's name (``t_final`` for ``--t-final``) and is checked like the
flag: a key the subcommand does not read, or a value its flag would refuse,
exits 2.  Defaults that mirror an acceptance criterion are that criterion's
own values, read from :mod:`quadszego.acceptance` (the equilibrium gate from
``steady.STEADY_TOL``).  Artifacts carry the seed and parameters in their
header and contain no timestamps, so a fixed seed reproduces them
byte-for-byte on one platform.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from . import acceptance
from .compose import compose_zN, verify_flow_commutation
from .dynamics import SimulationConfig, integrate, trajectory_to_csv, trajectory_to_jsonl
from .errors import QuadSzegoError
from .hardy import HardyCoefficients
from .operators import DEFAULT_RANK_TOL, spectral_report, verify_lax
from .steady import STEADY_TOL, SteadyV3Params, build_steady, steadiness_measure, suggested_trunc
from .v3 import embed, instability_experiment
from .waves import TravelingWaveSpec, build_profile

# simulate's defaults; with no --trunc it runs at max(trunc, the initial state's)
_SIMULATE = SimulationConfig(dt=1e-3, t_final=1.0, trunc=256)


def _write_artifact(path: str | None, payload: dict) -> None:
    if path is None:
        return
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_state(path: str) -> HardyCoefficients:
    with open(path) as f:
        return HardyCoefficients.from_json(json.load(f))


def _header(args: argparse.Namespace, **params) -> dict:
    return {"tool": "szego", "subcommand": args.subcommand, "params": params}


def _wave(args) -> tuple:
    """The (family, lambda, p, N) point the wave flags name."""
    return args.family, complex(args.lambda_re, args.lambda_im), complex(args.p_re, args.p_im), args.n_comp


def _run_config(args, trunc: int) -> SimulationConfig:
    return SimulationConfig(
        dt=args.dt, t_final=args.t_final, trunc=trunc, monitor_stride=args.stride, tol_drift=args.tol_drift
    )


# ----------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    if args.state is not None:
        u0 = _load_state(args.state)
    elif args.family is not None:
        u0 = build_profile(TravelingWaveSpec(*_wave(args)), _SIMULATE.trunc if args.trunc is None else args.trunc)
    else:
        raise ValueError("provide --state or a --family profile")
    cfg = _run_config(args, max(_SIMULATE.trunc, u0.trunc) if args.trunc is None else args.trunc)
    traj = integrate(u0, cfg)
    print(f"solver steps={traj.steps} rhs_evals={traj.nfev} snapshots={len(traj.times)}")
    for name, val in traj.drift.items():
        print(f"max relative {name} drift: {val:.3e}")
    if args.out_csv:
        trajectory_to_csv(traj, args.out_csv)
        print(f"wrote {args.out_csv}")
    if args.out_jsonl:
        trajectory_to_jsonl(traj, args.out_jsonl)
        print(f"wrote {args.out_jsonl}")
    return 0


# ----------------------------------------------------------------- verify-tw


def _cmd_verify_tw(args) -> int:
    rows = [acceptance.tw_residual(job) for job in (acceptance.tw_grid() if args.grid else [_wave(args)])]
    worst = max(r["residual"] for r in rows)
    for r in rows:
        print(f"family {r['family']} lambda={r['lambda']} p={r['p']} N={r['N']}: residual {r['residual']:.3e}")
    print(f"worst residual: {worst:.3e} (tol {args.tol:.1e})")
    payload = _header(args, tol=args.tol)
    payload["results"] = [{**r, "lambda": [r["lambda"].real, r["lambda"].imag], "p": [r["p"].real, r["p"].imag]} for r in rows]
    payload["worst_residual"] = worst
    _write_artifact(args.out, payload)
    return 0 if worst < args.tol else 1


# ----------------------------------------------------------------- spectral


def _cmd_spectral(args) -> int:
    u = _load_state(args.state)
    report = spectral_report(u, tol=args.tol)
    res_k, res_h = verify_lax(u, block=args.block)
    print(f"rank_H={report.rank_H} rank_K={report.rank_K} unresolved={report.unresolved}")
    for d in report.dominance:
        print(f"  sigma^2={d.sigma2:.6e}  label={d.label}  dim_E={d.dim_E} dim_F={d.dim_F}")
    print(f"Lax residuals: K {res_k:.3e}  H {res_h:.3e}")
    payload = _header(args, tol=args.tol, block=args.block)
    payload["report"] = report.to_json()
    payload["lax_residuals"] = {"K": res_k, "H": res_h}
    _write_artifact(args.out, payload)
    return 1 if report.unresolved else 0


# ----------------------------------------------------------------- instability


def _cmd_instability(args) -> int:
    rep = instability_experiment(args.r, args.gamma, args.eps0, args.dt, args.t_final)
    print(f"delta_ecal = {rep.delta_ecal:.6e} (gamma order {rep.gamma_order:.3f})")
    print(f"(dy/dt)^2(0): measured {rep.dydt2_measured:.6e}  predicted {rep.dydt2_predicted:.6e}")
    print(f"y band: max|y| = {rep.y_max_abs:.3e}  exit threshold {rep.exit_threshold:.3e}")
    print(f"y-linear fit {rep.y_linear_fit:.3e} (reference prediction {rep.coeff_linear:.6f})")
    print(f"y-quadratic fit {rep.y_quadratic_fit:.6f} (closed form {rep.coeff_quadratic:.6f})")
    if rep.escaped:
        print(f"exit times: forward {rep.exit_time_forward}  backward {rep.exit_time_backward}")
    else:
        print("NO_ESCAPE: |y| stayed inside the exit ball; review parameters")
    _write_artifact(args.out, {**_header(args), "report": rep.to_json()})
    return 0 if rep.escaped else 1


# ----------------------------------------------------------------- steady


def _cmd_steady(args) -> int:
    params = SteadyV3Params(scale=args.scale, a=args.a, b_angle=args.b, theta=args.theta)
    trunc = suggested_trunc(params.theta) if args.trunc is None else args.trunc
    status = 0
    if args.verify or not args.out:
        meas = steadiness_measure(params, trunc=trunc)
        print(f"theta={params.theta:.6f} trunc={meas.trunc} |J|={meas.abs_j:.3e} rhs_norm={meas.rhs_norm:.3e}"
              + ("  [extended precision]" if meas.extended else ""))
        status = 0 if (meas.abs_j < STEADY_TOL and meas.rhs_norm < STEADY_TOL) else 1
    if args.out:
        state = build_steady(params, min(trunc, 65536))
        _write_artifact(args.out, {**_header(args, theta=params.theta), "state": state.to_json()})
        print(f"wrote {args.out}")
    return status


# ----------------------------------------------------------------- compose


def _cmd_compose(args) -> int:
    u = _load_state(getattr(args, "in"))
    out = compose_zN(u, args.n)
    with open(args.out, "w") as f:
        json.dump(out.to_json(), f, sort_keys=True)
        f.write("\n")
    print(f"dilated {u.trunc} modes by N={args.n} -> {out.trunc} modes; wrote {args.out}")
    return 0


def _cmd_compose_check(args) -> int:
    if args.state:
        u0 = _load_state(args.state).truncated(args.trunc)
    else:
        u0 = embed(acceptance.V3_DATUM, args.trunc)
    cfg = _run_config(args, args.trunc)
    gap = verify_flow_commutation(u0, args.n, cfg)
    print(f"flow-commutation gap (N={args.n}, t_final={cfg.t_final}): {gap:.3e} (tol {args.tol:.1e})")
    _write_artifact(args.out, {**_header(args, n=args.n, tol=args.tol), "gap": gap})
    return 0 if gap < args.tol else 1


# ----------------------------------------------------------------- gn-check


def _cmd_gn_check(args) -> int:
    violations, worst = acceptance.gn_sweep(np.random.default_rng(args.seed), args.samples)
    print(f"samples={args.samples} seed={args.seed} violations={violations} worst relative excess={worst:.3e}")
    _write_artifact(
        args.out,
        {**_header(args, samples=args.samples, seed=args.seed), "violations": violations, "worst_excess": worst},
    )
    return 0 if violations == 0 else 1


# ----------------------------------------------------------------- certify


def _cmd_certify(args) -> int:
    results = acceptance.run_all(quick=args.quick)
    passed = sum(r.passed for r in results)
    print(f"\n{passed}/{len(results)} criteria passed")
    failures = [r.name for r in results if not r.passed]
    payload = _header(args, quick=args.quick)
    payload["matrix"] = [
        {"name": r.name, "passed": r.passed, "details": r.to_json()["details"]} for r in results
    ]
    payload["failures"] = failures
    _write_artifact(args.out, payload)
    return 0 if not failures else 1


# ----------------------------------------------------------------- parser

_NOT_CONFIG_KEYS = {"config", "out", "out_csv", "out_jsonl"}


class _ConfigFlags(argparse.Action):
    """``--config file.json``: stores the file's keys as this subcommand's
    flags (``{"t_final": 2}`` -> ``--t-final=2``), which :func:`main` parses
    ahead of the flags given.  A key is a parameter flag the subcommand
    reads: not an output path, a switch or a required flag."""

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            with open(path) as f:
                config = json.load(f)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config {path}: {exc}")
        if not isinstance(config, dict):
            parser.error("config file must hold a single JSON object")
        flags = {
            a.dest: a.option_strings[0]
            for a in parser._actions
            if a.option_strings and a.nargs != 0 and not a.required and a.dest not in _NOT_CONFIG_KEYS
        }
        for key in config:
            if key not in flags:
                parser.error(f"config key {key!r} is not a parameter of {parser.prog}")
        setattr(namespace, self.dest, [f"{flags[key]}={value}" for key, value in config.items()])


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", action=_ConfigFlags, help="JSON config file; flags take precedence over it")
    p.add_argument("--out", help="write a JSON artifact here")


def _add_wave_flags(p: argparse.ArgumentParser, family: str | None) -> None:
    p.add_argument("--family", choices=["I", "II"], default=family)
    p.add_argument("--lambda-re", type=float, default=1.0)
    p.add_argument("--lambda-im", type=float, default=0.0)
    p.add_argument("--p-re", type=float, default=0.5)
    p.add_argument("--p-im", type=float, default=0.0)
    p.add_argument("--n-comp", type=int, default=1)


def _add_run_flags(p: argparse.ArgumentParser, cfg: SimulationConfig) -> None:
    p.add_argument("--dt", type=float, default=cfg.dt, help="sample spacing; the solver chooses its own steps")
    p.add_argument("--t-final", type=float, default=cfg.t_final)
    p.add_argument("--stride", type=int, default=cfg.monitor_stride)
    p.add_argument("--tol-drift", type=float, default=cfg.tol_drift)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="szego", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="integrate an initial state with monitors")
    p.add_argument("--state", help="JSON file holding the initial coefficients")
    _add_wave_flags(p, family=None)
    _add_run_flags(p, _SIMULATE)
    p.add_argument("--trunc", type=int)
    p.add_argument("--out-csv")
    p.add_argument("--out-jsonl")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-tw", help="traveling-wave residuals (single point or grid)")
    p.add_argument("--grid", action="store_true", help="run the full (family, lambda, p, N) grid")
    _add_wave_flags(p, family="I")
    p.add_argument("--tol", type=float, default=acceptance.TW_TOL)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_tw)

    p = sub.add_parser("spectral", help="spectral report and Lax residuals of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--block", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("instability", help="perturbed translated-ground-state experiment")
    p.add_argument("--r", type=float, default=acceptance.INSTABILITY_R)
    p.add_argument("--gamma", type=float, default=acceptance.INSTABILITY_GAMMA)
    p.add_argument("--eps0", type=float)
    p.add_argument("--dt", type=float, help="sample spacing of the reduced trajectory")
    p.add_argument("--t-final", type=float)
    _add_common(p)
    defaults = inspect.signature(instability_experiment).parameters  # eps0, dt, t_final
    p.set_defaults(func=_cmd_instability, **{k: v.default for k, v in defaults.items() if v.default is not v.empty})

    p = sub.add_parser("steady", help="build/verify an equilibrium family member")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--trunc", type=int)
    p.add_argument("--verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("compose", help="dilate a state file by z -> z^N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("compose-check", help="flow-commutation check under z -> z^N")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--state")
    p.add_argument("--trunc", type=int, default=acceptance.COMPOSE_CONFIG.trunc)
    _add_run_flags(p, acceptance.COMPOSE_CONFIG)
    p.add_argument("--tol", type=float, default=acceptance.COMPOSE_TOL)
    _add_common(p)
    p.set_defaults(func=_cmd_compose_check)

    p = sub.add_parser("gn-check", help="seeded sweep of the energy inequality")
    p.add_argument("--samples", type=int, default=acceptance.GN_SAMPLES)
    p.add_argument("--seed", type=int, default=acceptance.GN_SEED)
    _add_common(p)
    p.set_defaults(func=_cmd_gn_check)

    p = sub.add_parser("certify", help="run the acceptance matrix")
    p.add_argument("--quick", action="store_true", help="reduced-size smoke pass")
    _add_common(p)
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        # the one merge: defaults, then the config's flags, then the flags given
        args = parser.parse_args([args.subcommand, *args.config, *argv[1:]])
    try:
        return args.func(args)
    except QuadSzegoError as exc:
        print(f"check failed [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
