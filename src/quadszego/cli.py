"""Experiment runner: one subcommand per verification workflow.

Exit codes: 0 all checks passed, 1 check failure, 2 usage error.  Flags take
precedence over the optional JSON config file (``--config``), which takes
precedence over defaults.  Artifacts carry the seed and parameters in their
header and contain no timestamps, so a fixed seed reproduces them
byte-for-byte on one platform.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import acceptance
from .compose import compose_zN, verify_flow_commutation
from .dynamics import SimulationConfig, integrate, trajectory_to_csv, trajectory_to_jsonl
from .errors import QuadSzegoError
from .hardy import HardyCoefficients
from .operators import spectral_report, verify_lax
from .steady import SteadyV3Params, build_steady, steadiness_measure, suggested_trunc
from .v3 import V3State, embed, instability_experiment
from .waves import TravelingWaveSpec, build_profile


def _write_artifact(path: str | None, payload: dict) -> None:
    if path is None:
        return
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_state(path: str) -> HardyCoefficients:
    with open(path) as f:
        return HardyCoefficients.from_json(json.load(f))


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _load_config(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a single JSON object")
    return cfg


def _header(args: argparse.Namespace, **params) -> dict:
    return {"tool": "szego", "subcommand": args.subcommand, "params": params}


# ----------------------------------------------------------------- simulate


def _state_from_flags(args, config) -> HardyCoefficients:
    state_path = _resolve(args, config, "state", None)
    if state_path is not None:
        return _load_state(state_path)
    family = _resolve(args, config, "family", None)
    if family is None:
        raise ValueError("provide --state or a --family profile")
    spec = TravelingWaveSpec(
        family,
        complex(_resolve(args, config, "lambda_re", 1.0), _resolve(args, config, "lambda_im", 0.0)),
        complex(_resolve(args, config, "p_re", 0.5), _resolve(args, config, "p_im", 0.0)),
        int(_resolve(args, config, "n_comp", 1)),
    )
    return build_profile(spec, int(_resolve(args, config, "trunc", 256)))


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    u0 = _state_from_flags(args, config)
    cfg = SimulationConfig(
        dt=float(_resolve(args, config, "dt", 1e-3)),
        t_final=float(_resolve(args, config, "t_final", 1.0)),
        trunc=int(_resolve(args, config, "trunc", max(256, u0.trunc))),
        monitor_stride=int(_resolve(args, config, "stride", 100)),
        tol_drift=float(_resolve(args, config, "tol_drift", 1e-6)),
    )
    traj = integrate(u0, cfg)
    print(f"steps={int(round(cfg.t_final / cfg.dt))} snapshots={len(traj.times)}")
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
    config = _load_config(args)
    tol = float(_resolve(args, config, "tol", 1e-9))
    if args.grid:
        rows = [acceptance.tw_residual(job) for job in acceptance.tw_grid()]
    else:
        family = _resolve(args, config, "family", "I")
        lam = complex(_resolve(args, config, "lambda_re", 1.0), _resolve(args, config, "lambda_im", 0.0))
        p = complex(_resolve(args, config, "p_re", 0.5), _resolve(args, config, "p_im", 0.0))
        n = int(_resolve(args, config, "n_comp", 1))
        rows = [acceptance.tw_residual((family, lam, p, n))]
    worst = max(r["residual"] for r in rows)
    for r in rows:
        print(f"family {r['family']} lambda={r['lambda']} p={r['p']} N={r['N']}: residual {r['residual']:.3e}")
    print(f"worst residual: {worst:.3e} (tol {tol:.1e})")
    payload = _header(args, tol=tol)
    payload["results"] = [{**r, "lambda": [r["lambda"].real, r["lambda"].imag], "p": [r["p"].real, r["p"].imag]} for r in rows]
    payload["worst_residual"] = worst
    _write_artifact(args.out, payload)
    return 0 if worst < tol else 1


# ----------------------------------------------------------------- spectral


def _cmd_spectral(args) -> int:
    config = _load_config(args)
    u = _load_state(args.state)
    tol = float(_resolve(args, config, "tol", 1e-10))
    block = _resolve(args, config, "block", None)
    report = spectral_report(u, tol=tol)
    res_k, res_h = verify_lax(u, block=int(block) if block is not None else None)
    print(f"rank_H={report.rank_H} rank_K={report.rank_K} unresolved={report.unresolved}")
    for d in report.dominance:
        print(f"  sigma^2={d.sigma2:.6e}  label={d.label}  dim_E={d.dim_E} dim_F={d.dim_F}")
    print(f"Lax residuals: K {res_k:.3e}  H {res_h:.3e}")
    payload = _header(args, tol=tol, block=block)
    payload["report"] = report.to_json()
    payload["lax_residuals"] = {"K": res_k, "H": res_h}
    _write_artifact(args.out, payload)
    return 1 if report.unresolved else 0


# ----------------------------------------------------------------- instability


def _cmd_instability(args) -> int:
    config = _load_config(args)
    rep = instability_experiment(
        r=float(_resolve(args, config, "r", 0.25)),
        gamma=float(_resolve(args, config, "gamma", 1e-2)),
        eps0=float(_resolve(args, config, "eps0", 1e-2)),
        dt=float(_resolve(args, config, "dt", 1e-4)),
        t_final=float(_resolve(args, config, "t_final", 50.0)),
    )
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
    config = _load_config(args)
    params = SteadyV3Params(
        scale=float(_resolve(args, config, "scale", 1.0)),
        a=float(_resolve(args, config, "a", 0.0)),
        b_angle=float(_resolve(args, config, "b", 0.0)),
        theta=float(_resolve(args, config, "theta", 0.0)),
    )
    trunc = _resolve(args, config, "trunc", None)
    trunc = int(trunc) if trunc is not None else suggested_trunc(params.theta)
    status = 0
    if args.verify or not args.out:
        meas = steadiness_measure(params, trunc=trunc)
        print(f"theta={params.theta:.6f} trunc={meas.trunc} |J|={meas.abs_j:.3e} rhs_norm={meas.rhs_norm:.3e}"
              + ("  [extended precision]" if meas.extended else ""))
        status = 0 if (meas.abs_j < 1e-11 and meas.rhs_norm < 1e-11) else 1
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
    config = _load_config(args)
    n = int(_resolve(args, config, "n", 2))
    trunc = int(_resolve(args, config, "trunc", 128))
    if getattr(args, "state", None):
        u0 = _load_state(args.state).truncated(trunc)
    else:
        u0 = embed(V3State(b=0.3 + 0.1j, c=1.0, p=0.4), trunc)
    cfg = SimulationConfig(
        dt=float(_resolve(args, config, "dt", 1e-3)),
        t_final=float(_resolve(args, config, "t_final", 2.0)),
        trunc=trunc,
        monitor_stride=int(_resolve(args, config, "stride", 100)),
        tol_drift=float(_resolve(args, config, "tol_drift", 1e-6)),
    )
    tol = float(_resolve(args, config, "tol", 1e-6))
    gap = verify_flow_commutation(u0, n, cfg)
    print(f"flow-commutation gap (N={n}, t_final={cfg.t_final}): {gap:.3e} (tol {tol:.1e})")
    _write_artifact(args.out, {**_header(args, n=n, tol=tol), "gap": gap})
    return 0 if gap < tol else 1


# ----------------------------------------------------------------- gn-check


def _cmd_gn_check(args) -> int:
    config = _load_config(args)
    samples = int(_resolve(args, config, "samples", 10_000))
    seed = int(_resolve(args, config, "seed", 42))
    violations, worst = acceptance.gn_sweep(np.random.default_rng(seed), samples)
    print(f"samples={samples} seed={seed} violations={violations} worst relative excess={worst:.3e}")
    _write_artifact(
        args.out,
        {**_header(args, samples=samples, seed=seed), "violations": violations, "worst_excess": worst},
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags take precedence over it")
    p.add_argument("--out", help="write a JSON artifact here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="szego", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="integrate an initial state with monitors")
    p.add_argument("--state", help="JSON file holding the initial coefficients")
    p.add_argument("--family", choices=["I", "II"])
    p.add_argument("--lambda-re", dest="lambda_re", type=float)
    p.add_argument("--lambda-im", dest="lambda_im", type=float)
    p.add_argument("--p-re", dest="p_re", type=float)
    p.add_argument("--p-im", dest="p_im", type=float)
    p.add_argument("--n-comp", dest="n_comp", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--trunc", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--tol-drift", dest="tol_drift", type=float)
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-jsonl", dest="out_jsonl")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-tw", help="traveling-wave residuals (single point or grid)")
    p.add_argument("--grid", action="store_true", help="run the full (family, lambda, p, N) grid")
    p.add_argument("--family", choices=["I", "II"])
    p.add_argument("--lambda-re", dest="lambda_re", type=float)
    p.add_argument("--lambda-im", dest="lambda_im", type=float)
    p.add_argument("--p-re", dest="p_re", type=float)
    p.add_argument("--p-im", dest="p_im", type=float)
    p.add_argument("--n-comp", dest="n_comp", type=int)
    p.add_argument("--tol", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_tw)

    p = sub.add_parser("spectral", help="spectral report and Lax residuals of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--block", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("instability", help="perturbed translated-ground-state experiment")
    p.add_argument("--r", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eps0", type=float)
    p.add_argument("--dt", type=float, help="sample spacing of the reduced trajectory")
    p.add_argument("--t-final", dest="t_final", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_instability)

    p = sub.add_parser("steady", help="build/verify an equilibrium family member")
    p.add_argument("--theta", type=float)
    p.add_argument("--scale", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
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
    p.add_argument("--n", type=int)
    p.add_argument("--state")
    p.add_argument("--trunc", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--stride", type=int)
    p.add_argument("--tol-drift", dest="tol_drift", type=float)
    p.add_argument("--tol", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_compose_check)

    p = sub.add_parser("gn-check", help="seeded sweep of the energy inequality")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_gn_check)

    p = sub.add_parser("certify", help="run the acceptance matrix")
    p.add_argument("--quick", action="store_true", help="reduced-size smoke pass")
    _add_common(p)
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
