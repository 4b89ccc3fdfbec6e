"""Experiment-runner surface: exit codes, artifacts, determinism."""

import csv
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from quadszego import acceptance, cli
from quadszego.cli import build_parser, main
from quadszego.dynamics import SimulationConfig, integrate
from quadszego.hardy import HardyCoefficients, conserved
from quadszego.operators import shifted_hankel
from quadszego.steady import STEADY_TOL


def write_state(path, coeffs):
    with open(path, "w") as f:
        json.dump(HardyCoefficients(coeffs).to_json(), f)


def exit_code(argv):
    """What ``szego`` exits with: argparse's usage errors raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_verify_tw_single_point(capsys):
    code = main(["verify-tw", "--family", "I", "--p-re", "0.5", "--n-comp", "2"])
    assert code == 0
    assert "residual" in capsys.readouterr().out


def test_verify_tw_grid_artifact(tmp_path):
    out = tmp_path / "tw.json"
    code = main(["verify-tw", "--grid", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["worst_residual"] < 1e-9
    assert len(payload["results"]) == 36


def test_verify_tw_grid_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-tw", "--grid", "--out", str(a)]) == 0
    assert main(["verify-tw", "--grid", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gn_check_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gn-check", "--samples", "500", "--seed", "7", "--out", str(a)]) == 0
    assert main(["gn-check", "--samples", "500", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["violations"] == 0
    assert payload["params"]["seed"] == 7


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_gn_check_empty_sweep_is_usage_error(samples, tmp_path, capsys):
    # an empty sweep certifies nothing, and its worst excess (-inf) is not JSON
    out = tmp_path / "gn.json"
    assert main(["gn-check", "--samples", samples, "--out", str(out)]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_spectral_subcommand(tmp_path, capsys):
    state = tmp_path / "state.json"
    write_state(state, 0.5 ** np.arange(64))
    out = tmp_path / "report.json"
    code = main(["spectral", "--state", str(state), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["rank_H"] == 1
    assert payload["report"]["rank_K"] == 1
    assert payload["lax_residuals"]["K"] < 1e-9


@pytest.mark.parametrize("block", ["0", "-3"])
def test_spectral_block_outside_the_matrix_is_usage_error(block, tmp_path, capsys):
    state = tmp_path / "state.json"
    write_state(state, 0.5 ** np.arange(64))
    assert main(["spectral", "--state", str(state), "--block", block]) == 2
    assert "block" in capsys.readouterr().err


def test_simulate_with_config_file(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"t_final": 0.1, "dt": 0.01, "trunc": 32}))
    csvfile = tmp_path / "traj.csv"
    code = main([
        "simulate", "--family", "I", "--p-re", "0.3",
        "--config", str(cfgfile), "--out-csv", str(csvfile),
    ])
    assert code == 0
    header = csvfile.read_text().splitlines()[0].split(",")
    assert header[:5] == ["t", "Q", "M", "E", "absJ"]


def test_simulate_artifacts_byte_reproducible(tmp_path):
    state = tmp_path / "state.json"
    write_state(state, 2.0 * 0.4 ** np.arange(48) - 0.2 ** np.arange(48))
    runs = []
    for name in ("a", "b"):
        csvfile, jsonlfile = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
        code = main([
            "simulate", "--state", str(state), "--dt", "0.002", "--t-final", "0.2",
            "--trunc", "48", "--stride", "25", "--out-csv", str(csvfile), "--out-jsonl", str(jsonlfile),
        ])
        assert code == 0
        runs.append((csvfile.read_bytes(), jsonlfile.read_bytes()))
    assert runs[0] == runs[1]
    # the CSV's K^2 columns are the squared singular values of K at the JSONL
    # states, certified by a pair of width 13 < 48 (12 columns of K): within (2 sigma_1 + r) r
    # for r = 16 M eps ||K||_F
    rows = list(csv.reader(io.StringIO(runs[0][0].decode())))
    spec_cols = [i for i, name in enumerate(rows[0]) if name.startswith("k2_eig_")]
    snapshots = [json.loads(line) for line in runs[0][1].decode().splitlines()]
    assert len(rows) - 1 == len(snapshots) == 5
    for row, snap in zip(rows[1:], snapshots):
        assert float(row[0]) == snap["t"]
        k = shifted_hankel(HardyCoefficients.from_json(snap["state"]))
        sv = np.linalg.svdvals(k)
        r = 16 * 48 * np.finfo(float).eps * np.linalg.norm(k)
        spectrum = np.array([float(row[i]) for i in spec_cols])
        assert np.max(np.abs(spectrum - sv[: len(spec_cols)] ** 2)) <= (2 * sv[0] + r) * r


def test_simulate_prints_solver_counts_outside_artifacts(tmp_path, capsys):
    # the solver's accepted steps and right-hand-side evaluations go to
    # stdout; the artifacts keep their snapshot-only columns and keys
    state = tmp_path / "state.json"
    write_state(state, 0.5 ** np.arange(32))
    csvfile, jsonlfile = tmp_path / "t.csv", tmp_path / "t.jsonl"
    argv = ["simulate", "--state", str(state), "--t-final", "0.1", "--stride", "50",
            "--out-csv", str(csvfile), "--out-jsonl", str(jsonlfile)]
    assert main(argv) == 0
    printed = dict(field.split("=") for field in capsys.readouterr().out.splitlines()[0].split()[1:])
    traj = integrate(HardyCoefficients(0.5 ** np.arange(32)), SimulationConfig(dt=1e-3, t_final=0.1, trunc=256, monitor_stride=50))
    assert printed == {"steps": str(traj.steps), "rhs_evals": str(traj.nfev), "snapshots": "3"}
    assert csvfile.read_text().splitlines()[0].split(",")[:5] == ["t", "Q", "M", "E", "absJ"]
    assert all(set(json.loads(line)) == {"t", "state"} for line in jsonlfile.read_text().splitlines())


def test_simulate_huge_state_is_a_check_failure(tmp_path, capsys):
    # the initial energy overflowed with a bare OverflowError and a traceback
    state = tmp_path / "big.json"
    write_state(state, [1e70] + [0.0] * 7)
    assert main(["simulate", "--state", str(state), "--t-final", "0.01"]) == 1
    assert "check failed [" in capsys.readouterr().err


def test_certify_artifact_matrix_has_no_timing(tmp_path, monkeypatch):
    # runtime and gate go to the printed lines, never into the artifact
    results = [
        acceptance.CheckResult("1 a", True, 0.5, {"x": 1.0}, gate=10.0),
        acceptance.CheckResult("2 b", False, 0.2, {"y": [1, 2]}),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda quick: results)
    out = tmp_path / "certify.json"
    assert main(["certify", "--quick", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["matrix"] == [
        {"name": "1 a", "passed": True, "details": {"x": 1.0}},
        {"name": "2 b", "passed": False, "details": {"y": [1, 2]}},
    ]
    assert payload["failures"] == ["2 b"]


def test_flag_precedence_over_config(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"samples": 10_000, "seed": 1}))
    code = main(["gn-check", "--samples", "50", "--config", str(cfgfile)])
    assert code == 0
    assert "samples=50" in capsys.readouterr().out


def test_compose_round_trip(tmp_path):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    write_state(src, [1.0, 2.0, 3.0])
    assert main(["compose", "--n", "2", "--in", str(src), "--out", str(dst)]) == 0
    out = HardyCoefficients.from_json(json.loads(dst.read_text()))
    assert out == HardyCoefficients([1.0, 0.0, 2.0, 0.0, 3.0])


def test_compose_check_default_datum(tmp_path):
    out = tmp_path / "cc.json"
    code = main(["compose-check", "--n", "2", "--t-final", "0.5", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["gap"] < 1e-6


def test_compose_check_zero_trunc_is_usage_error(capsys):
    # the default datum's embed died with IndexError, a traceback, not exit 2
    assert main(["compose-check", "--trunc", "0"]) == 2
    assert "trunc must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("trunc", ["1", "0", "-3"])
def test_simulate_profile_small_trunc_is_usage_error(trunc, capsys):
    # the profile was built before the run config was checked: exit 1 with
    # check failed [TRUNC_TOO_SMALL], where --state gave exit 2
    assert main(["simulate", "--family", "I", "--trunc", trunc]) == 2
    assert "trunc must be >= 2" in capsys.readouterr().err


def test_steady_verify_exit_codes(tmp_path):
    assert main(["steady", "--theta", "0.5236"]) == 0
    out = tmp_path / "steady.json"
    assert main(["steady", "--theta", "0.5236", "--out", str(out)]) == 0
    assert abs(conserved(HardyCoefficients.from_json(json.loads(out.read_text())["state"])).J) < STEADY_TOL


def test_steady_out_of_an_unsteady_state_exits_one(tmp_path, capsys):
    # without --verify, --out skipped the measurement and exited 0 on this state
    out = tmp_path / "steady.json"
    assert main(["steady", "--theta", "1.03", "--trunc", "2000", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    u = HardyCoefficients.from_json(json.loads(out.read_text())["state"])
    assert "|J|=9.706e-01" in printed
    assert f"|J|={abs(conserved(u).J):.3e}" in printed


def test_steady_verify_flag_is_usage_error():
    # measuring is always on, so the flag that asked for it is gone
    assert exit_code(["steady", "--theta", "0.5236", "--verify"]) == 2


def test_steady_out_writes_the_verified_state(tmp_path):
    # --out wrote a state cut to 65536 modes, |J| = 7.5e-8 at theta 0.99,
    # while the measurement passed at 137319; the header recorded only theta
    out = tmp_path / "steady.json"
    assert main(["steady", "--theta", "0.99", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    u = HardyCoefficients.from_json(payload["state"])
    assert u.trunc == payload["params"]["trunc"] == 137319
    assert abs(conserved(u).J) < STEADY_TOL


def test_steady_out_past_its_limit_names_trunc(tmp_path, capsys):
    out = tmp_path / "steady.json"
    assert main(["steady", "--theta", "1.03", "--out", str(out)]) == 2
    assert "--trunc" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trunc", ["0", "-3"])
@pytest.mark.parametrize("mode", [[], ["--out", "steady.json"]])
def test_steady_nonpositive_trunc_is_usage_error(trunc, mode, tmp_path, monkeypatch, capsys):
    # --trunc 0 died with IndexError (exit 1); -3 exited 2 only through
    # numpy's "negative dimensions" message
    monkeypatch.chdir(tmp_path)
    assert main(["steady", "--theta", "0.5", "--trunc", trunc, *mode]) == 2
    assert f"trunc must be >= 1, got {trunc}" in capsys.readouterr().err
    assert not (tmp_path / "steady.json").exists()


def test_instability_no_escape_flagged(capsys):
    code = main(["instability", "--r", "0.25", "--gamma", "1e-2", "--t-final", "2"])
    assert code == 1
    assert "NO_ESCAPE" in capsys.readouterr().out


def test_instability_escape_exit_zero(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(["instability", "--r", "0.25", "--gamma", "0.05", "--t-final", "20", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["escaped"] is True


def test_usage_error_exit_two(capsys):
    for argv in (["no-such-subcommand"], ["verify-tw", "--grid", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_missing_state_file_exit_two(tmp_path, capsys):
    code = main(["spectral", "--state", str(tmp_path / "absent.json")])
    assert code == 2


def test_instability_zero_dt_is_usage_error(capsys):
    code = main(["instability", "--r", "0.25", "--gamma", "0.05", "--dt", "0", "--t-final", "1"])
    assert code == 2
    assert "dt must be nonzero" in capsys.readouterr().err


def test_trajectory_too_short_is_check_failure(capsys):
    # 3 steps leave 4 samples, one short of the 5-point stencil: a numerical
    # check failure (exit 1), not a usage error (exit 2)
    code = main(["instability", "--r", "0.25", "--gamma", "0.05", "--dt", "1e-4", "--t-final", "3e-4"])
    assert code == 1
    assert "[TRAJ_TOO_SHORT]" in capsys.readouterr().err


# ----------------------------------------------------------------- the parameter merge


def test_config_key_not_read_is_usage_error(tmp_path, capsys):
    # a misspelled key (the flag is --tol) must not leave the default 1e-9 in force
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"tolerance": 1e-30}))
    assert exit_code(["verify-tw", "--config", str(cfgfile)]) == 2
    assert "'tolerance'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["certify", "--quick"], {"quick": True}),  # a switch, not a parameter
        (["simulate", "--family", "I"], {"out_csv": "traj.csv"}),  # an output path
        (["spectral", "--state", "state.json"], {"state": "other.json"}),  # required on the command line
    ],
    ids=["certify-switch", "simulate-output", "spectral-required"],
)
def test_config_keys_are_parameters_only(argv, config, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_cmd_" + argv[0].replace("-", "_"), lambda args: pytest.fail("command ran"))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    assert exit_code([*argv, "--config", str(cfgfile)]) == 2
    assert repr(next(iter(config))) in capsys.readouterr().err


def test_config_value_failing_flag_type_is_usage_error(tmp_path, capsys):
    # {"seed": 1.5} used to run and record seed 1 in the artifact header
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 1.5, "samples": 10}))
    out = tmp_path / "gn.json"
    assert exit_code(["gn-check", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_config_state_is_loaded(tmp_path, capsys):
    # compose-check used to ignore a config "state" and run the default datum
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"state": str(tmp_path / "absent.json")}))
    assert exit_code(["compose-check", "--config", str(cfgfile), "--t-final", "0.01"]) == 2
    assert "absent.json" in capsys.readouterr().err


MERGE_CASES = [
    (["simulate"], "t_final", 2, "--t-final=0.25", 0.25),
    (["verify-tw"], "p_re", 0.3, "--p-re=0.2", 0.2),
    (["spectral", "--state", "state.json"], "block", 8, "--block=4", 4),
    (["instability"], "gamma", 0.05, "--gamma=0.02", 0.02),
    (["steady"], "theta", 0.5, "--theta=0.25", 0.25),
    (["compose-check"], "n", 3, "--n=4", 4),
    (["gn-check"], "seed", 1, "--seed=7", 7),
]


@pytest.mark.parametrize("argv, key, config_value, flag, flag_value", MERGE_CASES, ids=[c[0][0] for c in MERGE_CASES])
def test_flag_beats_config_beats_default(argv, key, config_value, flag, flag_value, tmp_path, monkeypatch):
    # the command is replaced, so this checks the merged parameters and runs nothing
    seen = []
    monkeypatch.setattr(cli, "_cmd_" + argv[0].replace("-", "_"), lambda args: seen.append(vars(args)[key]) or 0)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: config_value}))
    config = ["--config", str(cfgfile)]
    for extra in ([], config, [flag, *config], [*config, flag]):
        assert main([*argv, *extra]) == 0
    assert seen[0] not in (config_value, flag_value)
    assert seen[1:] == [config_value, flag_value, flag_value]


def test_compose_check_default_is_criterion_11(tmp_path):
    out = tmp_path / "cc.json"
    assert main(["compose-check", "--out", str(out)]) == 0
    gap = json.loads(out.read_text())["gap"]
    assert gap == acceptance.criterion_11_composition_invariance().details["gap_N2"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize(
    "argv",
    [["simulate", "--t-final", "0.01"], ["compose-check", "--t-final", "0.01"], ["spectral"]],
    ids=lambda argv: argv[0],
)
def test_nonfinite_state_file_is_usage_error(argv, value, tmp_path, capsys):
    # json parses NaN and Infinity; they used to surface as a NONFINITE check
    # failure at step 1 (simulate, compose-check) or an SVD failure (spectral)
    coeffs = 0.5 ** np.arange(32)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"trunc": 32, "re": [*coeffs[:-1], value], "im": [0.0] * 32}))
    assert main([*argv, "--state", str(state)]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [({"trunc": 2, "re": [1, 0.5]}, "'im'"), ([1, 0.5], "JSON object")])
@pytest.mark.parametrize(
    "argv",
    [["spectral", "--state"], ["simulate", "--t-final", "0.01", "--state"], ["compose", "--n", "2", "--in"],
     ["compose-check", "--t-final", "0.01", "--state"]],
    ids=lambda argv: argv[0],
)
def test_malformed_state_file_is_usage_error(argv, payload, message, tmp_path, capsys):
    # a missing key or a non-object payload crashed with a traceback (exit 1)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(payload))
    out = ["--out", str(tmp_path / "out.json")] if argv[0] == "compose" else []
    assert main([*argv, str(state), *out]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("eps0", ["0", "-1"])
def test_instability_nonpositive_eps0_is_usage_error(eps0, capsys):
    # a radius <= 0 ended the run at its first sample: TRAJ_TOO_SHORT, exit 1
    assert main(["instability", "--eps0", eps0]) == 2
    assert "eps0 must be > 0" in capsys.readouterr().err


def test_simulate_partial_step_horizon_is_usage_error(capsys):
    # round(0.1 / 0.3) = 0 steps: the run did nothing and exited 0
    assert main(["simulate", "--family", "I", "--dt", "0.3", "--t-final", "0.1"]) == 2
    assert "whole number of dt steps" in capsys.readouterr().err


def test_simulate_nonpositive_tol_drift_is_usage_error(capsys):
    assert main(["simulate", "--family", "I", "--tol-drift", "-1", "--t-final", "0.01"]) == 2
    assert "tol_drift must be > 0" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # parse only: the README must not advertise a flag the parser lacks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("szego ")]
    assert len(lines) == 9
    parser = build_parser()
    for line in lines:
        for variant in (line.replace("[--quick]", "--quick"), line.replace("[--quick]", "")):
            parser.parse_args(shlex.split(variant)[1:])
