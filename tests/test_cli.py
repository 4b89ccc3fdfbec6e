"""Experiment-runner surface: exit codes, artifacts, determinism."""

import csv
import io
import json

import numpy as np
import pytest

from quadszego import acceptance, cli
from quadszego.cli import main
from quadszego.hardy import HardyCoefficients
from quadszego.operators import shifted_hankel


def write_state(path, coeffs):
    with open(path, "w") as f:
        json.dump(HardyCoefficients(coeffs).to_json(), f)


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


def test_verify_tw_grid_jobs_merge_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-tw", "--grid", "--out", str(a)]) == 0
    assert main(["verify-tw", "--grid", "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_tw_grid_jobs_capped_at_grid_size(tmp_path, monkeypatch):
    # a stand-in pool records its size and maps in-process, so no worker starts
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-tw", "--grid", "--out", str(a)]) == 0
    assert main(["verify-tw", "--grid", "--jobs", "1000", "--out", str(b)]) == 0
    assert sizes == [len(acceptance.tw_grid())] == [36]
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_tw_grid_jobs_below_one_is_usage_error(jobs, capsys):
    assert main(["verify-tw", "--grid", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_gn_check_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gn-check", "--samples", "500", "--seed", "7", "--out", str(a)]) == 0
    assert main(["gn-check", "--samples", "500", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["violations"] == 0
    assert payload["params"]["seed"] == 7


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
    # states, certified by a sketch of width 12 < 48: within (2 sigma_1 + r) r
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


def test_steady_verify_exit_codes():
    assert main(["steady", "--theta", "0.5236", "--verify"]) == 0


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
    with pytest.raises(SystemExit) as exc:
        main(["no-such-subcommand"])
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
