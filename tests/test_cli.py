import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from ddaekit import cli, models, steps


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "ddaekit", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args, expect=0):
    rc, out, err = run_cli(*args)
    assert rc == expect, f"rc={rc}, stderr={err}"
    return json.loads(out)


def test_analyze_split_example():
    for c, nu in (("1", 1), ("0", 1), ("0.5", 1)):
        data = run_json("analyze", "--model", "ex-split-index",
                        "--param", f"c={c}")
        assert data["regular"] is True
        assert data["nu"] == nu


def test_analyze_identity_pencil_from_json(tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(
        {"E": [[1.0, 0.0], [0.0, 1.0]], "A": [[0.0, 1.0], [-1.0, 0.0]]}))
    data = run_json("analyze", "--model", str(path))
    assert data["regular"] and data["nu"] == 0 and data["a"] == 0


def test_analyze_shifted_example_reports_both_index_notions():
    data = run_json("analyze", "--model", "ex-shifted-index", "--param", "c=0")
    assert (data["nu"], data["mu"]) == (2, 1)
    data = run_json("analyze", "--model", "ex-shifted-index", "--param", "c=1")
    assert (data["nu"], data["mu"]) == (3, 2)


def test_analyze_singular_pencil_reports_cleanly(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(
        {"E": [[1.0, 0.0], [0.0, 0.0]], "A": [[0.0, 0.0], [0.0, 0.0]]}))
    data = run_json("analyze", "--model", str(path))
    assert data["regular"] is False
    assert "nu" not in data


def test_analyze_linear_ddae_includes_classification(tmp_path):
    d = models.ex_advanced_linear(1.0)
    path = tmp_path / "advanced.json"
    path.write_text(json.dumps(d.to_json()))
    data = run_json("analyze", "--model", str(path))
    assert data["classification"] == {"type": "advanced", "s": 2}


def test_unknown_model_exit_code():
    rc, _, err = run_cli("analyze", "--model", "no-such-model")
    assert rc == 2
    assert "registry" in err


def test_classify_commands():
    data = run_json("classify", "--model", "pmsd-hybrid")
    assert data["classification"] == {"type": "neutral", "s": 1}
    data = run_json("classify", "--model", "ex-advanced")
    assert data["classification"] == {"type": "advanced", "s": 2}
    data = run_json("classify", "--model", "ex-shift")
    assert data["classification"] == {"type": "retarded", "s": 0}


def test_simulate_advanced_breakdown_exit_and_summary():
    data = run_json("simulate", "--model", "ex-advanced", "--T", "2",
                    expect=4)
    assert data["status"] == "BrokeDown"
    assert data["breakdown"]["breakpoint"] == pytest.approx(1.0)
    assert data["breakdown"]["residual_norm"] == pytest.approx(1.0, abs=1e-6)


def test_simulate_pmsd_hybrid_residual_bound(tmp_path):
    out = tmp_path / "run"
    data = run_json("simulate", "--model", "pmsd-hybrid", "--T", "0.25",
                    "--out", str(out))
    assert data["status"] == "Complete"
    assert data["max_residual"] <= 1e-8
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "run.json").exists()


def test_simulate_shift_example_csv_matches_closed_form(tmp_path):
    out = tmp_path / "shift"
    data = run_json("simulate", "--model", "ex-shift", "--T", "0.1",
                    "--out", str(out), "--audit-points", "101")
    assert data["status"] == "Complete"
    m = models.ex_shift_model(0.5)
    x1_0 = m.default_history().eval(0.0)[0]
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 101
    assert set(rows[0]) == {"t", "z_1", "z_2", "segment_index",
                            "A_residual_norm"}
    for row in rows[::10]:
        t = float(row["t"])
        x1 = x1_0 + 1.5 * t - 0.125 * t**2 + (0.125 / 3.0) * t**3
        assert float(row["z_1"]) == pytest.approx(x1, abs=1e-8)
        assert float(row["z_2"]) == pytest.approx(
            m.g_signal.eval(t + 0.5)[0], abs=1e-8)


def test_simulate_inadmissible_history_exit_five():
    rc, out, _ = run_cli("simulate", "--model", "ex-advanced", "--T", "1",
                         "--history", "poly:0.5;1,1")
    assert rc == 5
    assert json.loads(out)["status"] == "InadmissibleHistory"


def test_usage_errors():
    rc, _, _ = run_cli("simulate", "--model", "ex-advanced")
    assert rc == 64                       # missing --T
    rc, _, _ = run_cli("sweep", "--model", "pmsd-hybrid", "--T", "1")
    assert rc == 64                       # empty tau list
    rc, _, _ = run_cli("sweep", "--model", "pmsd-hybrid", "--T", "1",
                       "--tau", "0")
    assert rc == 64                       # non-positive delay
    rc, _, _ = run_cli("frobnicate")
    assert rc == 64                       # unknown command


def test_sweep_csv_and_monotone_deviation(tmp_path):
    out = tmp_path / "sweep.csv"
    rc, stdout, err = run_cli("sweep", "--model", "pmsd-hybrid",
                              "--tau", "0.1,0.05", "--T", "0.4",
                              "--out", str(out))
    assert rc == 0, err
    lines = stdout.strip().splitlines()
    assert lines[0] == "tau,deviation,status"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.1, 0.05]
    devs = [float(r[1]) for r in rows]
    assert devs[0] > devs[1] > 0.0
    assert all(r[2] == "ok" for r in rows)


@pytest.mark.parametrize("flag, value", [
    ("--h", "0"), ("--h", "inf"), ("--h", "-1"), ("--h", "nan"),
    ("--audit-points", "0"), ("--audit-points", "1"),
])
def test_simulate_rejects_invalid_integration_options(flag, value):
    rc, _, err = run_cli("simulate", "--model", "ex-shift", "--T", "0.1",
                         flag, value)
    assert rc == 2, err
    assert "Traceback" not in err
    assert "model error" in err


@pytest.mark.parametrize("command", [
    ("analyze",), ("simulate", "--T", "0.1"),
])
def test_json_model_missing_key_is_a_model_error(tmp_path, command):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"A": [[1.0]]}))
    rc, _, err = run_cli(command[0], "--model", str(path), *command[1:])
    assert rc == 2, err
    assert "Traceback" not in err
    assert "'E'" in err


def test_sweep_unknown_parameter_is_a_model_error():
    rc, out, err = run_cli("sweep", "--model", "pmsd-hybrid", "--param",
                           "foo=1", "--tau", "0.1", "--T", "0.2")
    assert rc == 2, err
    assert "Traceback" not in err
    assert "foo" in err
    assert "error:" not in out


def test_sweep_refuses_models_without_reference():
    rc, _, err = run_cli("sweep", "--model", "ex-shift", "--tau", "0.1",
                         "--T", "0.2")
    assert rc == 2
    sweepable = sorted(name for name, entry in models.REGISTRY.items()
                       if entry.reference)
    assert sweepable == ["pmsd-hybrid"]
    assert f"sweepable: {sweepable}" in err


def test_sweep_solves_the_reference_once(monkeypatch, capsys):
    solved = []
    solve = steps.solve_itp

    def counting(model, *args, **kwargs):
        solved.append(model.name)
        return solve(model, *args, **kwargs)

    monkeypatch.setattr(steps, "solve_itp", counting)
    rc = cli.main(["sweep", "--model", "pmsd-hybrid", "--tau", "0.1,0.05",
                   "--T", "0.4"])
    assert rc == 0, capsys.readouterr().err
    assert solved == ["pmsd-coupled", "pmsd-hybrid", "pmsd-hybrid"]


def test_simulate_audits_once_per_run(monkeypatch, capsys, tmp_path):
    audited = []
    run_audit = steps.audit

    def counting(*args, **kwargs):
        audited.append(args[1:])
        return run_audit(*args, **kwargs)

    monkeypatch.setattr(steps, "audit", counting)
    monkeypatch.setattr(cli, "audit", counting)
    rc = cli.main(["simulate", "--model", "ex-shift", "--T", "0.1",
                   "--audit-points", "51", "--out", str(tmp_path / "run")])
    assert rc == 0, capsys.readouterr().err
    assert audited == [(51,)]
    with open(tmp_path / "run.csv") as fh:
        assert len(list(csv.reader(fh))) == 52


def test_sweep_refuses_tau_parameter():
    rc, out, err = run_cli("sweep", "--model", "pmsd-hybrid", "--tau", "0.1",
                           "--T", "0.3", "--param", "tau=0.3")
    assert rc == 64, err
    assert "--tau" in err
    assert out == ""


@pytest.mark.parametrize("args, ok", [
    (("--T", "0.2"), True),
    (("--T", "0.5", "--h", "0.005"), False),   # audit residual ~2e-8
])
def test_simulate_reports_audit_ok(args, ok):
    data = run_json("simulate", "--model", "pmsd-hybrid", *args)
    assert data["status"] == "Complete"
    assert data["audit_ok"] is ok
    assert (data["max_residual"] <= 1e-8) is ok


def test_simulate_reports_integrator_totals():
    # 800 steps of tau/200; 1604 Newton iterations with full Newton
    stats = run_json("simulate", "--model", "pmsd-hybrid", "--T",
                     "0.2")["stats"]
    assert set(stats) == {"steps", "newton_iterations", "halvings",
                          "max_stage_cond", "max_endpoint_residual"}
    assert stats["steps"] == 800
    assert stats["newton_iterations"] <= 1604
    assert stats["halvings"] == 0
    assert 1.0 <= stats["max_stage_cond"] < 1e12
    assert stats["max_endpoint_residual"] <= 1e-8


def test_simulate_user_linear_ddae_from_json(tmp_path):
    # the advanced example supplied as a raw linear system: the wrapper
    # derives the strangeness-free split, and the run still breaks down
    d = models.ex_advanced_linear(1.0)
    path = tmp_path / "advanced-linear.json"
    path.write_text(json.dumps(d.to_json()))
    rc, out, err = run_cli("simulate", "--model", str(path), "--T", "2",
                           "--history", "poly:0;1,1")
    assert rc == 4, err
    data = json.loads(out)
    assert data["status"] == "BrokeDown"
    assert data["breakdown"]["breakpoint"] == pytest.approx(1.0)


def test_log_env_variable_accepted(tmp_path, monkeypatch):
    import os
    import subprocess
    env = dict(os.environ, DDAE_LOG="debug")
    proc = subprocess.run(
        [sys.executable, "-m", "ddaekit", "analyze", "--model",
         "ex-split-index"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nu"] == 1


def test_simulate_reports_are_deterministic(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run-{tag}"
        run_json("simulate", "--model", "ex-shift", "--T", "0.2",
                 "--out", str(out), "--audit-points", "51")
        csv_bytes = out.with_suffix(".csv").read_bytes()
        summary = json.loads(out.with_suffix(".json").read_text())
        summary.pop("runtime")
        outputs.append((csv_bytes, summary))
    assert outputs[0] == outputs[1]
