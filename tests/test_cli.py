import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddaekit import cli, models, pencil, steps


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


def test_csv_rows_name_the_segment_they_were_read_from(tmp_path):
    # t = 0.5 is the breakpoint of ex-shift: its values are segment 2's
    out = tmp_path / "shift"
    run_json("simulate", "--model", "ex-shift", "--T", "1", "--out",
             str(out), "--audit-points", "11")
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csv.DictReader(fh))
    m = models.ex_shift_model(0.5)
    tr = steps.solve_itp(m, m.default_history(), 1.0)
    assert [row["segment_index"] for row in rows] == ["1"] * 5 + ["2"] * 6
    for row in rows:
        t = float(row["t"])
        seg = tr.segments[int(row["segment_index"]) - 1]
        assert [row["z_1"], row["z_2"]] == [f"{v:.12g}" for v in seg.eval(t)]


def test_simulate_inadmissible_history_exit_five():
    rc, out, _ = run_cli("simulate", "--model", "ex-advanced", "--T", "1",
                         "--history", "poly:0.5;1,1")
    assert rc == 5
    assert json.loads(out)["status"] == "InadmissibleHistory"


def test_simulate_history_of_the_wrong_dimension_is_a_model_error():
    rc, _, err = run_cli("simulate", "--model", "ex-shift", "--T", "0.5",
                         "--history", "poly:1;2;3")
    assert rc == 2
    assert "history has 3 components, model needs 2" in err


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
    ("analyze",), ("simulate", "--T", "0.1"), ("classify",),
])
def test_json_model_missing_key_is_a_model_error(tmp_path, command):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"A": [[1.0]]}))
    rc, _, err = run_cli(command[0], "--model", str(path), *command[1:])
    assert rc == 2, err
    assert "Traceback" not in err
    assert "'E'" in err


def _shift_linear_with_tau(tau):
    data = models.ex_shift_linear(0.5).to_json()
    data["tau"] = tau
    return data


@pytest.mark.parametrize("payload", [
    [1, 2], _shift_linear_with_tau("0.5"),
    _shift_linear_with_tau(float("nan")),
], ids=["not-an-object", "tau-string", "tau-nan"])
@pytest.mark.parametrize("command", [
    ("analyze",), ("classify",),
    ("simulate", "--T", "0.1", "--history", "poly:0;1"),
], ids=["analyze", "classify", "simulate"])
def test_malformed_json_model_is_a_model_error(tmp_path, payload, command):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(command[0], "--model", str(path), *command[1:])
    assert rc == 2, err
    assert "Traceback" not in err
    assert "model error" in err
    assert out == ""


@pytest.mark.parametrize("args", [
    ("classify", "--model", "pmsd-hybrid", "--tau", "nan"),
    ("classify", "--model", "ex-advanced", "--tau", "inf"),
    ("analyze", "--model", "ex-shifted-index", "--tau", "-1"),
    ("simulate", "--model", "pmsd-hybrid", "--tau", "nan", "--T", "0.1"),
], ids=["classify-nan", "classify-inf", "analyze-negative", "simulate-nan"])
def test_registry_delay_must_be_finite_and_positive(args):
    rc, out, err = run_cli(*args)
    assert rc == 2, err
    assert "Traceback" not in err
    assert "tau must be a finite positive number" in err
    assert out == ""


def test_analyze_linear_ddae_decomposes_once(monkeypatch, capsys, tmp_path):
    path = tmp_path / "advanced.json"
    path.write_text(json.dumps(models.ex_advanced_linear(1.0).to_json()))
    calls = []
    for name in ("_det_samples", "_decompose"):
        def counting(*args, _name=name, _original=getattr(pencil, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(pencil, name, counting)
    rc = cli.main(["analyze", "--model", str(path)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert json.loads(out)["classification"] == {"type": "advanced", "s": 2}
    assert sorted(calls) == ["_decompose", "_det_samples"]


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


def test_export_writes_the_states_the_audit_read(monkeypatch, capsys,
                                                tmp_path):
    audited, export_reads, in_export = [], [], []
    run_audit, export, read = (steps.audit, steps.write_trajectory_csv,
                               steps.evaluate)

    def keeping(*args, **kwargs):
        audited.append(run_audit(*args, **kwargs))
        return audited[-1]

    def exporting(*args, **kwargs):
        in_export.append(True)
        try:
            return export(*args, **kwargs)
        finally:
            in_export.pop()

    def counting(tr, t, order=0):
        if in_export:
            export_reads.append(t)
        return read(tr, t, order)

    monkeypatch.setattr(cli, "audit", keeping)
    monkeypatch.setattr(cli, "write_trajectory_csv", exporting)
    monkeypatch.setattr(steps, "evaluate", counting)
    rc = cli.main(["simulate", "--model", "ex-shift", "--T", "0.1",
                   "--audit-points", "51", "--out", str(tmp_path / "run")])
    assert rc == 0, capsys.readouterr().err
    assert export_reads == []
    (ts, _, _, states), = audited
    with open(tmp_path / "run.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(ts) == 51
    for row, z in zip(rows, states):
        assert row[1:3] == [f"{v:.12g}" for v in z]


def test_every_registry_model_runs_from_the_cli(capsys):
    # each entry is useful from the command line: at least one of analyze,
    # classify or a short simulate exits 0
    for name in models.REGISTRY:
        codes = [cli.main([command, "--model", name, *extra])
                 for command, *extra in (("analyze",), ("classify",),
                                         ("simulate", "--T", "0.1"))]
        assert 0 in codes, (name, codes)
    capsys.readouterr()
    assert cli.main(["analyze", "--model", "pendulum"]) == 2
    assert "unknown model 'pendulum'" in capsys.readouterr().err


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
    stats = run_json("simulate", "--model", "pmsd-hybrid", "--T", "0.2",
                     "--h", "0.00025")["stats"]
    assert set(stats) == {"steps", "newton_iterations", "halvings",
                          "rejected", "max_stage_cond",
                          "max_endpoint_residual", "max_start_residual"}
    assert stats["steps"] == 800
    assert stats["newton_iterations"] <= 1604
    assert stats["halvings"] == 0
    assert stats["rejected"] == 0
    assert 1.0 <= stats["max_stage_cond"] < 1e12
    assert stats["max_endpoint_residual"] <= 1e-8
    assert stats["max_start_residual"] <= 1e-6
    # the default step is never finer than tau/200
    data = run_json("simulate", "--model", "pmsd-hybrid", "--T", "0.2")
    assert set(data["stats"]) == set(stats)
    assert data["stats"]["steps"] < 800
    assert data["audit_ok"] is True


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


@pytest.mark.parametrize("out", ["run", "./sub/../run"])
def test_simulate_out_never_overwrites_the_model_file(tmp_path, monkeypatch,
                                                      capsys, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    model = tmp_path / "run.json"
    text = json.dumps(models.ex_advanced_linear(1.0).to_json())
    model.write_text(text)
    rc = cli.main(["simulate", "--model", "run.json", "--T", "1",
                   "--history", "poly:0;1,1", "--out", out])
    assert rc == 64
    assert "overwrite" in capsys.readouterr().err
    assert model.read_text() == text
    assert not (tmp_path / "run.csv").exists()


# Flag values a user can get wrong: zero, negatives, non-finite numbers and
# text that is no number at all.
BAD_VALUES = ["0", "-1", "-0.5", "nan", "inf", "-inf", "abc", ""]
FUZZ_MODELS = {"analyze": ["ex-split-index", "ex-shifted-index", "msd"],
               "classify": ["pmsd-hybrid", "ex-shift", "ex-advanced"],
               "simulate": ["ex-shift", "ex-advanced", "pmsd-hybrid"],
               "sweep": ["pmsd-hybrid"]}


@st.composite
def cli_argv(draw):
    """One ddae command line.  Valid values keep a run short (T <= 0.2,
    tau >= 0.01, h >= 0.001, at most 2000 audit points).  Optional flags
    may be left out; in half of the draws any flag, required ones too, may
    also be left out or take one of BAD_VALUES."""
    command = draw(st.sampled_from(sorted(FUZZ_MODELS)))
    model = draw(st.sampled_from(FUZZ_MODELS[command]))
    broken = draw(st.booleans())

    def value(valid, optional=True):
        choices = [valid.map(repr)]
        if optional or broken:
            choices.append(st.none())
        if broken:
            choices.append(st.sampled_from(BAD_VALUES))
        return draw(st.one_of(choices))

    argv = [command, "--model", model]

    def flag(name, valid, optional=True):
        text = value(valid, optional)
        if text is not None:
            argv.append(f"{name}={text}")

    flag("--tol", st.floats(1e-12, 1e-6))
    keys = [*models.REGISTRY[model].defaults, "bogus"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        text = value(st.floats(-3.0, 3.0), optional=False)
        argv.append(f"--param={key}" + ("" if text is None else f"={text}"))
    delays = st.floats(0.01, 1.0)
    if command == "sweep":
        taus = [value(delays, False) for _ in range(draw(st.integers(1, 2)))]
        argv.append("--tau=" + ",".join(t for t in taus if t is not None))
    else:
        flag("--tau", delays)
    if command in ("simulate", "sweep"):
        flag("--T", st.floats(0.01, 0.2), optional=False)
        flag("--h", st.floats(0.001, 0.05))
        flag("--audit-points", st.integers(2, 2000))
    return argv


@settings(max_examples=38)
@given(cli_argv())
# a wider run of this fuzzer found these two: a non-finite horizon and a
# non-finite model parameter both ended in an uncaught exception
@example(["simulate", "--model", "ex-shift", "--T=inf"])
@example(["simulate", "--model", "pmsd-hybrid", "--T=0.01", "--param=M=inf"])
def test_fuzzed_flag_values_map_to_documented_exit_codes(argv):
    # in-process, so that no draw starts a process
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 2, 3, 4, 5, 64), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


@pytest.mark.parametrize("T", ["0", "-1", "nan", "inf"])
def test_sweep_refuses_a_bad_horizon_before_solving(T, monkeypatch, capsys):
    solved = []
    monkeypatch.setattr(cli, "sweep_reference", lambda *a: solved.append(a))
    rc = cli.main(["sweep", "--model", "pmsd-hybrid", "--tau", "0.1",
                   f"--T={T}"])
    assert rc == 2
    assert solved == []
    captured = capsys.readouterr()
    assert "horizon T must be finite and positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tau", ["0.5", "0.01"])
def test_advanced_default_history_runs_into_the_breakdown(tau, capsys):
    # the default history is admissible at every tau, so the run reaches
    # the first breakpoint and breaks down there
    rc = cli.main(["simulate", "--model", "ex-advanced", "--tau", tau,
                   "--T", "1"])
    assert rc == 4
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "BrokeDown"
    assert data["breakdown"]["segment"] == 2
    assert data["breakdown"]["breakpoint"] == pytest.approx(float(tau))
