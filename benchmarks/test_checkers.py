"""The benchmark's output checks must turn wrong output into failed ops."""

import json
from pathlib import Path

import numpy as np
import pytest

import checkers
import run
import workloads
from tracing import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class _Stub:
    """Workload stand-in whose op returns or raises what the test says."""

    def __init__(self, call, check):
        self.call = call
        self.check = check


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _hybrid_summary(segments=40, max_residual=1e-12):
    return json.dumps({"status": "Complete", "max_residual": max_residual,
                       "breakpoints": [0.05 * i for i in range(segments + 1)]})


def _hybrid_csv(path, residual=0.0):
    header = ["t", *(f"z_{i}" for i in range(1, 8)), "segment_index",
              "A_residual_norm"]
    rows = np.zeros((5, 10))
    rows[:, 9] = residual
    _write_csv(path, header, rows)


def test_hybrid_check_accepts_good_output(tmp_path):
    _hybrid_csv(tmp_path / "run.csv")
    assert checkers.check_hybrid(0, _hybrid_summary(),
                                 tmp_path / "run.csv", 40) == []


@pytest.mark.parametrize("rc, summary, residual", [
    (4, _hybrid_summary(), 0.0),                     # non-zero exit code
    (0, _hybrid_summary(segments=39), 0.0),          # missing breakpoint
    (0, _hybrid_summary(max_residual=1e-6), 0.0),    # summary above res_tol
    (0, _hybrid_summary(), 1e-6),                    # CSV residual too big
    (0, "Traceback (most recent call last):", 0.0),  # no JSON summary
])
def test_hybrid_check_rejects(tmp_path, rc, summary, residual):
    _hybrid_csv(tmp_path / "run.csv", residual)
    assert checkers.check_hybrid(rc, summary, tmp_path / "run.csv", 40)


def _linear_spec(points):
    spec = workloads.LinearExport(7).specs[0]
    return {**spec, "audit_points": points}


def _linear_csv(path, spec, perturb_row=None):
    t = np.linspace(0.0, 10.0, spec["audit_points"])
    x1, x2 = checkers.closed_form_linear(spec, t)
    if perturb_row is not None:
        x1[perturb_row] += 1e-6
    rows = np.column_stack([t, x1, x2, np.ones_like(t), np.zeros_like(t)])
    _write_csv(path, ["t", "z_1", "z_2", "segment_index", "A_residual_norm"],
               rows)


def test_linear_check_flags_one_perturbed_row(tmp_path):
    spec = _linear_spec(50)
    ok = json.dumps({"status": "Complete"})
    _linear_csv(tmp_path / "good.csv", spec)
    _linear_csv(tmp_path / "bad.csv", spec, perturb_row=17)
    assert checkers.check_linear(0, ok, tmp_path / "good.csv", spec) == []
    assert checkers.check_linear(0, ok, tmp_path / "bad.csv", spec)
    assert checkers.check_linear(2, ok, tmp_path / "good.csv", spec)


def test_linear_closed_form_matches_the_program(tmp_path):
    wl = workloads.LinearExport(7)
    wl.prepare(tmp_path)
    spec = {**wl.specs[0], "audit_points": 200}
    rc, out, _ = wl._run(0, 2.0, 200, tmp_path / "export-0")
    assert checkers.check_linear(rc, out, tmp_path / "export-0.csv",
                                 spec) == []


def test_pencil_check():
    assert checkers.check_pencil((True, 2, True), (True, 2)) == []
    assert checkers.check_pencil((True, 1, True), (True, 2))     # wrong nu
    assert checkers.check_pencil((False, None, True), (True, 1))
    assert checkers.check_pencil((True, 1, False), (True, 1))


def test_wrong_output_and_exceptions_are_failed_ops():
    wrong_nu = _Stub(lambda item: (True, 3, True),
                     lambda item, r: checkers.check_pencil(r, (True, 2)))
    assert run._run_op(wrong_nu, 0, None)["problems"]

    def raises(item):
        raise KeyError("E")

    crash = _Stub(raises, lambda item, r: [])
    record = run._run_op(crash, 0, None)
    assert record["problems"] == ["KeyError: 'E'"]


def test_pencil_labels_agree_with_the_program():
    wl = workloads.PencilBatch(3)
    wl.items = wl.items[:60]
    wl.label()
    for item in range(len(wl.items)):
        assert wl.check(item, wl.call(item)) == []


def test_traced_op_reports_every_per_layer_metric():
    wl = workloads.PencilBatch(3)
    wl.items = wl.items[:30]
    wl.label()
    tracer = Tracer(checkers.RES_TOL)
    log = run.OpLog()
    for item in (0, 0, 1):
        log.add(run._run_op(wl, item, None))
        log.add(run._run_op(wl, item, tracer))
    metrics, shares = run._per_layer(wl, log, tracer, [(0.5, 0.3)])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit, _) in metrics.items()} == declared
    assert all(target for _, _, target in metrics.values())
    assert sum(shares.values()) == pytest.approx(1.0)
    first, repeat = (tracer.op_stats[i]["spans"] for i in (0, 1))
    assert {k: v[0] for k, v in first.items()} == {
        k: v[0] for k, v in repeat.items()}


def test_end_to_end_metrics_match_the_declaration():
    wl = workloads.PencilBatch(3)
    log = run.OpLog()
    for k in range(40):
        log.add({"item": k, "traced": False, "seconds": 0.001 * (1 + k % 7),
                 "problems": []})
    metrics = run._end_to_end(wl, log, [(0.5, 0.3)] * 5)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit, _) in metrics.items()} == declared
    assert all(value > 0 for value, _, _ in metrics.values())


def test_op_log_counts_failures_and_keeps_only_the_first_few():
    log = run.OpLog()
    for k in range(20):
        log.add({"item": k, "traced": k % 2 == 1, "seconds": 0.01,
                 "problems": ["IllConditioned: cond 1e13"] if k < 8 else []})
    assert (len(log), len(log.untraced), len(log.traced)) == (20, 10, 10)
    assert list(log.traced_items) == list(range(1, 20, 2))
    assert (log.failed, log.ill_conditioned) == (8, 8)
    assert len(log.failures) == run.OpLog.KEEP_FAILURES
