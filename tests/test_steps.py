import csv
import functools
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddaekit import models, radau, steps
from ddaekit.errors import InadmissibleHistory, NewtonDivergence, ShapeError
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import (LinearDdae, LtiDescriptor, hybrid_shifted,
                         sf_model_from_linear)
from ddaekit.pencil import weierstrass
from ddaekit.radau import (CONSISTENCY_TOL, STEPS_PER_SEGMENT,
                           IntegrationOptions, SegmentSolution)
from ddaekit.sfdae import SfDdaeModel
from ddaekit.steps import (BROKE_DOWN, Trajectory, audit, evaluate,
                           evaluate_grid, solve_itp, sweep_deviation,
                           sweep_reference, write_trajectory_csv)

import output_digest
from test_sfdae import delayed_ode


def test_delayed_ode_hand_values():
    # z' = -z(t-1), phi = 1: z = 1 - t on [0,1], 1 - t + (t-1)^2/2 on [1,2]
    m = delayed_ode(1.0)
    tr = solve_itp(m, SymbolicSignal.constant([1.0]), 2.0)
    assert tr.complete
    for t in (0.25, 0.5, 1.0):
        assert evaluate(tr, t)[0] == pytest.approx(1.0 - t, abs=1e-8)
    for t in (1.25, 1.75, 2.0):
        exact = 1.0 - t + (t - 1.0) ** 2 / 2.0
        assert evaluate(tr, t)[0] == pytest.approx(exact, abs=1e-8)
    assert evaluate(tr, 2.0)[0] == pytest.approx(-0.5, abs=1e-8)


def test_evaluate_branches_and_right_derivatives():
    m = delayed_ode(1.0)
    phi = SymbolicSignal.constant([1.0])
    tr = solve_itp(m, phi, 2.0)
    # history branch
    assert evaluate(tr, -0.5)[0] == 1.0
    assert evaluate(tr, -1.0)[0] == 1.0
    # continuity at breakpoints (value from either side agrees)
    seg_end = tr.segments[0].eval(1.0)[0]
    seg_start = tr.segments[1].eval(1.0)[0]
    assert seg_end == pytest.approx(seg_start, abs=1e-12)
    assert evaluate(tr, 1.0)[0] == pytest.approx(seg_start, abs=1e-12)
    # z'(1+) = -z(0) = -1 equals z'(1-) = -phi(0) here
    assert evaluate(tr, 1.0, 1)[0] == pytest.approx(-1.0, abs=1e-9)
    # at t = 0 the right derivative jumps away from the history derivative
    assert evaluate(tr, 0.0, 1)[0] == pytest.approx(-1.0, abs=1e-10)
    assert phi.eval(0.0, 1)[0] == 0.0
    with pytest.raises(ValueError):
        evaluate(tr, 2.5)
    with pytest.raises(ValueError):
        evaluate(tr, -1.5)
    with pytest.raises(ValueError):
        evaluate(tr, 0.5, 2)


def test_evaluate_domain_without_segments():
    # before a segment is solved the trajectory is its history on [-tau, 0]
    m = delayed_ode(2.0)
    phi = SymbolicSignal(poly=[[1.0, 1.0]])
    tr = Trajectory(m, phi)
    assert evaluate(tr, 0.0)[0] == 1.0
    assert evaluate(tr, -2.0)[0] == -1.0
    assert evaluate(tr, -2.0, 1)[0] == 1.0
    # within rounding of 0 reads phi(0) itself
    assert evaluate(tr, 1e-12)[0] == 1.0
    for t in (0.5, -2.5):
        with pytest.raises(ValueError):
            evaluate(tr, t)


def test_advanced_example_breaks_down_at_first_breakpoint():
    m = models.ex_advanced_model(1.0)
    tr = solve_itp(m, m.default_history(), 2.0)
    assert tr.status == "BrokeDown"
    assert tr.breakdown_index == 2
    assert tr.breakdown_time == pytest.approx(1.0)
    assert np.linalg.norm(tr.breakdown_residual) == pytest.approx(1.0, abs=1e-6)
    for t in np.linspace(0.0, 1.0, 31)[:-1]:
        z = evaluate(tr, t)
        assert z[0] == pytest.approx(t, abs=1e-10)
        assert z[1] == pytest.approx(1.0, abs=1e-10)


def test_inadmissible_history_raises():
    m = models.ex_advanced_model(1.0)
    bad = SymbolicSignal(poly=[[0.3], [1.0, 1.0]])
    with pytest.raises(InadmissibleHistory) as err:
        solve_itp(m, bad, 1.0)
    assert np.linalg.norm(err.value.residual) > 0.1


def test_history_dimension_must_match_the_model():
    # ex-shift never reads a third component, so without the check this
    # history would reach the consistency test and be called inadmissible
    m = models.ex_shift_model()
    with pytest.raises(ShapeError, match="history has 3 components, model "
                                         "needs 2"):
        solve_itp(m, SymbolicSignal.constant([1.0, 2.0, 3.0]), 0.5)


def test_shift_example_against_closed_form():
    m = models.ex_shift_model(0.5)
    tr = solve_itp(m, m.default_history(), 0.5)
    g = m.g_signal
    x1_0 = m.default_history().eval(0.0)[0]
    for t in np.linspace(0, 0.5, 20):
        x1 = x1_0 + 1.5 * t - 0.125 * t**2 + (0.125 / 3.0) * t**3
        z = evaluate(tr, t)
        assert z[0] == pytest.approx(x1, abs=1e-8)
        assert z[1] == pytest.approx(g.eval(t + 0.5)[0], abs=1e-8)


def test_audit_and_start_residual_on_builtins():
    cases = [
        (models.pmsd_hybrid_shifted(), 3 * 0.05),
        (models.ex_shift_model(0.5), 1.6),
        (delayed_ode(1.0), 3.0),
    ]
    for m, T in cases:
        phi = (m.default_history() if m.default_history
               else SymbolicSignal.constant([1.0]))
        opts = IntegrationOptions()
        tr = solve_itp(m, phi, T, opts)
        assert tr.complete
        _, full, _, _ = audit(tr, 1000)
        assert full.max() <= 10 * opts.res_tol
        # every breakpoint right limit was checked as a segment start
        assert tr.stats["max_start_residual"] <= CONSISTENCY_TOL


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 7),
       delta=st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, 1e-10, 5e-10]))
@example(k=3, delta=1e-11)
@example(k=7, delta=1e-10)
def test_a_complete_run_ends_at_T(k, delta):
    # segments are fitted to [0, T] as steps are to a segment: a horizon a
    # relative 1e-12 or more past k tau gets a short last segment to T
    m = delayed_ode(0.3)
    T = k * m.tau * (1.0 + delta)
    tr = solve_itp(m, SymbolicSignal.constant([1.0]), T)
    n = steps.plan_run(T, m.tau)[0]
    assert tr.complete and tr.t_end == T and len(tr.segments) == n
    assert tr.breakpoints == [0.0, *(i * m.tau for i in range(1, n)), T]


def test_an_integrator_error_keeps_its_type_and_attributes():
    # z' = z^2 from z = 1 is 1 / (1 - t): Newton fails before t = 1, in
    # segment 2 of tau = 0.5
    m = SfDdaeModel(
        n=1, d=1, a=0, tau=0.5, s_decl=0,
        D=lambda t, z, zdot, ztau: np.array([zdot[0] - z[0] ** 2]),
        A=lambda t, z, zlags: np.zeros(0),
        JD_z=lambda t, z, zdot, ztau: np.array([[-2.0 * z[0]]]),
        JD_zdot=lambda t, z, zdot, ztau: np.eye(1),
        JA_z=lambda t, z, zlags: np.zeros((0, 1)),
        name="blow-up")
    with pytest.raises(NewtonDivergence,
                       match=r"^segment 2: Newton failed at t = ") as err:
        solve_itp(m, SymbolicSignal.constant([1.0]), 2.0)
    assert 0.5 <= err.value.t <= 1.0
    assert err.value.iterate is not None and err.value.residual is not None


def test_partial_final_segment():
    m = delayed_ode(1.0)
    phi = SymbolicSignal.constant([1.0])
    tr = solve_itp(m, phi, 1.6, IntegrationOptions(h=1.0 / 200))
    assert tr.complete
    assert tr.t_end == pytest.approx(1.6)
    assert len(tr.segments) == 2
    # same per-unit-time density: 200 steps per full delay interval
    assert tr.segments[1].stats["n_steps"] == 120
    exact = 1.0 - 1.6 + 0.6 ** 2 / 2.0
    assert evaluate(tr, 1.6)[0] == pytest.approx(exact, abs=1e-8)
    # the default path: the quadratic on [1, 1.6] is one cubic step
    tr = solve_itp(m, phi, 1.6)
    assert tr.t_end == pytest.approx(1.6)
    assert len(tr.segments) == 2
    assert 1 <= tr.segments[1].stats["n_steps"] <= 120
    assert evaluate(tr, 1.6)[0] == pytest.approx(exact, abs=1e-8)


def test_history_only_dependence_for_single_segment(monkeypatch):
    calls = {"n": 0}
    orig = SegmentSolution.eval

    def counting(self, t, order=0):
        calls["n"] += 1
        return orig(self, t, order)

    monkeypatch.setattr(SegmentSolution, "eval", counting)
    m = delayed_ode(1.0)
    solve_itp(m, SymbolicSignal.constant([1.0]), 1.0)
    assert calls["n"] == 0


def test_advanced_variants_break_down_within_index_bound():
    # variant A: x' = 2y, 0 = x - y(t - tau); admissible quadratic history
    a = SfDdaeModel(
        n=2, d=0, a=2, tau=1.0, s_decl=2,
        D=lambda t, z, zdot, ztau: np.zeros(0),
        A=lambda t, z, zlags: np.array(
            [z[0] - zlags[0][1], z[1] - 0.5 * zlags[1][1]]),
        JD_z=lambda t, z, zdot, ztau: np.zeros((0, 2)),
        JD_zdot=lambda t, z, zdot, ztau: np.zeros((0, 2)),
        JA_z=lambda t, z, zlags: np.eye(2),
        name="advanced-variant-a")
    # phi2 = t^2 + t + c with phi2(0) = c = phi2'(-1)/2 = -1/2 and
    # phi1(0) = phi2(-1) = c
    phi = SymbolicSignal(poly=[[-0.5], [-0.5, 1.0, 1.0]])
    nu_a = weierstrass(models.ex_advanced_linear(1.0).pencil).nu
    tr = solve_itp(a, phi, 3.0)
    assert tr.status == "BrokeDown" and tr.breakdown_index <= nu_a + 1

    # variant B: advanced pair plus an uncoupled decaying state
    b = SfDdaeModel(
        n=3, d=1, a=2, tau=1.0, s_decl=2,
        D=lambda t, z, zdot, ztau: np.array([zdot[2] + z[2]]),
        A=lambda t, z, zlags: np.array(
            [z[0] - zlags[0][1], z[1] - zlags[1][1]]),
        JD_z=lambda t, z, zdot, ztau: np.array([[0.0, 0.0, 1.0]]),
        JD_zdot=lambda t, z, zdot, ztau: np.array([[0.0, 0.0, 1.0]]),
        JA_z=lambda t, z, zlags: np.array([[1.0, 0.0, 0.0],
                                           [0.0, 1.0, 0.0]]),
        name="advanced-variant-b")
    phi = SymbolicSignal(poly=[[0.0], [1.0, 1.0], [2.0]])
    tr = solve_itp(b, phi, 3.0)
    assert tr.status == "BrokeDown" and tr.breakdown_index <= 3


def test_order_three_declared_models_refused():
    m = SfDdaeModel(
        n=1, d=0, a=1, tau=1.0, s_decl=3,
        D=lambda t, z, zdot, ztau: np.zeros(0),
        A=lambda t, z, zlags: np.array([z[0] - zlags[2][0]]),
        JD_z=lambda t, z, zdot, ztau: np.zeros((0, 1)),
        JD_zdot=lambda t, z, zdot, ztau: np.zeros((0, 1)),
        JA_z=lambda t, z, zlags: np.eye(1),
        name="order-three")
    phi = SymbolicSignal.constant([0.0])
    with pytest.raises(Exception, match="refused"):
        solve_itp(m, phi, 2.0)


def test_admissible_history_solvable_on_first_interval():
    # every non-advanced builtin with an admissible history completes [0, tau)
    from ddaekit.sfdae import admissible, classify
    cases = [models.pmsd_hybrid_shifted(), models.pmsd_coupled(),
             models.ex_shift_model(0.5), delayed_ode(1.0)]
    for m in cases:
        assert classify(m).s <= 1
        phi = (m.default_history() if m.default_history
               else SymbolicSignal.constant([1.0]))
        ok, _ = admissible(m, phi)
        assert ok
        tr = solve_itp(m, phi, m.tau)
        assert tr.complete
        assert tr.segments[0].stats["max_stage_cond"] > 0.0


def test_stage_condition_covers_every_step():
    # the controller varies h within a segment, so a condition taken only
    # at segment starts and after halvings misses the worst step
    m = models.pmsd_coupled()
    tr = solve_itp(m, m.default_history(), 1.0)
    assert tr.complete
    assert tr.stats["max_stage_cond"] > 1e5


def test_tau_sweep_zero_coupling_gives_zero_deviation(rng):
    # A1 = 0: the shifted system equals the coupled one for every tau
    E1 = np.eye(1)
    A1 = np.array([[-1.0]])
    s1 = LtiDescriptor(E1, A1, np.zeros((1, 1)), np.ones((1, 1)))
    s2 = LtiDescriptor(E1, A1, np.ones((1, 1)), np.ones((1, 1)))

    def wrap(tau):
        model = sf_model_from_linear(hybrid_shifted(s1, s2, tau))
        model.default_history = lambda: SymbolicSignal.constant([1.0, 0.5])
        return model

    ref = sweep_reference(wrap(0.7), 1.5)
    for tau in (0.5, 0.25):
        traj, dev = sweep_deviation(wrap(tau), ref, 1.5)
        assert traj.complete
        assert dev <= 1e-9


def test_tau_sweep_pmsd_short_horizon():
    p = models.PmsdParams()
    ref = sweep_reference(models.pmsd_coupled(p, theta0=0.1), 0.4)
    devs = [sweep_deviation(models.pmsd_hybrid_shifted(
                models.PmsdParams(tau=tau), theta0=0.1), ref, 0.4)[1]
            for tau in (0.1, 0.05)]
    assert devs[0] > devs[1] > 0.0


def _two_segment_history():
    # ex-advanced (x = y(t - 1), y = y'(t - 1)) from x = -1, y = 2t + t^2:
    # y = 2t on [0, 1] and y = 2 on [1, 2], so segments 1 and 2 start
    # consistently, but y' jumps from 2 to 0 at t = 1 and segment 3 cannot
    return (models.ex_advanced_model(1.0),
            SymbolicSignal(poly=[[-1.0], [0.0, 2.0, 1.0]]))


def test_breakdown_at_a_later_segment_reads_the_right_limit():
    m, phi = _two_segment_history()
    tr = solve_itp(m, phi, 3.0)
    assert tr.status == BROKE_DOWN
    assert tr.breakdown_index == 3
    assert len(tr.segments) == 2
    np.testing.assert_allclose(tr.breakdown_residual, [0.0, 2.0], atol=1e-9)


def test_breakpoint_within_rounding_takes_the_right_segment():
    m, phi = _two_segment_history()
    tr = solve_itp(m, phi, 2.0)
    assert tr.complete
    right = evaluate(tr, 1.0, 1)
    np.testing.assert_allclose(right, [2.0, 0.0], atol=1e-9)
    for t in (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
        np.testing.assert_allclose(evaluate(tr, t, 1), right, atol=1e-12)
    np.testing.assert_allclose(evaluate(tr, 0.999, 1), [1.998, 2.0], atol=1e-9)


def test_segment_starts_are_checked_once(monkeypatch):
    # integrate_segment is the only consistency check of a segment start
    starts = []
    residual = SfDdaeModel.algebraic_residual

    def counted(model, t, z, zlags):
        starts.append(t)
        return residual(model, t, z, zlags)

    monkeypatch.setattr(SfDdaeModel, "algebraic_residual", counted)
    m = models.pmsd_hybrid_shifted()
    assert solve_itp(m, m.default_history(), 3 * m.tau).complete
    assert starts == [0.0, m.tau, 2 * m.tau]
    starts.clear()
    m = models.ex_advanced_model(1.0)
    assert solve_itp(m, m.default_history(), 3.0).breakdown_index == 2
    assert starts == [0.0, 1.0]


def _mesh(tr):
    return np.concatenate([tr.segments[0].ts[:1],
                           *(np.asarray(seg.ts[1:]) for seg in tr.segments)])


def test_default_step_pmsd_hybrid_is_residual_controlled():
    m = models.pmsd_hybrid_shifted()
    opts = IntegrationOptions()
    tr = solve_itp(m, m.default_history(), 2.0, opts)
    assert tr.complete
    assert tr.stats["steps"] <= 2000     # the floor tau/200 would take 8000
    assert tr.stats["rejected"] == sum(seg.stats["rejected"]
                                       for seg in tr.segments)
    _, full, _, _ = audit(tr, 1000)
    assert full.max() <= opts.res_tol
    # every multiple of tau is a mesh point
    mesh = _mesh(tr)
    for k in range(41):
        assert np.abs(mesh - k * m.tau).min() <= 1e-12
    # only a segment's last step, cut at its end, is finer than the floor
    floor = m.tau / STEPS_PER_SEGMENT
    for seg in tr.segments:
        assert np.all(np.diff(seg.ts)[:-1] >= floor * (1 - 1e-9))
    again = solve_itp(m, m.default_history(), 2.0, opts)
    assert np.array_equal(_mesh(again), mesh)
    for a, b in zip(tr.segments, again.segments):
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.stats == b.stats


def test_default_step_sweep_matches_fixed_step_sweep():
    # the criterion-8 sweep, against the same sweep at h = tau/200
    p0 = models.PmsdParams()
    base = dict(M=p0.M, C=p0.C, K=p0.K, m=p0.m, L=p0.L, g=p0.g)
    taus = (0.1, 0.05, 0.025)

    def deviations(fixed):
        def opts(tau):
            return IntegrationOptions(
                h=tau / STEPS_PER_SEGMENT if fixed else None)
        ref = sweep_reference(models.pmsd_coupled(p0, theta0=0.1), 2.0,
                              opts(p0.tau))
        return np.array([sweep_deviation(models.pmsd_hybrid_shifted(
            models.PmsdParams(tau=tau, **base), theta0=0.1), ref, 2.0,
            opts(tau))[1] for tau in taus])

    default, fixed = deviations(False), deviations(True)
    assert default[0] > default[1] > default[2] > 0.0
    np.testing.assert_allclose(default, fixed, rtol=0, atol=1e-9)


def _forced_linear(d, tau, amp, omega):
    """A linear DDAE with sinusoidal forcing and its history: d = 0 is
    x = x(t - tau) / 2 + amp sin(omega t) from x = 0; d = 1 is the shifted
    solution-space example with sinusoids in both f and g."""
    if d == 0:
        f = SymbolicSignal(sin=[[(amp, omega, 0.0)]])
        lin = LinearDdae(np.zeros((1, 1)), -np.eye(1), 0.5 * np.eye(1),
                         tau, f)
        return sf_model_from_linear(lin), SymbolicSignal.constant([0.0])
    f = SymbolicSignal(poly=[[0.3, 0.1]], sin=[[(amp, omega, 0.4)]])
    g = SymbolicSignal(poly=[[1.0, -0.5]], sin=[[(amp, omega / 2, 0.0)]])
    model = sf_model_from_linear(models.ex_shift_linear(tau, f=f, g=g))
    history = SymbolicSignal(poly=[[0.2]]).stack(g.shift(tau))
    return model, history


@pytest.mark.parametrize("d, amp, omega", [
    (0, 0.3, 6.0), (0, 0.5, 20.0), (0, 1.0, 60.0),
    (1, 0.3, 6.0), (1, 0.5, 20.0)])
def test_default_step_keeps_the_audit_or_the_floor(d, amp, omega):
    m, phi = _forced_linear(d, 0.5, amp, omega)
    assert (m.d, m.a) == (d, 1)
    opts = IntegrationOptions()
    tr = solve_itp(m, phi, 2.0, opts)
    assert tr.complete
    floor = m.tau / STEPS_PER_SEGMENT
    assert tr.stats["steps"] <= 4 * STEPS_PER_SEGMENT
    assert tr.stats["rejected"] <= 0.05 * tr.stats["steps"]
    ts, full, _, _ = audit(tr, 1000)
    # an audit point above res_tol lies in a step at the floor
    mesh = _mesh(tr)
    for t in ts[full > opts.res_tol]:
        k = min(np.searchsorted(mesh, t, side="right"), len(mesh) - 1)
        assert mesh[k] - mesh[k - 1] <= floor * (1 + 1e-9)


def test_debug_log_tells_each_segment(caplog):
    m = models.pmsd_hybrid_shifted()
    with caplog.at_level(logging.DEBUG, logger="ddaekit.steps"):
        tr = solve_itp(m, m.default_history(), 3 * m.tau)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "ddaekit.steps"]
    assert len(lines) == 3
    for i, (line, seg) in enumerate(zip(lines, tr.segments), start=1):
        st = seg.stats
        hs = np.diff(seg.ts)
        assert line == (
            f"segment {i}: {st['n_steps']} steps, {st['rejected']} rejected, "
            f"{st['newton_iterations']} Newton iterations, "
            f"h {hs.min():.3g} to {hs.max():.3g}, "
            f"start residual {st['start_residual']:.3g}")


@settings(max_examples=20)
@given(d=st.sampled_from([0, 1]), tau=st.floats(0.2, 1.0),
       amp=st.floats(0.05, 1.0), omega=st.floats(1.0, 40.0),
       delta=st.floats(1e-10, 1e-6))
def test_lag_reads_are_continuous_across_breakpoints(d, tau, amp, omega,
                                                     delta):
    m, phi = _forced_linear(d, tau, amp, omega)
    tr = solve_itp(m, phi, 3 * tau)
    assert tr.complete
    for seg, after in zip(tr.segments, tr.segments[1:]):
        # t is a lag time at which a segment reads the breakpoint b
        b = seg.t_end
        t = b + tau
        left = evaluate(tr, t - delta - tau, 0)
        right = evaluate(tr, t + delta - tau, 0)
        slope = (np.abs(evaluate(tr, t - delta - tau, 1))
                 + np.abs(evaluate(tr, t + delta - tau, 1)))
        assert np.all(np.abs(left - right)
                      <= 2 * delta * slope + 1e-12 * (1 + np.abs(right)))
        # the breakpoint itself reads the right segment's start, which is
        # the left segment's end
        at = evaluate(tr, t - tau, 0)
        assert at.tobytes() == after.eval(t - tau).tobytes()
        end = seg.eval(b)
        assert np.all(np.abs(at - end) <= 1e-12 * (1 + np.abs(at)))


# -- grid reads ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _grid_case(name):
    """Trajectories of n = 1, 2 and 7, two of them broken down and one of
    100 segments."""
    if name == "delayed-ode":
        return solve_itp(delayed_ode(1.0), SymbolicSignal.constant([1.0]), 2.3)
    if name == "forced-shift":
        m, phi = _forced_linear(1, 0.5, 0.5, 20.0)
        return solve_itp(m, phi, 1.3)
    if name == "pmsd-hybrid":
        m = models.pmsd_hybrid_shifted()
        return solve_itp(m, m.default_history(), 3.2 * m.tau)
    if name == "pmsd-hybrid-short-delay":
        m = models.REGISTRY["pmsd-hybrid"].make({"tau": 0.005})
        return solve_itp(m, m.default_history(), 0.5)
    if name == "broke-down-first":
        m = models.ex_advanced_model(1.0)
        return solve_itp(m, m.default_history(), 3.0)
    return solve_itp(*_two_segment_history(), 3.0)


GRID_CASES = ["delayed-ode", "forced-shift", "pmsd-hybrid",
              "pmsd-hybrid-short-delay", "broke-down-first",
              "broke-down-later"]


def _segment_oracle(tr, t):
    """1-based index of the last segment whose start is at or before
    t + 1e-12 max(1, t), found by looking at every segment."""
    slack = 1e-12 * max(t, 1.0)
    return max(i for i, seg in enumerate(tr.segments, start=1)
               if t >= seg.ts[0] - slack)


def _point_read(tr, t, order=0):
    """One read at time t in [-tau, t_end + slack], point by point: the
    history's ``eval`` before 0 or without segments, else the
    ``SegmentSolution.eval`` of the oracle's segment."""
    t = min(t, tr.t_end)
    if t < 0.0 or not tr.segments:
        return tr.history.eval(t, order)
    return tr.segments[_segment_oracle(tr, t) - 1].eval(t, order)


@settings(max_examples=60)
@given(case=st.sampled_from(GRID_CASES), order=st.sampled_from([0, 1]),
       data=st.data())
def test_grid_reads_equal_scalar_reads_bit_for_bit(case, order, data):
    tr = _grid_case(case)
    tau, t_end = tr.model.tau, tr.t_end
    slack = 1e-9 * max(1.0, t_end)
    special = [-tau, 0.0, t_end - slack, t_end + slack / 2, t_end + slack]
    for b in tr.breakpoints:
        edge = b - 1e-12 * max(b, 1.0)
        special += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                    edge, np.nextafter(edge, -np.inf),
                    np.nextafter(edge, np.inf), b + 1e-13]
    special = [t for t in special if -tau <= t <= t_end + slack]
    times = data.draw(st.lists(st.one_of(
        st.sampled_from(special),
        st.floats(-tau, 0.0, exclude_max=True),
        st.floats(0.0, t_end)), min_size=1, max_size=40))
    ts = np.array(times)
    scalar = np.array([_point_read(tr, t, order) for t in times])
    assert evaluate_grid(tr, ts, order).tobytes() == scalar.tobytes()
    # the segment rule itself, on the times the segments are read at
    read = np.minimum(ts[ts >= 0.0], t_end)
    assert (tr.segment_indices(read).tolist()
            == [_segment_oracle(tr, t) for t in read])


def test_grid_read_outside_the_domain_raises_the_scalar_error():
    tr = _grid_case("delayed-ode")
    for bad in ([0.5, 2.5, -1.5], [0.5, -1.5, 2.5], [np.nan]):
        ts = np.array(bad)
        with pytest.raises(ValueError) as scalar:
            for t in ts:
                evaluate(tr, t)
        with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
            evaluate_grid(tr, ts)
    with pytest.raises(ValueError):
        evaluate_grid(tr, np.array([0.5]), 2)


def _scalar_audit(tr, n_points):
    """The audit as one point read per point and one ``evaluate`` per lag
    row."""
    m = tr.model
    ts = np.linspace(0.0, tr.t_end, n_points, endpoint=tr.complete)
    full, alg, states = np.empty(n_points), np.empty(n_points), []
    for j, t in enumerate(ts):
        z = _point_read(tr, t)
        states.append(z)
        zlags = np.stack([evaluate(tr, t - m.tau, k)
                          for k in range(m.n_lags)])
        r = m.residual(t, z, _point_read(tr, t, 1), zlags)
        full[j] = np.abs(r).max() if r.size else 0.0
        alg[j] = np.abs(r[m.d:]).max() if r[m.d:].size else 0.0
    return ts, full, alg, np.array(states)


@pytest.mark.parametrize("case", GRID_CASES)
def test_audit_equals_scalar_reads_and_makes_none(case, monkeypatch):
    tr = _grid_case(case)
    expected = _scalar_audit(tr, 777)
    reads = []
    scalar_evaluate, dense_eval = steps.evaluate, SegmentSolution.eval
    monkeypatch.setattr(steps, "evaluate", lambda *a: reads.append(a)
                        or scalar_evaluate(*a))
    monkeypatch.setattr(SegmentSolution, "eval", lambda seg, *a:
                        reads.append(a) or dense_eval(seg, *a))
    got = audit(tr, 777)
    # the trajectory is read through its one mesh, never point by point
    # nor one segment at a time
    assert reads == []
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def test_a_grid_read_makes_one_history_read_and_no_segment_read(
        monkeypatch):
    tr = _grid_case("pmsd-hybrid-short-delay")
    assert len(tr.segments) == 100 and tr.stats["steps"] == 337
    calls = []
    signal_eval, dense_eval = SymbolicSignal.eval, SegmentSolution.eval
    monkeypatch.setattr(SymbolicSignal, "eval", lambda sig, *a:
                        calls.append("history") or signal_eval(sig, *a))
    monkeypatch.setattr(SegmentSolution, "eval", lambda seg, *a:
                        calls.append("segment") or dense_eval(seg, *a))
    ts = np.linspace(-tr.model.tau, tr.t_end, 1000)
    for order in (0, 1):
        for times, expected in ((ts, ["history"]), (ts[ts >= 0.0], [])):
            calls.clear()
            evaluate_grid(tr, times, order)
            assert calls == expected


SIMULATABLE = sorted(name for name, entry in models.REGISTRY.items()
                     if isinstance(entry.make(), SfDdaeModel))


def _point_axis_case(name):
    """(model, history): a simulatable registry model, the linear wrap of
    ``ex_shift_linear`` (d = 1) and of x = x(t - tau) / 2 + f (d = 0), both
    forced by sinusoids, or the a = 0 test model."""
    if name in SIMULATABLE:
        m = models.REGISTRY[name].make()
        return m, m.default_history()
    if name == "delayed-ode":
        return delayed_ode(0.5), SymbolicSignal(poly=[[1.0, -0.3]])
    return _forced_linear(int(name == "linear-shift"), 0.5, 0.5, 20.0)


@pytest.mark.parametrize(
    "name", [*SIMULATABLE, "linear-shift", "linear-d0", "delayed-ode"])
def test_audit_point_axis_equals_per_point_residuals(name, monkeypatch):
    m, phi = _point_axis_case(name)
    tr = solve_itp(m, phi, 2.5 * m.tau)
    ts = np.linspace(0.0, tr.t_end, 501, endpoint=tr.complete)
    states, rates = evaluate_grid(tr, ts), evaluate_grid(tr, ts, 1)
    lags = np.stack([evaluate_grid(tr, ts - m.tau, k)
                     for k in range(m.n_lags)], axis=1)
    rows = [np.abs(m.residual(t, states[j], rates[j], lags[j]))
            for j, t in enumerate(ts)]
    full = [r.max(initial=0.0) for r in rows]
    alg = [r[m.d:].max(initial=0.0) for r in rows]
    calls = []
    residual = SfDdaeModel.residual
    monkeypatch.setattr(SfDdaeModel, "residual",
                        lambda *a: calls.append(a) or residual(*a))
    got = audit(tr, 501)
    assert len(calls) == 1
    assert got[0].tobytes() == ts.tobytes()
    assert got[3].tobytes() == states.tobytes()
    np.testing.assert_allclose(got[1], full, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(got[2], alg, rtol=1e-12, atol=1e-14)


def _csv_writer_bytes(tr, audited, path):
    """The export as ``csv.writer`` writes its fields."""
    ts, _, alg, states = audited
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *(f"z_{i + 1}" for i in range(tr.model.n)),
                         "segment_index", "A_residual_norm"])
        for j, (t, i) in enumerate(zip(ts, tr.segment_indices(ts).tolist())):
            writer.writerow([f"{t:.12g}", *(f"{v:.12g}" for v in states[j]),
                             i, f"{alg[j]:.6g}"])
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", ["ex-advanced", "delayed-ode", "ex-shift"])
def test_csv_export_writes_the_bytes_of_csv_writer(name, tmp_path):
    # ex-advanced breaks down; the a = 0 model's residual column holds 0.0
    m, phi = _point_axis_case(name)
    tr = solve_itp(m, phi, 2.5 * m.tau)
    assert tr.complete == (name != "ex-advanced")
    audited = audit(tr, 2 * steps.CSV_CHUNK + 501)
    if name == "delayed-ode":
        assert not audited[2].any()
    write_trajectory_csv(tr, tmp_path / "run.csv", audited)
    got = (tmp_path / "run.csv").read_bytes()
    assert got == _csv_writer_bytes(tr, audited, tmp_path / "want.csv")
    assert got.count(b"\r\n") == 2 * steps.CSV_CHUNK + 502


def _lag_case(case, tau):
    """A model and a history whose run reads lags on several segments; the
    ex-advanced runs break down."""
    if case == "forced-retarded":
        return _forced_linear(0, tau, 0.5, 20.0)
    if case == "forced-shift":
        return _forced_linear(1, tau, 0.3, 6.0)
    if case == "pmsd-hybrid":
        m = models.pmsd_hybrid_shifted(models.PmsdParams(tau=tau / 10))
        return m, m.default_history()
    if case == "ex-advanced":
        m = models.ex_advanced_model(tau)
        return m, m.default_history()
    return _two_segment_history()


@settings(max_examples=15)
@given(case=st.sampled_from(["forced-retarded", "forced-shift", "pmsd-hybrid",
                             "ex-advanced", "two-segment"]),
       tau=st.floats(0.2, 1.0), fixed=st.booleans())
def test_solver_lag_reads_equal_grid_reads_bit_for_bit(case, tau, fixed):
    # a segment i reads z(t - tau) from the trajectory of the i - 1
    # segments before it, exactly as evaluate_grid reads that trajectory
    m, phi = _lag_case(case, tau)
    reads = []
    lags = radau.SegmentProblem.lags

    def recording(problem, t):
        zlags = lags(problem, t)
        if isinstance(t, float):
            reads.append((problem.t_start, t, zlags))
        else:   # an affine model's stage block: one read per column
            reads.extend((problem.t_start, ti, zlags[..., j])
                         for j, ti in enumerate(t.tolist()))
        return zlags

    opts = IntegrationOptions(h=m.tau / 50 if fixed else None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radau.SegmentProblem, "lags", recording)
        tr = solve_itp(m, phi, 3 * m.tau, opts)
    starts = sorted({start for start, _, _ in reads})
    assert len(starts) == len(tr.segments) + (not tr.complete)
    for i, start in enumerate(starts, start=1):
        before = Trajectory(m, phi, tr.segments[:i - 1])
        ts = [t for s, t, _ in reads if s == start]
        got = np.array([zlags for s, _, zlags in reads if s == start])
        lag_ts = np.array([t - m.tau for t in ts])
        want = np.stack([evaluate_grid(before, lag_ts, k)
                         for k in range(m.n_lags)], axis=1)
        assert got.tobytes() == want.tobytes()


def test_solver_makes_no_trajectory_reads(monkeypatch):
    calls = []
    read, read_grid = steps.evaluate, steps.evaluate_grid
    monkeypatch.setattr(steps, "evaluate", lambda *a: calls.append(a)
                        or read(*a))
    monkeypatch.setattr(steps, "evaluate_grid", lambda *a: calls.append(a)
                        or read_grid(*a))
    for m, phi, T in [(*_forced_linear(1, 0.5, 0.5, 20.0), 1.3),
                      (*_two_segment_history(), 3.0)]:
        assert len(solve_itp(m, phi, T).segments) >= 2
    assert calls == []


@pytest.mark.parametrize("name", [
    "ex-shift-tau0.5-h0.001", "ex-shift-tau0.37", "pmsd-hybrid-h0.0007",
    "linear-export-h0.001", "linear-export-sin-history"])
def test_every_segment_ends_at_its_breakpoint(name):
    # the loop adds t + h + h + ..., which can fall short of the segment
    # end by rounding; the step that ends within that slack ends at it
    build, T, h = next((build, T, h) for run, build, T, h, _
                       in output_digest.runs() if run == name)
    m, phi = build()
    tr = solve_itp(m, phi, T, IntegrationOptions(h=h))
    ends = [min(i * m.tau, T) for i in range(1, len(tr.segments) + 1)]
    assert [seg.ts[-1] for seg in tr.segments] == ends
    assert tr.breakpoints == [0.0, *ends]


def _count_factorizations(monkeypatch):
    """Record the h of every ``_newton_factors`` call and, per segment, of
    every attempted step, by either step rule."""
    factors, attempts = [], []
    newton_factors, solve_step = radau._newton_factors, radau._solve_step
    affine_step = radau._AffineSteps.__call__
    integrate = steps.integrate_segment

    def counted_factors(Fz, Fdot, h):
        factors.append(h)
        return newton_factors(Fz, Fdot, h)

    def counted(step):
        def call(first, t0, h, *rest):
            attempts[-1].append(h)
            return step(first, t0, h, *rest)
        return call

    def counted_segment(*args):
        attempts.append([])
        return integrate(*args)

    monkeypatch.setattr(radau, "_newton_factors", counted_factors)
    monkeypatch.setattr(radau, "_solve_step", counted(solve_step))
    monkeypatch.setattr(radau._AffineSteps, "__call__", counted(affine_step))
    monkeypatch.setattr(steps, "integrate_segment", counted_segment)
    return factors, attempts


@pytest.mark.parametrize("name", [
    "linear-export", "linear-export-h0.001", "linear-export-sin-history",
    "pmsd-hybrid-h0.001", "ex-shift-tau0.37-h0.001"])
def test_the_last_step_of_a_segment_is_not_clipped_by_rounding(
        name, monkeypatch):
    # t + h + h + ... can end a few ulps past the segment end; that step
    # keeps its h, where clipping it to t_end - t cost a fresh inversion
    build, T, h = next((build, T, h) for run, build, T, h, _
                       in output_digest.runs() if run == name)
    m, phi = build()
    _, attempts = _count_factorizations(monkeypatch)
    tr = solve_itp(m, phi, T, IntegrationOptions(h=h))
    assert tr.complete and len(attempts) == len(tr.segments)
    slack = 1e-12 * max(1.0, T)
    for hs in attempts:
        assert len(hs) < 2 or hs[-1] == hs[-2] or abs(hs[-1] - hs[-2]) > slack


def _shifted_wrap(amp, omega):
    """The shifted example with two sinusoids in f, and its history."""
    f = SymbolicSignal(poly=[[0.2, 0.05]], sin=[[(amp, omega, 1.0),
                                                 (0.2, omega / 1.5, 2.0)]])
    g = SymbolicSignal(poly=[[1.0, 0.1, 0.01]])
    m = sf_model_from_linear(models.ex_shift_linear(0.5, f=f, g=g))
    return m, SymbolicSignal(poly=[[0.2, 0.1]]).stack(g.shift(0.5))


@pytest.mark.parametrize("amp, omega", [(0.5, 20.0), (0.2, 6.0), (0.4, 15.0)])
def test_linear_wrap_factors_once_per_run_and_changed_step(
        amp, omega, monkeypatch):
    # the (0.2, 6.0) draw rejects steps, so h changes within its
    # segments; the other two stay at the floor
    m, phi = _shifted_wrap(amp, omega)
    factors, attempts = _count_factorizations(monkeypatch)
    reads = dict.fromkeys(("JD_z", "JD_zdot", "JA_z"), 0)

    def counted(name, jacobian):
        def call(*args):
            reads[name] += 1
            return jacobian(*args)
        return call

    for name in reads:
        setattr(m, name, counted(name, getattr(m, name)))
    tr = solve_itp(m, phi, 2.0)
    # constant Jacobians: each is read once per run, and the stage matrix
    # is inverted once for each distinct h the run attempts
    assert len(factors) == len({h for hs in attempts for h in hs})
    assert len(factors) < 0.1 * tr.stats["steps"]
    assert set(reads.values()) == {1}
    assert len(tr.segments) == 4


# (model, history, T, h) of affine runs: at the floor with rejected steps,
# at the floor, at a fixed h, and off the floor
AFFINE_RUNS = {"shifted-wrap": (*_shifted_wrap(0.2, 6.0), 2.0, None),
               "linear-export": (*output_digest.linear_export_model(), 10.0,
                                 None),
               "linear-export-h0.001": (*output_digest.linear_export_model(),
                                        2.0, 0.001),
               "linear-smooth": (*output_digest.linear_smooth_model(), 10.0,
                                 None)}
# callback runs of the paper's hybrid case, at the floor and at a fixed h
_PMSD = models.REGISTRY["pmsd-hybrid"].make()
CALLBACK_RUNS = {"pmsd-hybrid": (_PMSD, _PMSD.default_history(), 0.5, None),
                 "pmsd-hybrid-h0.001": (_PMSD, _PMSD.default_history(), 0.5,
                                        0.001)}
RUNS = {**AFFINE_RUNS, **CALLBACK_RUNS}


def _assert_same_segments(a, b):
    """The segments of two trajectories agree bit for bit in mesh, stats
    and cubics."""
    for x, y in zip(a.segments, b.segments, strict=True):
        assert x.ts == y.ts
        assert x.stats == y.stats
        assert x.coeffs.tobytes() == y.coeffs.tobytes()


@pytest.mark.parametrize("name", RUNS)
def test_an_affine_run_leaves_nothing_to_the_next_run(name):
    # the step rule of either kind lives for one run: a second run of the
    # same model solves, counts and reports exactly what the first did
    m, phi, T, h = RUNS[name]
    opts = IntegrationOptions(h=h)
    first, second = (solve_itp(m, phi, T, opts) for _ in range(2))
    assert first.stats == second.stats
    _assert_same_segments(first, second)


@pytest.mark.parametrize("name", RUNS)
def test_each_segment_reports_the_stage_condition_of_its_own_steps(
        name, monkeypatch):
    # a record kept from an earlier segment still enters the stage
    # condition of every segment that steps at its h: the same value as a
    # fresh step rule in every segment reports.  A callback rule starts
    # every segment cold, so there the whole run is the fresh rules' run.
    m, phi, T, h = RUNS[name]
    opts = IntegrationOptions(h=h)
    kept = solve_itp(m, phi, T, opts)
    integrate = steps.integrate_segment
    monkeypatch.setattr(steps, "integrate_segment",
                        lambda problem, opts, h_start, _: integrate(
                            problem, opts, h_start))
    fresh = solve_itp(m, phi, T, opts)
    assert ([seg.stats["max_stage_cond"] for seg in kept.segments]
            == [seg.stats["max_stage_cond"] for seg in fresh.segments])
    if name in CALLBACK_RUNS:
        _assert_same_segments(kept, fresh)


@pytest.mark.parametrize("name", AFFINE_RUNS)
def test_runs_of_block_steps_take_what_the_per_step_loop_takes(
        name, monkeypatch):
    # the reference takes every step through the per-step path, as a run
    # of one; the runs must make its decisions, so mesh, stats and cubics
    # agree bit for bit, while at a fixed h or at the floor nearly every
    # step comes in a run
    m, phi, T, h = AFFINE_RUNS[name]
    opts = IntegrationOptions(h=h)
    lengths = []
    run = radau._AffineSteps.run

    def counted(self, whole):
        taken = run(self, whole)
        lengths.append(len(taken[0]))
        return taken

    monkeypatch.setattr(radau._AffineSteps, "run", counted)
    sliced = solve_itp(m, phi, T, opts)
    monkeypatch.setattr(radau._AffineSteps, "run",
                        lambda self, whole: run(self, False))
    single = solve_itp(m, phi, T, opts)
    _assert_same_segments(sliced, single)
    taken = sum(n for n in lengths if n > 1)
    if name == "linear-smooth":
        assert taken == 0
    else:
        assert taken > 0.9 * sliced.stats["steps"]


@pytest.mark.parametrize("name", AFFINE_RUNS)
def test_segment_counts_sum_to_the_run_totals(name):
    # the steps a run takes in one slice count in their segment: one step
    # per mesh interval and one iteration per attempt
    m, phi, T, h = AFFINE_RUNS[name]
    tr = solve_itp(m, phi, T, IntegrationOptions(h=h))
    # the shifted-wrap run is labelled as the one with rejected steps
    assert tr.stats["rejected"] > 0 or name != "shifted-wrap"
    segs = [seg.stats for seg in tr.segments]
    for seg, st in zip(tr.segments, segs):
        assert st["n_steps"] == len(seg.ts) - 1
        assert st["newton_iterations"] == st["n_steps"] + st["rejected"]
    for key, total in (("n_steps", "steps"),
                       ("newton_iterations", "newton_iterations"),
                       ("halvings", "halvings")):
        assert sum(st[key] for st in segs) == tr.stats[total]


def test_a_step_solved_but_not_taken_never_feeds_the_next_attempt(
        monkeypatch):
    # linear-smooth rejects steps under the controller.  Its callback path
    # (the affine flag cleared) starts each Newton from the last step
    # ``run`` took, or from zero at a segment start; its affine path serves
    # a block's step only from the state the loop took at its start.  On
    # both, ``run`` takes first the step just solved.
    events = []
    solve_step = radau._solve_step
    newton_start, newton_run = radau._NewtonSteps.start, radau._NewtonSteps.run
    affine_step = radau._AffineSteps.__call__
    affine_run = radau._AffineSteps.run

    def recorded_solve(model, t0, h, z_prev, k_guess, *rest):
        starts = np.broadcast_to(k_guess, (3, model.n)).copy()
        result = solve_step(model, t0, h, z_prev, k_guess, *rest)
        events.append(("solve", t0, h, starts, result))
        return result

    def recorded_start(self, *args):
        events.append(("start",))
        return newton_start(self, *args)

    def served(self, t0, h, z_prev):
        result = affine_step(self, t0, h, z_prev)
        k = self.k
        if result is not None and k > 0:
            assert self.ends[k - 1] == t0
            assert np.array_equal(self.z[k], z_prev)
        events.append(("solve", t0, h, None, result))
        return result

    def recorded_run(run):
        def call(self, whole):
            taken = run(self, whole)
            events.append(("run", [v[0] for v in taken]))
            return taken
        return call

    monkeypatch.setattr(radau, "_solve_step", recorded_solve)
    monkeypatch.setattr(radau._NewtonSteps, "start", recorded_start)
    monkeypatch.setattr(radau._NewtonSteps, "run", recorded_run(newton_run))
    monkeypatch.setattr(radau._AffineSteps, "__call__", served)
    monkeypatch.setattr(radau._AffineSteps, "run", recorded_run(affine_run))
    for affine in (False, True):
        m, phi = output_digest.linear_smooth_model()
        m.affine = affine
        events.clear()
        tr = solve_itp(m, phi, 10.0)
        assert tr.complete and tr.stats["rejected"] > 0
        # (t0, h, result) of the step run took last, of the step solved since
        last = solved = None
        after_untaken = 0
        for kind, *data in events:
            if kind == "start":
                last = solved = None
            elif kind == "solve":
                t0, h, starts, result = data
                if starts is not None:    # a Newton start
                    want = (np.zeros_like(starts) if last is None else
                            radau._start_weights(h / last[1]) @ last[2][4])
                    assert np.array_equal(starts, want)
                after_untaken += solved is not None
                if result is not None:
                    solved = t0, h, result
            else:
                (end, z1, d0, d1), (t0, h, result) = data[0], solved
                assert end == t0 + h
                for got, want in zip((z1, d0, d1), result):
                    assert np.array_equal(got, want)
                last, solved = solved, None
        assert after_untaken >= tr.stats["rejected"]


def test_nonlinear_model_factors_once_per_refreshed_record(monkeypatch):
    # a callback step keeps the last Jacobians and factors while h repeats
    # and Newton converges fast; each refresh of that record is one
    # Jacobian read and one factorization, besides the one Jacobian read
    # of each segment start's rank spot-check
    factors, _ = _count_factorizations(monkeypatch)
    jacobians = []
    read = radau._jacobians
    monkeypatch.setattr(radau, "_jacobians",
                        lambda *args: jacobians.append(args) or read(*args))
    m = models.pmsd_hybrid_shifted()
    tr = solve_itp(m, m.default_history(), 0.5)
    assert tr.stats["rejected"] == tr.stats["halvings"] == 0
    assert len(factors) == len(jacobians) - len(tr.segments)
    assert len(factors) < 0.2 * tr.stats["steps"]


def test_nonlinear_model_takes_few_newton_iterations_per_step():
    # each step starts Newton from the last accepted step's cubic, so the
    # paper's hybrid case converges in about two iterations (2.98 with
    # every stage started at the last end derivative)
    m = models.pmsd_hybrid_shifted()
    tr = solve_itp(m, m.default_history(), 2.0)
    assert tr.complete
    assert tr.stats["newton_iterations"] <= 2.3 * tr.stats["steps"]


def test_a_step_failing_on_a_kept_record_is_retried_fresh_before_halving(
        monkeypatch):
    # the first solve on a kept record is made to fail; the same step is
    # then solved at the same h with fresh Jacobians, and nothing is halved
    calls = []
    solve_step = radau._solve_step

    def failing_once(model, t0, h, *rest):
        kept = len(rest) == 6 and rest[5] is not None
        calls.append((t0, h, kept))
        if kept and sum(c[2] for c in calls) == 1:
            return None
        return solve_step(model, t0, h, *rest)

    monkeypatch.setattr(radau, "_solve_step", failing_once)
    m = models.pmsd_hybrid_shifted()
    phi = m.default_history()
    seg = radau.integrate_segment(
        radau.SegmentProblem(m, 0.0, m.tau, phi.eval(0.0), phi))
    first = next(i for i, c in enumerate(calls) if c[2])
    assert calls[first + 1] == (calls[first][0], calls[first][1], False)
    assert seg.stats["halvings"] == 0


def test_every_controlled_step_is_a_ladder_rung_or_a_segment_end_clip(
        monkeypatch):
    # the controller rounds its proposal down to h_floor 2^(k/8), each rung
    # built from k alone, so a step size repeats exactly; only a step cut
    # at its segment's end is off the ladder
    problems, attempts = [], []
    integrate, solve_step = steps.integrate_segment, radau._solve_step
    affine_step = radau._AffineSteps.__call__

    def recording_integrate(problem, *args):
        problems.append(problem)
        return integrate(problem, *args)

    def recorded(step):
        def call(first, t0, h, *rest):
            attempts.append((problems[-1], t0, h))
            return step(first, t0, h, *rest)
        return call

    monkeypatch.setattr(steps, "integrate_segment", recording_integrate)
    monkeypatch.setattr(radau, "_solve_step", recorded(solve_step))
    monkeypatch.setattr(radau._AffineSteps, "__call__",
                        recorded(affine_step))
    m = models.pmsd_hybrid_shifted()
    runs = [(m, m.default_history(), 1.0),
            (*output_digest.linear_smooth_model(), 2.0)]
    rungs = clips = 0
    for model, phi, T in runs:
        attempts.clear()
        tr = solve_itp(model, phi, T)
        assert tr.complete and tr.stats["halvings"] == 0
        for problem, t0, h in attempts:
            length = problem.t_end - problem.t_start
            floor = length / radau.fit_steps(
                length, model.tau / STEPS_PER_SEGMENT)
            k = round(8.0 * np.log2(h / floor))
            if k >= 0 and h == floor * 2.0 ** (k / 8):
                rungs += 1
            else:
                assert h == problem.t_end - t0
                clips += 1
    assert rungs > 10 * clips > 0
