import functools
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddaekit import models, radau, steps
from ddaekit.errors import InadmissibleHistory, ShapeError
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import (LinearDdae, LtiDescriptor, hybrid_shifted,
                         sf_model_from_linear)
from ddaekit.pencil import weierstrass
from ddaekit.radau import (CONSISTENCY_TOL, STEPS_PER_SEGMENT,
                           IntegrationOptions, SegmentSolution)
from ddaekit.sfdae import SfDdaeModel
from ddaekit.steps import (BROKE_DOWN, Trajectory, audit, evaluate,
                           evaluate_grid, solve_itp, sweep_deviation,
                           sweep_reference)

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
    for b in tr.breakpoints[1:-1]:
        t = b + tau
        left, right = tr.delayed(t - delta, 0), tr.delayed(t + delta, 0)
        slope = (np.abs(tr.delayed(t - delta, 1))
                 + np.abs(tr.delayed(t + delta, 1)))
        assert np.all(np.abs(left - right)
                      <= 2 * delta * slope + 1e-12 * (1 + np.abs(right)))
        # the breakpoint itself reads the right segment's start, which is
        # the left segment's end
        at = tr.delayed(t, 0)
        end = tr.segments[tr.segment_index(b) - 2].eval(b)
        assert np.all(np.abs(at - end) <= 1e-12 * (1 + np.abs(at)))


# -- grid reads ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _grid_case(name):
    """Trajectories of n = 1, 2 and 7, two of them broken down."""
    if name == "delayed-ode":
        return solve_itp(delayed_ode(1.0), SymbolicSignal.constant([1.0]), 2.3)
    if name == "forced-shift":
        m, phi = _forced_linear(1, 0.5, 0.5, 20.0)
        return solve_itp(m, phi, 1.3)
    if name == "pmsd-hybrid":
        m = models.pmsd_hybrid_shifted()
        return solve_itp(m, m.default_history(), 3.2 * m.tau)
    if name == "broke-down-first":
        m = models.ex_advanced_model(1.0)
        return solve_itp(m, m.default_history(), 3.0)
    return solve_itp(*_two_segment_history(), 3.0)


GRID_CASES = ["delayed-ode", "forced-shift", "pmsd-hybrid",
              "broke-down-first", "broke-down-later"]


@settings(max_examples=60)
@given(case=st.sampled_from(GRID_CASES), order=st.sampled_from([0, 1]),
       data=st.data())
def test_grid_reads_equal_scalar_reads_bit_for_bit(case, order, data):
    tr = _grid_case(case)
    tau, t_end = tr.model.tau, tr.t_end
    slack = 1e-9 * max(1.0, t_end)
    special = [-tau, 0.0, t_end - slack, t_end + slack / 2, t_end + slack]
    for b in tr.breakpoints:
        special += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                    b - 1e-12 * max(b, 1.0), b + 1e-13]
    special = [t for t in special if -tau <= t <= t_end + slack]
    times = data.draw(st.lists(st.one_of(
        st.sampled_from(special),
        st.floats(-tau, 0.0, exclude_max=True),
        st.floats(0.0, t_end)), min_size=1, max_size=40))
    ts = np.array(times)
    scalar = np.array([evaluate(tr, t, order) for t in ts])
    assert evaluate_grid(tr, ts, order).tobytes() == scalar.tobytes()
    # the segment rule itself, on the times the segments are read at
    read = np.minimum(ts[ts >= 0.0], t_end)
    assert (tr.segment_indices(read).tolist()
            == [tr.segment_index(t) for t in read])


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
    """The audit as one ``evaluate`` per point and lag row."""
    m = tr.model
    ts = np.linspace(0.0, tr.t_end, n_points, endpoint=tr.complete)
    full, alg, states = np.empty(n_points), np.empty(n_points), []
    for j, t in enumerate(ts):
        z = evaluate(tr, t)
        states.append(z)
        zlags = np.stack([tr.delayed(t, k) for k in range(m.n_lags)])
        r = m.residual(t, z, evaluate(tr, t, 1), zlags)
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
    monkeypatch.setattr(SegmentSolution, "eval", lambda *a: reads.append(a)
                        or dense_eval(*a))
    got = audit(tr, 777)
    assert reads == []
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def _count_factorizations(monkeypatch):
    """Record the h of every ``_newton_factors`` call and, per segment, of
    every attempted step."""
    factors, attempts = [], []
    newton_factors, solve_step = radau._newton_factors, radau._solve_step
    integrate = steps.integrate_segment

    def counted_factors(Fz, Fdot, h):
        factors.append(h)
        return newton_factors(Fz, Fdot, h)

    def counted_step(model, t0, h, *rest):
        attempts[-1].append(h)
        return solve_step(model, t0, h, *rest)

    def counted_segment(*args):
        attempts.append([])
        return integrate(*args)

    monkeypatch.setattr(radau, "_newton_factors", counted_factors)
    monkeypatch.setattr(radau, "_solve_step", counted_step)
    monkeypatch.setattr(steps, "integrate_segment", counted_segment)
    return factors, attempts


@pytest.mark.parametrize("amp, omega", [(0.5, 20.0), (0.2, 6.0), (0.4, 15.0)])
def test_linear_wrap_factors_once_per_segment_and_changed_step(
        amp, omega, monkeypatch):
    # the shifted example with two sinusoids in f; the last two draws take
    # rejected steps, so h changes within their segments
    f = SymbolicSignal(poly=[[0.2, 0.05]], sin=[[(amp, omega, 1.0),
                                                 (0.2, omega / 1.5, 2.0)]])
    g = SymbolicSignal(poly=[[1.0, 0.1, 0.01]])
    m = sf_model_from_linear(models.ex_shift_linear(0.5, f=f, g=g))
    phi = SymbolicSignal(poly=[[0.2, 0.1]]).stack(g.shift(0.5))
    factors, attempts = _count_factorizations(monkeypatch)
    tr = solve_itp(m, phi, 2.0)
    # constant Jacobians: a new factorization only where a segment starts
    # or h differs from the attempt before
    changes = sum(1 + sum(a != b for a, b in zip(hs, hs[1:]))
                  for hs in attempts)
    assert len(factors) == changes
    assert len(factors) < 0.1 * tr.stats["steps"]


def test_nonlinear_model_factors_once_per_step(monkeypatch):
    factors, _ = _count_factorizations(monkeypatch)
    m = models.pmsd_hybrid_shifted()
    tr = solve_itp(m, m.default_history(), 0.5)
    assert tr.stats["rejected"] == tr.stats["halvings"] == 0
    assert len(factors) == tr.stats["steps"]
