import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddaekit.errors import IllConditioned, ShapeError, SingularPencil
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import (LinearDdae, LtiDescriptor, classify_linear, couple,
                         hybrid_shifted, regularity_theorem_check,
                         sf_model_from_linear)
from ddaekit.pencil import DEFAULT_TOL, is_regular, weierstrass
from ddaekit.radau import IntegrationOptions
from ddaekit.sfdae import Classification, SfDdaeModel, classify
from ddaekit import models, radau, steps
from ddaekit.steps import solve_itp

from conftest import fd_jacobian, signal_term_scale, well_conditioned
from output_digest import linear_export_model, linear_smooth_model


def scalar_integrator():
    """z' = u with unit output."""
    return LtiDescriptor(np.eye(1), np.zeros((1, 1)), np.eye(1), np.eye(1))


def random_subsystem(rng, n, m, p, singular=False):
    E = rng.standard_normal((n, n))
    A = rng.standard_normal((n, n))
    if rng.random() < 0.5:
        E[rng.integers(n)] = 0.0     # descriptor-style rank deficiency
    if singular:
        row = rng.integers(n)
        E[row] = 0.0
        A[row] = 0.0
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    return LtiDescriptor(E, A, B, C)


# -- couple -------------------------------------------------------------------

def test_couple_two_scalar_integrators():
    c = couple(scalar_integrator(), scalar_integrator())
    assert np.array_equal(c.E, np.eye(2))
    assert np.array_equal(c.A, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert c.m == 0 and c.p == 0


def test_couple_reproduces_coupled_index_example(rng):
    vals = dict(a1=0.3, a2=-1.2, b11=0.5, b12=-0.7, c11=1.1, c12=0.9,
                b21=0.2, b22=-0.4, c21=0.6, c22=-1.5)
    s1, s2 = models.ex_coupled_subsystems(**vals)
    c = couple(s1, s2)
    expected_A = np.array([
        [vals["a1"], 0.0, vals["b11"], vals["b12"]],
        [0.0, 1.0, vals["c11"], vals["c12"]],
        [vals["b21"], vals["b22"], vals["a2"], 0.0],
        [vals["c21"], vals["c22"], 0.0, 1.0],
    ])
    assert np.allclose(c.E, np.diag([1.0, 0.0, 1.0, 0.0]))
    assert np.allclose(c.A, expected_A)


def test_couple_reproduces_split_example():
    for c_val in (-1.0, 0.0, 0.7, 2.0):
        s1 = models.ex_split_subsystem1(c_val)
        s2 = models.ex_split_subsystem2()
        full = couple(s1, s2)
        ref = models.ex_split_full(c_val)
        assert np.array_equal(full.E, ref.E)
        assert np.array_equal(full.A, ref.A)


def test_couple_dimension_mismatch():
    s1 = scalar_integrator()
    s2 = LtiDescriptor(np.eye(2), np.zeros((2, 2)), np.ones((2, 2)),
                       np.ones((2, 2)))
    with pytest.raises(ShapeError):
        couple(s1, s2)


# -- hybrid_shifted -----------------------------------------------------------

def test_hybrid_shifted_blocks_and_tau0_substitution(rng):
    s1 = random_subsystem(rng, 3, 2, 1)
    s2 = random_subsystem(rng, 2, 1, 2)
    hd = hybrid_shifted(s1, s2, 0.25)
    cp = couple(s1, s2)
    assert np.array_equal(hd.E, cp.E)
    # moving the delayed block to current time recovers the coupled matrix
    assert np.array_equal(hd.A0 + hd.A1, cp.A)
    assert np.all(hd.A1[:, :s1.n] == 0.0) and np.all(hd.A1[s1.n:] == 0.0)


def test_hybrid_shifted_reproduces_shifted_index_example():
    s1, s2 = models.ex_shifted_subsystems(a=0.3, b=-1.0, c=2.0, d=0.5)
    hd = hybrid_shifted(s1, s2, 1.0)
    N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(hd.E, np.block(
        [[N2, np.zeros((2, 2))], [np.zeros((2, 2)), N2]]))
    assert np.allclose(hd.A0, np.block(
        [[np.eye(2), np.zeros((2, 2))],
         [np.array([[0.3, -1.0], [2.0, 0.5]]), np.eye(2)]]))


def test_hybrid_determinant_factorizes(rng):
    # block lower triangular: det(sE - A0) = det(sE1 - A1) det(sE2 - A2)
    for _ in range(200):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        s1 = random_subsystem(rng, n1, m, p)
        s2 = random_subsystem(rng, n2, p, m)
        hd = hybrid_shifted(s1, s2, 1.0)
        for s in (0.3 + 1.1j, -0.8 + 0.2j, 2.0 + 0.0j):
            lhs = np.linalg.det(s * hd.E - hd.A0)
            rhs = (np.linalg.det(s * s1.E - s1.A)
                   * np.linalg.det(s * s2.E - s2.A))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


def test_zero_coupling_decouples(rng):
    s1 = random_subsystem(rng, 2, 1, 1)
    s1.B[:] = 0.0
    s2 = random_subsystem(rng, 2, 1, 1)
    hd = hybrid_shifted(s1, s2, 1.0)
    assert np.all(hd.A1 == 0.0)


# -- classification -----------------------------------------------------------

def test_classify_advanced_example():
    d = models.ex_advanced_linear(1.0)
    assert classify_linear(d) == Classification(2)


def test_classify_shift_example_retarded():
    d = models.ex_shift_linear(0.5)
    assert classify_linear(d) == Classification(0)


def test_classify_no_delay_retarded(rng):
    E = np.eye(2)
    A0 = rng.standard_normal((2, 2))
    d = LinearDdae(E, A0, np.zeros((2, 2)), 1.0)
    assert classify_linear(d) == Classification(0)


def test_classify_neutral_example():
    # x' = x, 0 = -y + x(t - tau): algebraic row sees the delayed state
    E = np.diag([1.0, 0.0])
    A0 = np.array([[1.0, 0.0], [0.0, -1.0]])
    A1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    d = LinearDdae(E, A0, A1, 1.0)
    assert classify_linear(d) == Classification(1)


def test_classification_equivalence_invariant(rng):
    d0 = models.ex_advanced_linear(1.0)
    base = classify_linear(d0)
    for _ in range(50):
        S = well_conditioned(rng, 2)
        T = well_conditioned(rng, 2)
        d = LinearDdae(S @ d0.E @ T, S @ d0.A0 @ T, S @ d0.A1 @ T, 1.0)
        assert classify_linear(d) == base


def test_classify_singular_current_pencil_raises():
    E = np.diag([1.0, 0.0])
    A0 = np.zeros((2, 2))
    A1 = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(SingularPencil):
        classify_linear(LinearDdae(E, A0, A1, 1.0))


# -- regularity lemma harness -------------------------------------------------

def test_regularity_check_regular_and_singular(rng):
    for _ in range(25):
        s1 = random_subsystem(rng, 2, 1, 1)
        s2 = random_subsystem(rng, 2, 1, 1)
        assert regularity_theorem_check(s1, s2)
    # singular first block (split example with c = 0)
    s1 = models.ex_split_subsystem1(0.0)
    s2 = models.ex_split_subsystem2()
    assert not is_regular(s1.pencil)
    assert regularity_theorem_check(s1, s2)
    # identity subsystems
    one = scalar_integrator()
    assert regularity_theorem_check(one, one)


# -- linear wrap --------------------------------------------------------------

def neutral_linear(tau=1.0):
    E = np.diag([1.0, 0.0])
    A0 = np.array([[1.0, 0.0], [0.0, -1.0]])
    A1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    return LinearDdae(E, A0, A1, tau)


def order_of_transformed_delay(d, tol=DEFAULT_TOL):
    """Delay order read from the algebraic rows Aa of S A1 T, the delay
    matrix in Weierstrass coordinates: 0 when Aa = 0, else K + 1 with
    K = max { j < nu : N^j Aa != 0 }.  The column transform T is
    invertible, so this is the rule applied to S_a A1 in other columns."""
    w = weierstrass(d.pencil, tol)
    thresh = tol * (1.0 + np.abs(d.A1).max(initial=0.0))
    Aa = (w.S @ d.A1 @ w.T)[w.d:]
    if w.a == 0 or np.abs(Aa).max(initial=0.0) <= thresh:
        return 0
    K = 0
    Npow = np.eye(w.a)
    for j in range(1, w.nu):
        Npow = w.N @ Npow
        if np.abs(Npow @ Aa).max(initial=0.0) > thresh:
            K = j
    return K + 1


def test_wrapped_classification_matches_linear(rng):
    cases = [build(0.5) for build in (models.ex_advanced_linear,
                                      models.ex_shift_linear, neutral_linear)]
    # criterion-4 style coupled pairs with a regular current-time pencil
    pairs = 0
    while pairs < 200:
        n1, n2 = (int(k) for k in rng.integers(1, 7, size=2))
        m, p = (int(k) for k in rng.integers(1, 3, size=2))
        hd = hybrid_shifted(random_subsystem(rng, n1, m, p),
                            random_subsystem(rng, n2, p, m), 1.0)
        if is_regular(hd.pencil):
            cases.append(hd)
            pairs += 1
    for d in cases:
        expected = Classification(order_of_transformed_delay(d))
        assert classify(sf_model_from_linear(d)) == expected
        assert classify_linear(d) == expected

    # the shifted-coupling family is advanced; the coupling c raises s
    grid = (-1.0, 0.0, 0.5, 2.0)
    for a, b, c, dd in itertools.product(grid, repeat=4):
        hd = hybrid_shifted(*models.ex_shifted_subsystems(a, b, c, dd), 1.0)
        expected = Classification(2 if c == 0.0 else 3)
        assert order_of_transformed_delay(hd) == expected.s
        assert classify(sf_model_from_linear(hd)) == expected
        assert classify_linear(hd) == expected


def test_wrapped_split_counts():
    d = models.ex_shift_linear(0.5)
    wrapped = sf_model_from_linear(d)
    w = weierstrass(d.pencil)
    assert (wrapped.d, wrapped.a) == (w.d, w.a)


def highest_lag_row_read(m, rng):
    """Highest row of ``zlags`` that the algebraic part A depends on, by
    central differences at a random point fed three lag rows, as many as
    the highest order checked here (s = 3) reads; -1 when A reads none."""
    z = rng.standard_normal(m.n)
    zlags = rng.standard_normal((3, m.n))
    highest = -1
    for j in range(3):
        def A_of_row(row, j=j):
            lags = zlags.copy()
            lags[j] = row
            return m.A(0.3, z, lags)
        if np.abs(fd_jacobian(A_of_row, zlags[j])).max(initial=0.0) > 1e-6:
            highest = j
    return highest


def test_declared_order_is_the_highest_lag_row_read(rng):
    # the paper's classification: s is one plus the highest delayed
    # derivative the algebraic part consumes, 0 when it consumes none
    cases = [m for m in (entry.make() for entry in models.REGISTRY.values())
             if isinstance(m, SfDdaeModel)]
    cases.append(models.pmsd_hybrid_shifted(delayed_force_const=0.5))
    cases += [sf_model_from_linear(d) for d in (
        models.ex_shift_linear(0.5), models.ex_advanced_linear(1.0),
        hybrid_shifted(*models.ex_shifted_subsystems(c=1.0), 1.0))]
    for m in cases:
        assert m.s_decl == highest_lag_row_read(m, rng) + 1, m
    assert [m.s_decl for m in cases] == [1, 0, 0, 2, 0, 0, 2, 3]


def test_json_roundtrips(rng):
    s = random_subsystem(rng, 2, 1, 1)
    s2 = LtiDescriptor.from_json(s.to_json())
    assert np.allclose(s.E, s2.E) and np.allclose(s.B, s2.B)
    d = models.ex_advanced_linear(1.0)
    d2 = LinearDdae.from_json(d.to_json())
    assert np.allclose(d.A1, d2.A1) and d.tau == d2.tau


# -- folded forcing -----------------------------------------------------------

def _closure_wrap(ld, tol=DEFAULT_TOL):
    """The wrap's D and A as closures that form every product and read the
    whole forcing at each call, with ``scale(t, z, zdot, zlags)``: per row
    of [D; A], the magnitudes of the terms they add up, which rounding
    scales."""
    w = weierstrass(ld.pencil, tol)
    d = w.d
    Sd, Sa = w.S[:d], w.S[d:]
    Pa = np.linalg.solve(w.T, np.eye(ld.n))[d:]
    Npows = [np.eye(w.a)]
    for _ in range(1, w.nu):
        Npows.append(w.N @ Npows[-1])
    lag_mats = [Npow @ Sa @ ld.A1 for Npow in Npows]
    f = ld.f

    def D(t, z, zdot, ztau):
        return Sd @ (ld.E @ zdot - ld.A0 @ z - ld.A1 @ ztau) - Sd @ f.eval(t)

    def A(t, z, zlags):
        acc = Pa @ z
        for M, lag in zip(lag_mats, zlags):
            acc += M @ lag
        for j, Npow in enumerate(Npows):
            acc += Npow @ Sa @ f.eval(t, j)
        return acc

    def scale(t, z, zdot, zlags):
        a = np.abs
        rows_d = a(Sd) @ (a(ld.E) @ a(zdot) + a(ld.A0) @ a(z)
                          + a(ld.A1) @ a(zlags[0])
                          + signal_term_scale(f, t, 0))
        rows_a = a(Pa) @ a(z) + sum(
            a(Npow) @ a(Sa) @ (a(ld.A1) @ a(lag)) for Npow, lag
            in zip(Npows, zlags)) + sum(
            a(Npow) @ a(Sa) @ signal_term_scale(f, t, j)
            for j, Npow in enumerate(Npows))
        return np.concatenate([rows_d, rows_a])

    return D, A, scale


def _assert_wrap_equals_closures(ld, rng, points=5):
    m = sf_model_from_linear(ld)
    D, A, scale = _closure_wrap(ld)
    assert m.affine
    for _ in range(points):
        t = float(rng.uniform(-2.0, 2.0))
        z, zdot = rng.uniform(-2.0, 2.0, (2, ld.n))
        zlags = rng.uniform(-2.0, 2.0, (3, ld.n))
        got = np.concatenate([m.D(t, z, zdot, zlags[0]),
                              m.A(t, z, zlags[:m.s_decl])])
        want = np.concatenate([D(t, z, zdot, zlags[0]),
                               A(t, z, zlags[:m.s_decl])])
        assert np.all(np.abs(got - want)
                      <= 1e-13 * (1.0 + scale(t, z, zdot, zlags)))


def _random_forcing(rng, n):
    return SymbolicSignal(
        poly=[rng.uniform(-1.0, 1.0, int(rng.integers(0, 4)))
              for _ in range(n)],
        sin=[[tuple(rng.uniform((-1.0, 0.0, -3.0), (1.0, 8.0, 3.0)))
              for _ in range(int(rng.integers(0, 3)))] for _ in range(n)])


def test_wrap_equals_closures_on_the_examples(rng):
    f = SymbolicSignal(poly=[[0.31, -0.07]],
                       sin=[[(0.42, 13.1, 0.9), (0.17, 7.3, 4.2)]])
    g = SymbolicSignal(poly=[[1.2, 0.11, -0.013]], sin=[[(0.3, 2.0, 0.1)]])
    _assert_wrap_equals_closures(models.ex_shift_linear(0.5, f=f, g=g), rng)
    adv = models.ex_advanced_linear(1.0)
    adv = LinearDdae(adv.E, adv.A0, adv.A1, adv.tau, _random_forcing(rng, 2))
    assert sf_model_from_linear(adv).s_decl == 2
    _assert_wrap_equals_closures(adv, rng)


def _random_regular_ddae(d, a, chain, seed):
    """(E, A0) = S (diag(I, N), diag(J, I)) T with N nilpotent: regular by
    construction, of index up to a, in random coordinates; with a random
    delay matrix and forcing, and the generator that drew them."""
    assume(d + a > 0)
    rng = np.random.default_rng(seed)
    n = d + a
    E, A0 = np.zeros((n, n)), np.zeros((n, n))
    E[:d, :d] = np.eye(d)
    A0[:d, :d] = rng.uniform(-2.0, 2.0, (d, d))
    E[d:, d:] = np.diag(np.array(chain[:max(a - 1, 0)], dtype=float), 1)
    A0[d:, d:] = np.eye(a)
    S, T = well_conditioned(rng, n), well_conditioned(rng, n)
    ld = LinearDdae(S @ E @ T, S @ A0 @ T, rng.uniform(-2.0, 2.0, (n, n)),
                    0.7, _random_forcing(rng, n))
    try:
        weierstrass(ld.pencil)
    except IllConditioned:
        assume(False)
    return ld, rng


_PENCILS = dict(d=st.integers(0, 3), a=st.integers(0, 4),
                chain=st.lists(st.booleans(), min_size=3, max_size=3),
                seed=st.integers(0, 2 ** 32 - 1))


@given(**_PENCILS)
def test_wrap_equals_closures_on_random_regular_pencils(d, a, chain, seed):
    ld, rng = _random_regular_ddae(d, a, chain, seed)
    _assert_wrap_equals_closures(ld, rng)


def test_each_callback_reads_the_forcing_once(monkeypatch):
    # also over the point axis of an affine model's stage block: one read
    # per call, whatever the number of times it covers
    model, history = linear_export_model()
    reads = [0]
    signal_eval = SymbolicSignal.eval

    def counting(self, t, order=0):
        reads[0] += 1
        return signal_eval(self, t, order)

    monkeypatch.setattr(SymbolicSignal, "eval", counting)
    per_call = {"D": [], "A": []}
    points = {"D": 0, "A": 0}

    def counted(name, fn):
        def call(t, *args):
            before = reads[0]
            out = fn(t, *args)
            per_call[name].append(reads[0] - before)
            points[name] += np.size(t)
            return out
        return call

    model.D = counted("D", model.D)
    model.A = counted("A", model.A)
    tr = solve_itp(model, history, 1.5)
    assert set(per_call["D"]) == set(per_call["A"]) == {1}
    # three stages and the endpoint of every step
    n_steps = tr.stats["steps"]
    assert n_steps >= 600
    assert points["D"] >= 4 * n_steps and points["A"] >= 4 * n_steps


def test_one_newton_iteration_solves_each_step(monkeypatch):
    # The wrap is affine and its Jacobians exact, so an affine step's
    # direct solve solves the stage equations; a second update, computed
    # here from per-stage callback residuals at the solved stages of every
    # successful attempt and of every step a run takes after it, must not
    # exceed newton_tol.  An attempt's stages are its column of the block
    # it is served from: the column at the rule's cursor, in the block at
    # hand or in a block solved for it.
    model, history = linear_export_model()
    newton_tol = IntegrationOptions().newton_tol
    affine_step = radau._AffineSteps.__call__
    affine_run = radau._AffineSteps.run
    integrate = steps.integrate_segment
    problems, second, newton = [], [], []

    def recording_integrate(problem, *args):
        problems.append(problem)
        return integrate(problem, *args)

    def check(rule, t0, h, z_prev, K):
        Z = z_prev + h * (radau.RADAU_A @ K)
        R = np.array([model.residual(t0 + c * h, Z[i], K[i],
                                     problems[-1].lags(t0 + c * h))
                      for i, c in enumerate(radau.RADAU_C.tolist())])
        step = radau._newton_update(rule.per_h[h][0], R)
        second.append(h * float(np.abs(step).max())
                      / (1.0 + float(np.abs(z_prev).max())))

    def checked_step(self, t0, h, z_prev):
        result = affine_step(self, t0, h, z_prev)
        if result is not None:
            K = self.K[:, :, self.k]
            assert np.array_equal(K[2], result[2])
            check(self, t0, h, z_prev, K)
        return result

    def checked_run(self, whole):
        k = self.k
        run = affine_run(self, whole)
        # the steps after the one just taken: their starts are the ends
        # before them, their start states the chain's
        for i in range(k + 1, k + len(run[0])):
            check(self, self.ends[i - 1], self.h, self.z[i], self.K[:, :, i])
        return run

    monkeypatch.setattr(radau._AffineSteps, "__call__", checked_step)
    monkeypatch.setattr(radau._AffineSteps, "run", checked_run)
    monkeypatch.setattr(radau, "_solve_step",
                        lambda *args: newton.append(args))
    monkeypatch.setattr(steps, "integrate_segment", recording_integrate)
    for h in (None, 0.001):
        second.clear()
        tr = solve_itp(model, history, 2.0, IntegrationOptions(h=h))
        stats = tr.stats
        assert stats["halvings"] == 0
        # one solve per attempted step: accepted or rejected
        assert stats["newton_iterations"] == (stats["steps"]
                                              + stats["rejected"])
        assert len(second) == stats["steps"] + stats["rejected"]
        assert max(second) <= newton_tol
    # no attempt takes the Newton of a callback model
    assert newton == []


@settings(max_examples=60)
@given(**_PENCILS)
def test_block_steps_equal_newton_steps_on_random_regular_pencils(
        d, a, chain, seed):
    # the same inputs through both rules, along the affine rule's own
    # chain: each affine step, served from the block solved for the steps
    # before it, and _solve_step's full Newton from the same state and
    # predictor agree to 1e-12 of the step's scale (its largest state, rate
    # or result entry); the result alone can be far smaller, after
    # cancellation.  The affine step's endpoint residual, read with the
    # block's lags, stays at rounding, and both rules report the same
    # stage condition.
    ld, rng = _random_regular_ddae(d, a, chain, seed)
    m = sf_model_from_linear(ld)
    history = _random_forcing(rng, ld.n)
    h = m.tau / 50
    problem = radau.SegmentProblem(m, 0.0, m.tau, history.eval(0.0),
                                   history)
    opts = IntegrationOptions(res_tol=1e300)
    stats, affine_stats = ({"max_endpoint_residual": 0.0,
                            "max_stage_cond": 0.0, "newton_iterations": 0}
                           for _ in range(2))
    t, z, k = 0.0, problem.z0, np.zeros(m.n)
    step = radau._AffineSteps(opts)
    step.start(problem, affine_stats, problem.lags(t))
    for _ in range(8):
        want = radau._solve_step(m, t, h, z, k, problem, opts, stats)
        assume(want is not None)
        got = step(t, h, z)
        step.run(False)
        scale = max(float(np.abs(v).max()) for v in (z, k, *want[:3]))
        for x, y in zip(got, want):
            assert np.abs(x - y).max() <= 1e-12 * scale
        assert affine_stats["max_endpoint_residual"] <= 1e-11 * scale
        t, z, k = t + h, got[0], got[2]
    assert affine_stats["newton_iterations"] == 8
    assert affine_stats["max_stage_cond"] == stats["max_stage_cond"]
    # at one h the blocks cover 1, 2, 4 and 8 steps: 7 entries are left
    assert len(step.ends) - step.k == 7


def test_linear_smooth_takes_every_step_from_a_stage_block(monkeypatch):
    # linear-smooth changes h on about a fifth of its steps, yet every
    # attempted step finds its stage data in the block built for it, and
    # none takes the Newton of a callback model
    model, history = linear_smooth_model()
    stage_block, affine_step = radau._stage_block, radau._AffineSteps.__call__
    entries, attempts, newton = set(), [], []

    def recording_block(problem, t, h, size):
        block = stage_block(problem, t, h, size)
        # each step starts at the end of the one before it
        entries.update((start, h) for start in [t, *block[0][:-1].tolist()])
        return block

    def recording_step(self, t0, h, *rest):
        attempts.append((t0, h))
        return affine_step(self, t0, h, *rest)

    monkeypatch.setattr(radau, "_stage_block", recording_block)
    monkeypatch.setattr(radau._AffineSteps, "__call__", recording_step)
    monkeypatch.setattr(radau, "_solve_step",
                        lambda *args: newton.append(args))
    tr = solve_itp(model, history, 10.0)
    stats = tr.stats
    assert stats["steps"] > 600
    assert len(attempts) == (stats["steps"] + stats["rejected"]
                             + stats["halvings"])
    assert set(attempts) <= entries
    assert newton == []


def test_endpoint_residuals_take_one_residual_call_per_block(monkeypatch):
    # on linear-export, a block's steps take their g and their endpoint
    # residuals from two residual calls, whatever the number of its steps
    model, history = linear_export_model()
    solve_block, residual = (radau._AffineSteps._solve_block,
                             SfDdaeModel.residual)
    blocks, calls, inside = [0], [0], [False]

    def counted_block(*args):
        blocks[0] += 1
        inside[0] = True
        try:
            return solve_block(*args)
        finally:
            inside[0] = False

    def counted_residual(*args):
        calls[0] += inside[0]
        return residual(*args)

    monkeypatch.setattr(radau._AffineSteps, "_solve_block", counted_block)
    monkeypatch.setattr(SfDdaeModel, "residual", counted_residual)
    tr = solve_itp(model, history, 2.0)
    assert calls[0] == 2 * blocks[0]
    assert tr.stats["steps"] >= 10 * blocks[0]
