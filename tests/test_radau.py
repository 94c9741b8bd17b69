import functools
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dlange, zlange

from ddaekit import models, radau
from ddaekit.errors import InconsistentInitialState, NewtonDivergence
from ddaekit.forcing import SymbolicSignal
from ddaekit.radau import (_ALPHA_BETA, _GAMMA, MAX_HALVINGS, RADAU_A,
                           RADAU_C, IntegrationOptions, SegmentProblem,
                           SegmentSolution, _newton_factors, _newton_update,
                           _one_norms, integrate_segment)
from ddaekit.sfdae import SfDdaeModel
from ddaekit.steps import solve_itp
from output_digest import linear_export_model


def scalar_ode(rhs, drhs):
    return SfDdaeModel(
        n=1, d=1, a=0, tau=1.0, s_decl=0,
        D=lambda t, z, zdot, ztau: np.array([zdot[0] - rhs(t, z[0])]),
        A=lambda t, z, zlags: np.zeros(0),
        JD_z=lambda t, z, zdot, ztau: np.array([[-drhs(t, z[0])]]),
        JD_zdot=lambda t, z, zdot, ztau: np.eye(1),
        JA_z=lambda t, z, zlags: np.zeros((0, 1)),
        name="scalar-ode")


# the delayed data of a scalar model without delay terms
ZERO = SymbolicSignal.zero(1)


def test_butcher_tableau_consistency():
    # row sums equal the nodes; quadrature exact up to the scheme's degree
    assert np.allclose(RADAU_A.sum(axis=1), RADAU_C)
    b = RADAU_A[-1]
    for k in range(1, 6):
        assert b @ RADAU_C ** (k - 1) == pytest.approx(1.0 / k)


def test_linear_decay_endpoint():
    m = scalar_ode(lambda t, z: -z, lambda t, z: -1.0)
    prob = SegmentProblem(m, 0.0, 1.0, np.array([1.0]), ZERO)
    sol = integrate_segment(prob)
    assert sol.endpoint[0] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert sol.stats["n_steps"] == 200


def test_convergence_order_at_least_four():
    # z' = -z^2, z(0) = 1, exact 1 / (1 + t)
    m = scalar_ode(lambda t, z: -z * z, lambda t, z: -2.0 * z)
    errs = []
    for h in (0.1, 0.05):
        prob = SegmentProblem(m, 0.0, 1.0, np.array([1.0]), ZERO)
        sol = integrate_segment(prob, IntegrationOptions(h=h))
        errs.append(abs(sol.endpoint[0] - 0.5))
    slope = math.log2(errs[0] / errs[1])
    assert slope >= 3.7


def test_newton_error_sits_below_the_discretisation_error():
    # z' = -z^2 at h 0.1: the endpoint error at the default newton_tol is
    # the scheme's own, within 2e-15 of the error of a Newton converged to
    # 1e-14 (a default of 1e-10 left 4.7e-14 between them)
    m = scalar_ode(lambda t, z: -z * z, lambda t, z: -2.0 * z)
    errs = []
    for tol in (IntegrationOptions().newton_tol, 1e-14):
        prob = SegmentProblem(m, 0.0, 1.0, np.array([1.0]), ZERO)
        sol = integrate_segment(prob, IntegrationOptions(h=0.1,
                                                         newton_tol=tol))
        errs.append(abs(sol.endpoint[0] - 0.5))
    assert abs(errs[0] - errs[1]) <= 2e-15


def test_dense_output_reproduces_nodes_and_is_continuous():
    m = scalar_ode(lambda t, z: math.cos(t) * z, lambda t, z: math.cos(t))
    prob = SegmentProblem(m, 0.0, 1.0, np.array([1.0]), ZERO)
    sol = integrate_segment(prob, IntegrationOptions(h=0.125))
    for k, t in enumerate(sol.ts):
        assert sol.eval(t)[0] == pytest.approx(sol.zs[k][0], abs=1e-14)
    # C0 across interior nodes: approach from both sides
    for t in sol.ts[1:-1]:
        left = sol.eval(t - 1e-12)[0]
        right = sol.eval(t + 1e-12)[0]
        assert left == pytest.approx(right, abs=1e-9)


def test_determinism_bitwise():
    m = models.pmsd_hybrid_shifted()
    phi = m.default_history()
    z0 = phi.eval(0.0)
    sols = [integrate_segment(SegmentProblem(m, 0.0, m.tau, z0, phi))
            for _ in range(2)]
    assert np.array_equal(sols[0].ts, sols[1].ts)
    assert np.array_equal(sols[0].zs, sols[1].zs)
    assert np.array_equal(sols[0].coeffs, sols[1].coeffs)


def test_shift_example_segment_matches_closed_form():
    m = models.ex_shift_model(0.5)
    phi = m.default_history()
    prob = SegmentProblem(m, 0.0, 0.5, phi.eval(0.0), phi)
    sol = integrate_segment(prob)
    f, g = m.f_signal, m.g_signal
    # x1(t) = phi1(0) + int_0^t (g(s) + f(s)) ds for the default data
    x1_0 = phi.eval(0.0)[0]
    for t in np.linspace(0.0, 0.5, 21):
        x1 = x1_0 + 1.5 * t - 0.125 * t**2 + (0.125 / 3.0) * t**3
        z = sol.eval(t)
        assert z[0] == pytest.approx(x1, abs=1e-10)
        assert z[1] == pytest.approx(g.eval(t + 0.5)[0], abs=1e-12)


def test_pendulum_segment_keeps_constraints():
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p, theta0=0.12)
    phi = m.default_history()
    prob = SegmentProblem(m, 0.0, p.tau, phi.eval(0.0), phi)
    sol = integrate_segment(prob)
    worst = 0.0
    for t in np.linspace(0.0, p.tau, 50):
        z = sol.eval(t)
        zlags = np.stack([phi.eval(t - p.tau)])
        worst = max(worst, np.abs(m.algebraic_residual(t, z, zlags)).max())
    assert worst <= 1e-8


def test_inconsistent_initial_state_rejected():
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p)
    phi = m.default_history()
    z0 = phi.eval(0.0).copy()
    z0[2] += 1e-3              # leave the rod-length manifold
    with pytest.raises(InconsistentInitialState):
        integrate_segment(SegmentProblem(m, 0.0, p.tau, z0, phi))


def test_nan_initial_state_is_inconsistent():
    # a NaN residual is no consistent start, not a matter for Newton
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p)
    phi = m.default_history()
    with pytest.raises(InconsistentInitialState) as info:
        integrate_segment(SegmentProblem(m, 0.0, p.tau, np.full(m.n, np.nan),
                                         phi))
    assert np.isnan(info.value.residual).all()


def test_newton_divergence_when_constraint_loses_solutions():
    # 0 = z^2 - (0.5 - t): real solutions cease to exist past t = 0.5
    m = SfDdaeModel(
        n=1, d=0, a=1, tau=1.0, s_decl=0,
        D=lambda t, z, zdot, ztau: np.zeros(0),
        A=lambda t, z, zlags: np.array([z[0] ** 2 - (0.5 - t)]),
        JD_z=lambda t, z, zdot, ztau: np.zeros((0, 1)),
        JD_zdot=lambda t, z, zdot, ztau: np.zeros((0, 1)),
        JA_z=lambda t, z, zlags: np.array([[2.0 * z[0]]]),
        name="vanishing-constraint")
    prob = SegmentProblem(m, 0.0, 1.0, np.array([math.sqrt(0.5)]), ZERO)
    with pytest.raises(NewtonDivergence) as err:
        integrate_segment(prob)
    assert err.value.t is not None and 0.4 < err.value.t < 0.6


def _unfactorable(cause, affine):
    """z0' = -z0 and one algebraic row whose stage blocks never factor: 0 = t
    has a zero Jacobian, so every block is singular, or a Jacobian holds a
    NaN."""
    nan = float("nan")
    JD_z = [[nan if cause == "nan-JD_z" else 1.0, 0.0]]
    JA_z = {"singular": [[0.0, 0.0]], "nan-JD_z": [[0.0, 1.0]],
            "nan-JA_z": [[0.0, nan]]}[cause]
    singular = cause == "singular"
    return SfDdaeModel(
        n=2, d=1, a=1, tau=1.0, s_decl=0,
        D=lambda t, z, zdot, ztau: np.array([zdot[0] + z[0]]),
        A=lambda t, z, zlags: np.array([t if singular else z[1]]),
        JD_z=lambda t, z, zdot, ztau: np.array(JD_z),
        JD_zdot=lambda t, z, zdot, ztau: np.array([[1.0, 0.0]]),
        JA_z=lambda t, z, zlags: np.array(JA_z),
        name="failed-factorization", affine=affine)


@pytest.mark.parametrize("affine", [False, True], ids=["callback", "affine"])
@pytest.mark.parametrize("cause", ["singular", "nan-JD_z", "nan-JA_z"])
def test_a_failed_factorization_halves_then_diverges(cause, affine):
    # Both step rules halve to the floor and diverge at the start, and no
    # numpy error escapes the rank spot-check of a NaN row.
    m = _unfactorable(cause, affine)
    zero = SymbolicSignal.zero(2)
    with pytest.raises(NewtonDivergence) as err:
        integrate_segment(SegmentProblem(m, 0.0, 1.0, np.zeros(2), zero))
    assert err.value.t == 0.0
    with pytest.raises(NewtonDivergence,
                       match="^segment 1: Newton failed at t = 0 "):
        solve_itp(m, zero, 1.0)


def test_a_failed_factorization_stays_in_the_affine_record(monkeypatch):
    # the affine rule records a failed factorization at its h, so a retry
    # at that h fails at once instead of factoring the same matrix again
    m = _unfactorable("singular", affine=True)
    problem = SegmentProblem(m, 0.0, 1.0, np.zeros(2), SymbolicSignal.zero(2))
    factored = []

    def counted_factors(*args):
        factored.append(args[2])
        return _newton_factors(*args)

    monkeypatch.setattr(radau, "_newton_factors", counted_factors)
    step = radau._AffineSteps(IntegrationOptions())
    step.start(problem, {"max_stage_cond": 0.0}, problem.lags(0.0))
    assert step(0.0, 0.01, problem.z0) is None
    assert step(0.0, 0.01, problem.z0) is None
    assert factored == [0.01]


RANK_WARNING = "algebraic Jacobian row rank deficient at t = 0 "


def test_rank_deficient_algebraic_rows_at_the_start_are_warned(caplog):
    # two algebraic rows parallel up to 1e-12: both step rules read the
    # start's Jacobian for the rank check, and the run still completes
    JA = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 1e-12]])

    def parallel_rows(affine):
        return SfDdaeModel(
            n=3, d=1, a=2, tau=1.0, s_decl=0,
            D=lambda t, z, zdot, ztau: np.array([zdot[0] + z[0]]),
            A=lambda t, z, zlags: JA @ z,
            JD_z=lambda t, z, zdot, ztau: np.array([[1.0, 0.0, 0.0]]),
            JD_zdot=lambda t, z, zdot, ztau: np.array([[1.0, 0.0, 0.0]]),
            JA_z=lambda t, z, zlags: JA, name="parallel-rows", affine=affine)

    pmsd = models.REGISTRY["pmsd-hybrid"].make()
    phi = pmsd.default_history()
    cases = [(parallel_rows(affine), np.array([1.0, 0.0, 0.0]),
              SymbolicSignal.zero(3), 1) for affine in (False, True)]
    cases.append((pmsd, phi.eval(0.0), phi, 0))
    for m, z0, source, warned in cases:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ddaekit.radau"):
            sol = integrate_segment(SegmentProblem(m, 0.0, m.tau, z0, source))
        assert sol.t_end == m.tau
        messages = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert sum(msg.startswith(RANK_WARNING) for msg in messages) == warned
        if not warned:
            assert messages == []


def hermite_reference(ts, zs, d_start, d_end, t, order):
    """Cubic Hermite in its basis form, on the step whose start is the last
    node <= t (the final step also covers its right end)."""
    k = min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)
    h = ts[k + 1] - ts[k]
    s = (t - ts[k]) / h
    z0, z1, d0, d1 = zs[k], zs[k + 1], d_start[k], d_end[k]
    if order == 0:
        return ((2 * s**3 - 3 * s**2 + 1) * z0 + (s**3 - 2 * s**2 + s) * h * d0
                + (-2 * s**3 + 3 * s**2) * z1 + (s**3 - s**2) * h * d1)
    return ((6 * s**2 - 6 * s) / h * z0 + (3 * s**2 - 4 * s + 1) * d0
            + (-6 * s**2 + 6 * s) / h * z1 + (3 * s**2 - 2 * s) * d1)


def random_solution(rng, steps, n=2):
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, steps))])
    zs = rng.uniform(-1.0, 1.0, (steps + 1, n))
    d_start = rng.uniform(-1.0, 1.0, (steps, n))
    d_end = rng.uniform(-1.0, 1.0, (steps, n))
    return ts, zs, d_start, d_end


def check_dense_output(ts, zs, d_start, d_end, queries):
    sol = SegmentSolution(ts, zs, d_start, d_end, {})
    for t in queries:
        for order in (0, 1):
            want = hermite_reference(ts, zs, d_start, d_end, t, order)
            np.testing.assert_allclose(sol.eval(t, order), want, rtol=0,
                                       atol=1e-14)


def test_dense_output_matches_hermite_basis(rng):
    ts, zs, d_start, d_end = random_solution(rng, 6)
    inner = [ts[k] + f * (ts[k + 1] - ts[k])
             for k in range(6) for f in (0.1, 0.5, 0.93)]
    check_dense_output(ts, zs, d_start, d_end, [*ts, *inner])
    sol = SegmentSolution(ts, zs, d_start, d_end, {})
    for k in range(6):
        # step starts are exact; derivatives there come from the right step
        assert np.array_equal(sol.eval(ts[k]), zs[k])
        np.testing.assert_allclose(sol.eval(ts[k], 1), d_start[k], rtol=0,
                                   atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 8),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_dense_output_matches_hermite_basis_property(seed, steps, fractions):
    ts, zs, d_start, d_end = random_solution(np.random.default_rng(seed),
                                             steps)
    queries = [ts[0] + f * (ts[-1] - ts[0]) for f in fractions]
    check_dense_output(ts, zs, d_start, d_end, queries)


@functools.cache
def solved_segments():
    """The first segment of pmsd-hybrid and of a linear wrap, each solved
    from its history."""
    pmsd = models.REGISTRY["pmsd-hybrid"].make()
    cases = [(pmsd, pmsd.default_history()), linear_export_model()]
    return [integrate_segment(SegmentProblem(m, 0.0, m.tau, phi.eval(0.0),
                                             phi)) for m, phi in cases]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_array_read_is_the_float_reads_bit_for_bit(data):
    # one contract, two paths: column j of an array read is the float read
    # at ts[j], at mesh nodes, at the segment ends and between nodes
    sol = data.draw(st.sampled_from(solved_segments()))
    lo, hi = sol.ts[0], sol.ts[-1]
    time = st.one_of(st.sampled_from(sol.ts), st.sampled_from([lo, hi]),
                     st.floats(lo, hi))
    ts = data.draw(st.lists(time, min_size=1, max_size=40))
    for order in (0, 1):
        grid = sol.eval(np.array(ts), order)
        assert grid.shape == (sol.endpoint.size, len(ts))
        for j, t in enumerate(ts):
            assert grid[:, j].tobytes() == sol.eval(t, order).tobytes()
            # any other real scalar reads as its float
            assert (sol.eval(np.array(t), order).tobytes()
                    == grid[:, j].tobytes())
        t32 = np.float32(data.draw(st.floats(lo, hi)))
        for t in (0, np.int64(0), t32, np.float16(0.0)):
            if lo <= float(t) <= hi:
                assert (sol.eval(t, order).tobytes()
                        == sol.eval(float(t), order).tobytes())


def test_an_array_read_outside_the_segment_raises_the_float_error():
    # ex-shift's first segment, [0, 0.5]: one domain for both read paths
    m = models.ex_shift_model(0.5)
    phi = m.default_history()
    sol = integrate_segment(SegmentProblem(m, 0.0, m.tau, phi.eval(0.0), phi))
    slack = 1e-9 * max(1.0, sol.ts[-1])
    for bad in ([5.5], [0.25, 5.5, -1.0], [0.1, -1.0], [0.5 + 2 * slack]):
        with pytest.raises(ValueError) as scalar:
            for t in bad:
                sol.eval(t)
        for order in (0, 1):
            with pytest.raises(ValueError,
                               match=f"^{re.escape(str(scalar.value))}$"):
                sol.eval(np.array(bad), order)
    # within the rounding slack both paths read the segment
    edge = [-slack / 2, 0.5 + slack / 2]
    assert (sol.eval(np.array(edge)).T.tobytes()
            == np.array([sol.eval(t) for t in edge]).tobytes())


@pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (7, 4), (2, 0)])
def test_split_newton_update_matches_assembled_solve(rng, n, d):
    # d differential rows: the algebraic rows of Fdot are zero, as for a DAE
    Fz = rng.standard_normal((n, n))
    Fdot = np.zeros((n, n))
    Fdot[:d] = rng.standard_normal((d, n))
    h = 0.01
    R = rng.standard_normal((3, n))
    J = np.kron(np.eye(3), Fdot) + h * np.kron(RADAU_A, Fz)
    want = np.linalg.solve(J, R.reshape(-1)).reshape(3, n)
    Minv, cond = _newton_factors(Fz, Fdot, h)
    # the record's dense inverse inverts the assembled stage matrix to
    # 1e-12, or as closely as numpy's own inverse of J where that misses
    # 1e-12 (the (7, 4) draw, at a 1-norm condition near 1e6)
    eye = np.eye(3 * n)
    assert np.abs(Minv @ J - eye).max() <= max(
        1e-12, np.abs(np.linalg.inv(J) @ J - eye).max())
    got = _newton_update(Minv, R)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
    # a block, (3, n, m): each column is the (3, n) solve up to rounding
    for m in (1, 4):
        B = rng.standard_normal((3, n, m))
        block = _newton_update(Minv, B)
        assert block.shape == B.shape
        for j in range(m):
            col = _newton_update(Minv, B[:, :, j])
            np.testing.assert_allclose(block[:, :, j], col, rtol=0,
                                       atol=1e-12 * np.abs(col).max())
    # the reported condition is the worse of the two blocks' in the 1-norm
    real, cplx = _GAMMA * Fdot + h * Fz, _ALPHA_BETA * Fdot + h * Fz
    assert cond == pytest.approx(max(np.linalg.cond(real, 1),
                                     np.linalg.cond(cplx, 1)), rel=1e-9)
    # taken from LAPACK's norms of both blocks and their inverses; numpy
    # rounds a complex |z| differently from zlange, but a real one alike
    real_inv, cplx_inv = np.linalg.inv(real), np.linalg.inv(cplx)
    lapack = max(dlange("1", real) * dlange("1", real_inv),
                 zlange("1", cplx) * zlange("1", cplx_inv))
    assert cond == pytest.approx(lapack, rel=1e-15, abs=0)
    norms = _one_norms(real, real_inv, cplx, cplx_inv)
    assert norms[:2] == [dlange("1", real), dlange("1", real_inv)]


@pytest.mark.parametrize("name", ["pmsd-hybrid", "ex-advanced"])
def test_a_float_lag_read_is_the_array_reads_column(name):
    # n_lags 1 (pmsd-hybrid) and 2 (ex-advanced): a float read, which the
    # callback step makes at every stage time, equals the array read of
    # the affine stage block bit for bit, from the history and from a
    # solved segment
    model = models.REGISTRY[name].make({})
    history = model.default_history()
    tau = model.tau
    first = solve_itp(model, history, tau).segments[0]
    for problem in (SegmentProblem(model, 0.0, tau, history.eval(0.0),
                                   history),
                    SegmentProblem(model, tau, 2 * tau, first.endpoint,
                                   first)):
        ts = problem.t_start + np.linspace(0.0, tau, 17)
        grid = problem.lags(ts)
        assert grid.shape == (model.n_lags, model.n, ts.size)
        for j, t in enumerate(ts.tolist()):
            lags = problem.lags(t)
            assert lags.shape == (model.n_lags, model.n)
            assert lags.tobytes() == grid[:, :, j].copy().tobytes()


@pytest.mark.parametrize("h", [None, 0.01], ids=["controlled", "fixed"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_residual_diverges_without_a_warning(bad, h, caplog):
    # z' = -z, with D non-finite past t = 0.3: Newton fails at every stage
    # past it, so the steps halve down to 0.3 and the step there fails
    # after all halvings (at the floor under the controller), and neither
    # numpy nor the integrator warns on the way
    m = SfDdaeModel(
        n=1, d=1, a=0, tau=1.0, s_decl=0,
        D=lambda t, z, zdot, ztau: np.array(
            [zdot[0] + z[0] if t <= 0.3 else bad]),
        A=lambda t, z, zlags: np.zeros(0),
        JD_z=lambda t, z, zdot, ztau: np.eye(1),
        JD_zdot=lambda t, z, zdot, ztau: np.eye(1),
        JA_z=lambda t, z, zlags: np.zeros((0, 1)))
    problem = SegmentProblem(m, 0.0, 1.0, np.ones(1), ZERO)
    halvings = 7 if h is None else MAX_HALVINGS
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NewtonDivergence,
                           match=f" after {halvings} halvings$") as err:
            integrate_segment(problem, IntegrationOptions(h=h))
    assert caught == [] and caplog.records == []
    assert err.value.t == pytest.approx(0.2999609375, rel=0, abs=1e-15)
