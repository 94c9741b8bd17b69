import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddaekit import models
from ddaekit.errors import InconsistentInitialState, NewtonDivergence
from ddaekit.radau import (_ALPHA_BETA, _GAMMA, RADAU_A, RADAU_C,
                           IntegrationOptions, SegmentProblem,
                           SegmentSolution, _newton_factors, _newton_update,
                           integrate_segment)
from ddaekit.sfdae import SfDdaeModel


def scalar_ode(rhs, drhs):
    return SfDdaeModel(
        n=1, d=1, a=0, tau=1.0, s_decl=0,
        D=lambda t, z, zdot, ztau: np.array([zdot[0] - rhs(t, z[0])]),
        A=lambda t, z, zlags: np.zeros(0),
        JD_z=lambda t, z, zdot, ztau: np.array([[-drhs(t, z[0])]]),
        JD_zdot=lambda t, z, zdot, ztau: np.eye(1),
        JA_z=lambda t, z, zlags: np.zeros((0, 1)),
        name="scalar-ode")


def zero_source(t, k):
    return np.zeros(1)


def test_butcher_tableau_consistency():
    # row sums equal the nodes; quadrature exact up to the scheme's degree
    assert np.allclose(RADAU_A.sum(axis=1), RADAU_C)
    b = RADAU_A[-1]
    for k in range(1, 6):
        assert b @ RADAU_C ** (k - 1) == pytest.approx(1.0 / k)


def test_linear_decay_endpoint():
    m = scalar_ode(lambda t, z: -z, lambda t, z: -1.0)
    prob = SegmentProblem(m, 0.0, 1.0, np.array([1.0]), zero_source)
    sol = integrate_segment(prob)
    assert sol.endpoint[0] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert sol.stats["n_steps"] == 200


def test_convergence_order_at_least_four():
    # z' = -z^2, z(0) = 1, exact 1 / (1 + t)
    m = scalar_ode(lambda t, z: -z * z, lambda t, z: -2.0 * z)
    errs = []
    for h in (0.1, 0.05):
        prob = SegmentProblem(m, 0.0, 1.0, np.array([1.0]), zero_source)
        sol = integrate_segment(prob, IntegrationOptions(h=h))
        errs.append(abs(sol.endpoint[0] - 0.5))
    slope = math.log2(errs[0] / errs[1])
    assert slope >= 3.7


def test_dense_output_reproduces_nodes_and_is_continuous():
    m = scalar_ode(lambda t, z: math.cos(t) * z, lambda t, z: math.cos(t))
    prob = SegmentProblem(m, 0.0, 1.0, np.array([1.0]), zero_source)
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
    src = lambda t, k: phi.eval(t - m.tau, k)
    z0 = phi.eval(0.0)
    sols = [integrate_segment(SegmentProblem(m, 0.0, m.tau, z0, src))
            for _ in range(2)]
    assert np.array_equal(sols[0].ts, sols[1].ts)
    assert np.array_equal(sols[0].zs, sols[1].zs)
    assert np.array_equal(sols[0].coeffs, sols[1].coeffs)


def test_shift_example_segment_matches_closed_form():
    m = models.ex_shift_model(0.5)
    phi = m.default_history()
    prob = SegmentProblem(m, 0.0, 0.5, phi.eval(0.0),
                          lambda t, k: phi.eval(t - 0.5, k))
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
    prob = SegmentProblem(m, 0.0, p.tau, phi.eval(0.0),
                          lambda t, k: phi.eval(t - p.tau, k))
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
        integrate_segment(SegmentProblem(m, 0.0, p.tau, z0,
                                         lambda t, k: phi.eval(t - p.tau, k)))


def test_nan_initial_state_is_inconsistent():
    # a NaN residual is no consistent start, not a matter for Newton
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p)
    phi = m.default_history()
    with pytest.raises(InconsistentInitialState) as info:
        integrate_segment(SegmentProblem(m, 0.0, p.tau, np.full(m.n, np.nan),
                                         lambda t, k: phi.eval(t - p.tau, k)))
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
    prob = SegmentProblem(m, 0.0, 1.0, np.array([math.sqrt(0.5)]),
                          zero_source)
    with pytest.raises(NewtonDivergence) as err:
        integrate_segment(prob)
    assert err.value.t is not None and 0.4 < err.value.t < 0.6


def test_singular_stage_matrix_halves_then_diverges():
    # 0 = t: the algebraic Jacobian vanishes, so every stage block is singular
    m = SfDdaeModel(
        n=1, d=0, a=1, tau=1.0, s_decl=0,
        D=lambda t, z, zdot, ztau: np.zeros(0),
        A=lambda t, z, zlags: np.array([t]),
        JD_z=lambda t, z, zdot, ztau: np.zeros((0, 1)),
        JD_zdot=lambda t, z, zdot, ztau: np.zeros((0, 1)),
        JA_z=lambda t, z, zlags: np.zeros((1, 1)),
        name="singular-constraint")
    prob = SegmentProblem(m, 0.0, 1.0, np.zeros(1), zero_source)
    with pytest.raises(NewtonDivergence) as err:
        integrate_segment(prob)
    assert err.value.t == 0.0


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
    factors, cond = _newton_factors(Fz, Fdot, h)
    got = _newton_update(factors, R)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
    # the reported condition is the worse of the two blocks' in the 1-norm
    assert cond == pytest.approx(max(
        np.linalg.cond(_GAMMA * Fdot + h * Fz, 1),
        np.linalg.cond(_ALPHA_BETA * Fdot + h * Fz, 1)), rel=1e-9)
