import math

import numpy as np
import pytest

from ddaekit import models
from ddaekit.errors import InconsistentInitialState, NewtonDivergence
from ddaekit.radau import (RADAU_A, RADAU_C, IntegrationOptions,
                           SegmentProblem, integrate_segment)
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
    assert np.array_equal(sols[0].d_end, sols[1].d_end)


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
