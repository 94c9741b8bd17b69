from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from ddaekit import models
from ddaekit.errors import DataError, InadmissibleHistory
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import LinearDdae
from ddaekit.sfdae import Classification, SfDdaeModel, admissible, classify
from ddaekit.steps import solve_itp

from conftest import fd_jacobian


def delayed_ode(tau=1.0):
    """z' = -z(t - tau), the simplest retarded scalar model."""
    return SfDdaeModel(
        n=1, d=1, a=0, tau=tau, s_decl=0,
        D=lambda t, z, zdot, ztau: np.array([zdot[0] + ztau[0]]),
        A=lambda t, z, zlags: np.zeros(0),
        JD_z=lambda t, z, zdot, ztau: np.zeros((1, 1)),
        JD_zdot=lambda t, z, zdot, ztau: np.eye(1),
        JA_z=lambda t, z, zlags: np.zeros((0, 1)),
        name="delayed-decay")


# -- classification -----------------------------------------------------------

def test_classification_invariants():
    # a classification is its order alone, which must be non-negative
    assert Classification(2) == Classification(2) != Classification(3)
    with pytest.raises(FrozenInstanceError):
        Classification(0).s = 1
    with pytest.raises(ValueError):
        Classification(-1)


def test_classification_of_order():
    assert Classification(0).tag == Classification.RETARDED
    assert Classification(1).tag == Classification.NEUTRAL
    for s in (2, 3, 7):
        assert Classification(s).tag == Classification.ADVANCED
        assert Classification(s).to_json() == {"type": "advanced", "s": s}


def test_classify_builtins():
    assert classify(models.pmsd_hybrid_shifted()) == Classification(1)
    assert classify(models.ex_advanced_model()) == Classification(2)
    assert classify(delayed_ode()) == Classification(0)
    assert classify(models.ex_shift_model()) == Classification(0)
    assert classify(models.pmsd_coupled()) == Classification(0)


def test_model_validation():
    with pytest.raises(ValueError):
        delayed = delayed_ode()
        SfDdaeModel(n=2, d=1, a=0, tau=1.0, s_decl=0, D=delayed.D,
                    A=delayed.A, JD_z=delayed.JD_z, JD_zdot=delayed.JD_zdot,
                    JA_z=delayed.JA_z)
    with pytest.raises(ValueError):
        models.pmsd_hybrid_shifted(models.PmsdParams(tau=1.0)).tau
        models.PmsdParams(tau=-0.1)


@pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf"),
                                 "0.5", None])
def test_delay_must_be_finite_and_positive(tau):
    delayed = delayed_ode()
    builders = [
        lambda: LinearDdae(np.eye(1), np.eye(1), np.eye(1), tau),
        lambda: SfDdaeModel(n=1, d=1, a=0, tau=tau, s_decl=0, D=delayed.D,
                            A=delayed.A, JD_z=delayed.JD_z,
                            JD_zdot=delayed.JD_zdot, JA_z=delayed.JA_z),
        lambda: models.PmsdParams(tau=tau),
    ]
    for build in builders:
        with pytest.raises(DataError, match="finite positive"):
            build()


# -- admissibility ------------------------------------------------------------

def test_rest_history_admissible():
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p)
    ok, r = admissible(m, models.rest_history(p, theta=0.0))
    assert ok and np.abs(r).max() < 1e-12
    ok, _ = admissible(m, models.rest_history(p, theta=0.15))
    assert ok


def test_circle_violation_not_admissible():
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p)
    state = models.rest_state(p)
    state[2] -= 0.1          # stretch the rod by 0.1
    phi = SymbolicSignal.constant(state)
    ok, r = admissible(m, phi)
    assert not ok
    assert r[0] == pytest.approx(0.1 * (2 * p.L + 0.1))


def test_pure_delayed_ode_always_admissible(rng):
    m = delayed_ode()
    for _ in range(5):
        phi = SymbolicSignal(poly=[rng.standard_normal(3).tolist()])
        ok, r = admissible(m, phi)
        assert ok and r.size == 0


def test_advanced_admissibility_uses_history_derivative():
    m = models.ex_advanced_model(1.0)
    ok, _ = admissible(m, m.default_history())
    assert ok
    bad = SymbolicSignal(poly=[[0.0], [1.0, 2.0]])
    ok, r = admissible(m, bad)
    # phi(0) = (0, 1): x-row needs phi2(-1) = -1, y-row needs phi2'(-1) = 2
    assert not ok
    assert r == pytest.approx([1.0, -1.0])


def test_admissible_agrees_with_the_first_segment_start():
    p = models.PmsdParams()
    state = models.rest_state(p)
    state[2] -= 0.1
    cases = [
        (models.pmsd_hybrid_shifted(p), SymbolicSignal.constant(state)),
        (models.ex_advanced_model(1.0),
         SymbolicSignal(poly=[[0.0], [1.0, 2.0]])),
    ]
    for m, phi in cases:
        ok, r = admissible(m, phi)
        assert not ok
        with pytest.raises(InadmissibleHistory) as err:
            solve_itp(m, phi, m.tau)
        assert np.array_equal(r, err.value.residual)


# -- residual stacking --------------------------------------------------------

def test_residual_zero_on_shift_example_closed_form():
    m = models.ex_shift_model(0.5)
    f, g = m.f_signal, m.g_signal
    phi = m.default_history()

    def x1dot(t):
        return g.eval(t)[0] + f.eval(t)[0]     # phi2(t - tau) = g(t)

    for t in (0.0, 0.2, 0.45):
        z = np.array([0.0, g.eval(t + 0.5)[0]])     # x1 value is irrelevant
        zdot = np.array([x1dot(t), 0.0])
        zlags = phi.eval(t - 0.5)[None, :]
        r = m.residual(t, z, zdot, zlags)
        assert np.abs(r).max() < 1e-14


def test_residual_first_order_in_perturbation(rng):
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p)
    z0 = models.rest_state(p, theta=0.05)
    zdot = np.zeros(7)
    zlags = z0[None, :]
    base = m.residual(0.0, z0, zdot, zlags)
    assert np.abs(base[4:]).max() < 1e-12     # consistent, not stationary
    eps = 1e-6
    for _ in range(5):
        dz = rng.standard_normal(7)
        plus = m.residual(0.0, z0 + eps * dz, zdot, zlags)
        minus = m.residual(0.0, z0 - eps * dz, zdot, zlags)
        assert np.abs(plus - base).max() > 1e-8     # perturbation is visible
        Jz = np.vstack([m.JD_z(0.0, z0, zdot, zlags[0]),
                        m.JA_z(0.0, z0, zlags)])
        assert (plus - minus) / (2 * eps) == pytest.approx(Jz @ dz, abs=1e-6)


def test_rest_point_residual_is_pure_derivative_rows():
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p)
    z0 = models.rest_state(p)
    zlags = z0[None, :]
    zdot = np.zeros(7)
    r = m.residual(0.0, z0, zdot, zlags)
    assert np.abs(r).max() < 1e-12
    zdot = np.arange(1.0, 8.0)
    r = m.residual(0.0, z0, zdot, zlags)
    # differential rows pick up exactly the derivative terms
    assert r[:4] == pytest.approx([zdot[0] - z0[3], zdot[1] - z0[4],
                                   p.M * zdot[3], p.m * zdot[4]])
    assert np.abs(r[4:]).max() < 1e-12


# -- Jacobian checks across the zoo ------------------------------------------

def _random_lags(rng, m):
    return rng.standard_normal((m.n_lags, m.n))


@pytest.mark.parametrize("build", [
    lambda: models.pmsd_hybrid_shifted(),
    lambda: models.pmsd_coupled(),
    lambda: models.ex_shift_model(),
    lambda: models.ex_advanced_model(),
    lambda: delayed_ode(),
])
def test_analytic_jacobians_match_finite_differences(build, rng):
    m = build()
    for _ in range(100):
        t = float(rng.uniform(0, 2))
        z = rng.standard_normal(m.n)
        zdot = rng.standard_normal(m.n)
        zlags = _random_lags(rng, m)

        Jz = np.vstack([np.atleast_2d(m.JD_z(t, z, zdot, zlags[0])).reshape(m.d, m.n),
                        np.atleast_2d(m.JA_z(t, z, zlags[:m.s_decl])).reshape(m.a, m.n)])
        fd = fd_jacobian(lambda x: m.residual(t, x, zdot, zlags), z)
        assert np.allclose(Jz, fd, rtol=1e-6, atol=1e-6)

        Jdot = np.atleast_2d(m.JD_zdot(t, z, zdot, zlags[0])).reshape(m.d, m.n)
        fd = fd_jacobian(lambda x: np.asarray(
            m.D(t, z, x, zlags[0])).reshape(m.d), zdot)
        assert np.allclose(Jdot, fd, rtol=1e-6, atol=1e-6)
