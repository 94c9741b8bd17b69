from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ddaekit import models
from ddaekit.errors import DataError, SingularPencil
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import couple, sf_model_from_linear, LinearDdae
from ddaekit.pencil import analyze, is_regular, weierstrass
from ddaekit.sfdae import Classification, admissible, classify
from ddaekit.steps import evaluate, solve_itp

from conftest import fd_jacobian
from exact_pencil import wong_exact


def test_registry_names_and_kinds():
    reg = models.worked_examples()
    expected = {"msd", "pmsd-coupled", "pmsd-hybrid",
                "ex-split-index", "ex-coupled-index", "ex-shifted-index",
                "ex-shift", "ex-advanced"}
    assert set(reg) == expected
    assert len(reg) >= 6
    for entry in reg.values():
        entry.make()            # all defaults construct
    with pytest.raises(Exception):
        reg["ex-split-index"].make({"bogus": 1.0})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("field", ["C", "K", "g"])
def test_damping_stiffness_and_gravity_must_be_finite_and_not_negative(
        field, value):
    with pytest.raises(DataError, match=f"^{field} must be finite and >= 0"):
        models.PmsdParams(**{field: value})
    assert getattr(models.PmsdParams(**{field: 0.0}), field) == 0.0


def test_readme_model_table_matches_the_registry():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("## Built-in models", 1)[1].split("\n\n", 2)[1]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]
    names, params = [], None
    for name, _, listed in rows:
        names.append(name.strip("`"))
        if listed != "same":
            params = [p.strip() for p in listed.strip("`").split(",")]
        assert params == list(models.REGISTRY[names[-1]].defaults), name
    assert names == list(models.REGISTRY)


# -- mass-spring-damper -------------------------------------------------------

def test_msd_harmonic_oscillator_period():
    p = models.PmsdParams(M=1.0, C=0.0, K=1.0)
    s = models.msd_subsystem(p)
    w = weierstrass(s.pencil)
    assert (w.a, w.nu) == (0, 0)       # strangeness-free ODE block

    ddae = LinearDdae(s.E, s.A, np.zeros((2, 2)), 1.0)
    m = sf_model_from_linear(ddae)
    phi = SymbolicSignal.constant([1.0, 0.0])
    tr = solve_itp(m, phi, 2 * np.pi)
    assert evaluate(tr, 2 * np.pi)[0] == pytest.approx(1.0, abs=1e-7)


def test_msd_matrices():
    p = models.PmsdParams(M=2.0, C=0.5, K=3.0)
    s = models.msd_subsystem(p)
    assert np.allclose(s.E, [[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(s.A, [[0.0, 1.0], [-3.0, -0.5]])
    assert np.allclose(s.B, [[0.0], [1.0]])
    assert np.allclose(s.C, [[1.0, 0.0]])


# -- pendulum record ----------------------------------------------------------

def test_pendulum_rest_residual_and_metadata():
    p = models.PmsdParams()
    rec = models.pendulum_subsystem(p)
    assert (rec.n, rec.mu, rec.d, rec.a) == (6, 2, 2, 4)
    lam = p.m * p.g / (2.0 * p.L)
    z = np.array([0.0, -p.L, lam, 0.0, 0.0, 0.0])
    r = rec.residual(0.0, z, np.zeros(6), 0.0)
    assert np.abs(r).max() < 1e-12


def test_pendulum_feedthrough_row_tracks_input():
    rec = models.pendulum_subsystem()
    z = np.zeros(6)
    z[5] = 0.7
    r = rec.residual(0.0, z, np.zeros(6), 0.7)
    assert r[2] == pytest.approx(0.0)
    r = rec.residual(0.0, z, np.zeros(6), 0.5)
    assert r[2] == pytest.approx(0.2)


def test_pendulum_jacobians_match_fd(rng):
    rec = models.pendulum_subsystem()
    for _ in range(20):
        z = rng.standard_normal(6)
        zdot = rng.standard_normal(6)
        u = float(rng.standard_normal())
        fd = fd_jacobian(lambda x: rec.residual(0.0, x, zdot, u), z)
        assert np.allclose(rec.jac_z(0.0, z, zdot, u), fd, atol=1e-6)
        fd = fd_jacobian(lambda x: rec.residual(0.0, z, x, u), zdot)
        assert np.allclose(rec.jac_zdot(0.0, z, zdot, u), fd, atol=1e-6)


def test_msd_pendulum_assembly_matches_substituted_coupled_form(rng):
    """Closing the loop around the two first-order blocks and eliminating
    the feedthrough state reproduces the fully coupled equations."""
    p = models.PmsdParams()
    msd = models.msd_subsystem(p)
    pend = models.pendulum_subsystem(p)

    def assembled(t, Z, Zdot):
        z1, z2 = Z[:2], Z[2:]
        z1dot, z2dot = Zdot[:2], Zdot[2:]
        u1 = pend.output(t, z2)
        u2 = float((msd.C @ z1)[0])
        top = msd.E @ z1dot - msd.A @ z1 - (msd.B @ [u1])
        return np.concatenate([top, pend.residual(t, z2, z2dot, u2)])

    def coupled_reference(t, Z, Zdot):
        # states: y1, w1, x2, y2, lam, vx, vy, (feedthrough = y1)
        y1, w1, x2, y2, lam, vx, vy, ft = Z
        y1d, w1d, x2d, y2d, lamd, vxd, vyd, ftd = Zdot
        force = -2.0 * lam * (y2 - ft) - p.m * p.g
        return np.array([
            y1d - w1,
            p.M * w1d + p.C * w1 + p.K * y1 - force,
            x2d - vx,
            y2d - vy,
            ft - y1,
            p.m * vxd + 2.0 * lam * x2,
            p.m * vyd + 2.0 * lam * (y2 - ft) + p.m * p.g,
            x2 ** 2 + (y2 - ft) ** 2 - p.L ** 2,
        ])

    for _ in range(10):
        Z = rng.standard_normal(8)
        Z[7] = Z[0]                      # feedthrough equals the output y1
        Zdot = rng.standard_normal(8)
        got = assembled(0.0, Z, Zdot)
        # reorder reference rows to the assembled layout
        ref = coupled_reference(0.0, Z, Zdot)
        want = ref[[0, 1, 2, 3, 4, 5, 6, 7]]
        assert np.allclose(np.sort(np.abs(got)), np.sort(np.abs(want)),
                           atol=1e-12)
        assert got[:2] == pytest.approx(ref[:2])


# -- strangeness-free pendulum models ----------------------------------------

def test_rest_lambda_value_and_shared_consistency():
    p = models.PmsdParams()
    z = models.rest_state(p)
    assert z[6] == pytest.approx(p.m * p.g / (2.0 * p.L))
    hyb = models.pmsd_hybrid_shifted(p)
    cpl = models.pmsd_coupled(p)
    zlags = z[None, :]
    assert np.abs(hyb.algebraic_residual(0.0, z, zlags)).max() < 1e-12
    assert np.abs(cpl.algebraic_residual(0.0, z, zlags)).max() < 1e-12


def test_pmsd_counts_and_classification():
    m = models.pmsd_hybrid_shifted()
    assert (m.n, m.d, m.a) == (7, 4, 3)
    assert classify(m) == Classification(1)
    assert classify(models.pmsd_coupled()) == Classification(0)


@pytest.mark.parametrize("make", [models.pmsd_hybrid_shifted,
                                  models.pmsd_coupled])
def test_pmsd_residual_at_a_float_equals_one_column_of_an_array(make):
    # a numpy scalar's ** 2 rounds through pow and an array's through
    # x * x; at this state the two differ in the last row, so a square
    # written as a power made the audit's array read and the solver's
    # float read disagree by 8.9e-16
    m = make()
    z = np.array([0.0, 0.0, 0.343805606955381, 0.0, 0.0, 0.0, 1.0])
    zero = np.zeros(7)
    lags = np.zeros((m.n_lags, 7))
    at_float = m.residual(0.0, z, zero, lags)
    at_array = m.residual(np.array([0.0]), z[:, None], zero[:, None],
                          lags[:, :, None])
    assert at_array.shape == (7, 1)
    assert np.array_equal(at_float, at_array[:, 0])


def test_coupled_model_matches_reduced_ode_oracle():
    """Independent check: the 7-state constrained solve agrees with an
    unconstrained angle-coordinate integration of the same dynamics."""
    p = models.PmsdParams()
    theta0 = 0.1

    def rhs(t, s):
        y1, v1, th, om = s
        denom = p.M - p.m * np.cos(th) ** 2
        a1 = (-p.C * v1 - p.K * y1 + p.m * p.L * om ** 2 * np.cos(th)
              - p.m * p.g * np.sin(th) ** 2) / denom
        return [v1, a1, om, -(p.g + a1) * np.sin(th) / p.L]

    ode = solve_ivp(rhs, (0.0, 1.0), [0.0, 0.0, theta0, 0.0],
                    rtol=1e-11, atol=1e-13, dense_output=True)
    m = models.pmsd_coupled(p, theta0=theta0)
    tr = solve_itp(m, m.default_history(), 1.0)
    for t in np.linspace(0.0, 1.0, 25):
        y1, v1, th, om = ode.sol(t)
        z = evaluate(tr, t)
        assert z[0] == pytest.approx(y1, abs=1e-8)
        assert z[1] == pytest.approx(p.L * np.sin(th), abs=1e-8)
        assert z[2] == pytest.approx(y1 - p.L * np.cos(th), abs=1e-8)


def test_energy_power_balance_identity():
    """The energy monitor satisfies dE/dt = -C v1^2 - (4 lam delta + m g) v1.

    The force convention feeds the oscillator with the bob's net force, not
    the rod reaction, so the interconnection is not passive and the energy
    is not monotone; what must hold exactly is the balance identity."""
    p = models.PmsdParams()
    m = models.pmsd_coupled(p, theta0=0.1)
    tr = solve_itp(m, m.default_history(), 1.0)
    for t in np.linspace(0.05, 0.95, 19):
        z = evaluate(tr, t)
        zd = evaluate(tr, t, 1)
        dE = (p.M * z[3] * zd[3] + p.K * z[0] * zd[0]
              + p.m * (z[4] * zd[4] + z[5] * zd[5]) + p.m * p.g * zd[2])
        lam, delta = z[6], z[2] - z[0]
        expected = -p.C * z[3] ** 2 - (4.0 * lam * delta + p.m * p.g) * z[3]
        assert dE == pytest.approx(expected, abs=1e-9)


def test_constant_force_variant_matches_independent_simulation():
    """With the delayed force frozen, the oscillator decouples from the
    pendulum; compare against a driven-oscillator + moving-pivot-pendulum
    integration in angle coordinates."""
    p = models.PmsdParams()
    theta0 = 0.12
    state = models.rest_state(p, theta=theta0)
    f0 = -2.0 * state[6] * (state[2] - state[0]) - p.m * p.g
    m = models.pmsd_hybrid_shifted(p, theta0=theta0,
                                   delayed_force_const=f0)
    assert classify(m) == Classification(0)
    tr = solve_itp(m, m.default_history(), 2.0)

    def rhs(t, s):
        y1, v1, th, om = s
        a1 = (f0 - p.C * v1 - p.K * y1) / p.M
        return [v1, a1, om, -(p.g + a1) * np.sin(th) / p.L]

    ode = solve_ivp(rhs, (0.0, 2.0), [0.0, 0.0, theta0, 0.0],
                    rtol=1e-11, atol=1e-13, dense_output=True)
    for t in np.linspace(0.0, 2.0, 41):
        y1, v1, th, om = ode.sol(t)
        z = evaluate(tr, t)
        assert z[0] == pytest.approx(y1, abs=1e-6)
        assert z[1] == pytest.approx(p.L * np.sin(th), abs=1e-6)
        assert z[2] == pytest.approx(y1 - p.L * np.cos(th), abs=1e-6)


def test_hybrid_solve_keeps_constraints_over_three_delays():
    p = models.PmsdParams()
    m = models.pmsd_hybrid_shifted(p, theta0=0.1)
    tr = solve_itp(m, m.default_history(), 3 * p.tau)
    for t in np.linspace(0.0, 3 * p.tau, 200):
        z = evaluate(tr, t)
        zlags = evaluate(tr, t - p.tau)[None, :]
        r = m.algebraic_residual(t, z, zlags)
        assert np.abs(r).max() <= 1e-8


# -- worked pencil examples ---------------------------------------------------

def test_split_example_statements():
    assert weierstrass(models.ex_split_full(0.5)).nu == 1
    sub1 = models.ex_split_subsystem1(0.5)
    assert weierstrass(sub1.pencil).nu == 2
    assert not is_regular(models.ex_split_subsystem1(0.0).pencil)
    sub2 = models.ex_split_subsystem2()
    assert weierstrass(sub2.pencil).nu == 1


def test_coupled_example_index_condition(rng):
    for _ in range(40):
        vals = {k: float(rng.uniform(-2, 2)) for k in
                ("a1", "a2", "b11", "b12", "c11", "c12", "b21", "b22",
                 "c21", "c22")}
        if abs(vals["c12"] * vals["c22"] - 1.0) < 1e-3:
            continue
        assert weierstrass(models.ex_coupled_pencil(**vals)).nu == 1


def test_coupled_example_degenerate_instances_from_oracle():
    # c12 * c22 = 1 degenerates; labels recomputed with the exact oracle
    cases = [
        (dict(c12=1.0, c22=1.0), (False, None)),
        (dict(a1=0, a2=-1, b11=0, b12=1, c11=-1, b21=-1, b22=1, c21=-1,
              c12=1.0, c22=1.0), (True, 2)),
        (dict(a1=0, a2=-1, b11=-1, b12=-1, c11=1, b21=-1, b22=0, c21=0,
              c12=1.0, c22=1.0), (True, 3)),
    ]
    for kw, (reg_expected, nu_expected) in cases:
        p = models.ex_coupled_pencil(**{k: float(v) for k, v in kw.items()})
        reg, d, a, nu = wong_exact(p.E.astype(int).tolist(),
                                   p.A.astype(int).tolist())
        assert reg == reg_expected
        if reg:
            assert nu == nu_expected
            assert weierstrass(p).nu == nu_expected
        else:
            assert not is_regular(p)
            with pytest.raises(SingularPencil):
                weierstrass(p)


def test_shifted_example_true_indices_and_strangeness_values():
    """The displayed pencil has nilpotency index 2 (c = 0) or 3 (c != 0);
    the quoted per-example index values 1 and 2 are its strangeness levels
    (one below the nilpotency index whenever algebraic equations exist)."""
    for c, nu_true in ((0.0, 2), (1.0, 3), (-1.0, 3), (0.3, 3)):
        rep = analyze(models.ex_shifted_pencil(c=c))
        assert rep.regular
        assert rep.nu == nu_true
        assert rep.mu == nu_true - 1
        assert (rep.d, rep.a) == (0, 4)
    # a, b, d entries do not move the index
    rep = analyze(models.ex_shifted_pencil(a=1.3, b=-0.4, c=0.0, d=2.0))
    assert rep.nu == 2


def test_shift_example_classifications_match():
    lin = models.ex_shift_linear(0.5)
    sf = models.ex_shift_model(0.5)
    from ddaekit.lti import classify_linear
    assert classify_linear(lin) == classify(sf) == Classification(0)


@given(tau=st.floats(1e-3, 10.0))
def test_advanced_default_history_is_admissible_at_every_delay(tau):
    m = models.ex_advanced_model(tau)
    ok, r = admissible(m, m.default_history())
    assert ok and np.all(np.abs(r) <= 1e-12)
