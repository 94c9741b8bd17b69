import itertools

import numpy as np
import pytest

from ddaekit.errors import ShapeError, SingularPencil
from ddaekit.lti import (LinearDdae, LtiDescriptor, classify_linear, couple,
                         hybrid_shifted, regularity_theorem_check,
                         sf_model_from_linear)
from ddaekit.pencil import DEFAULT_TOL, is_regular, weierstrass
from ddaekit.sfdae import Classification, SfDdaeModel, classify
from ddaekit import models

from conftest import fd_jacobian, well_conditioned


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
