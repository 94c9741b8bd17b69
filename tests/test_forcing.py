import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddaekit.errors import ShapeError
from ddaekit.forcing import SymbolicSignal

from conftest import signal_term_scale


def test_polynomial_derivatives_exact():
    # p(t) = 1 + 2t + 3t^2 + 0.5 t^3
    s = SymbolicSignal(poly=[[1.0, 2.0, 3.0, 0.5]])
    t = 0.7
    assert s.eval(t)[0] == pytest.approx(1 + 2 * t + 3 * t**2 + 0.5 * t**3)
    assert s.eval(t, 1)[0] == pytest.approx(2 + 6 * t + 1.5 * t**2)
    assert s.eval(t, 2)[0] == pytest.approx(6 + 3 * t)
    assert s.eval(t, 3)[0] == pytest.approx(3.0)
    assert s.eval(t, 4)[0] == 0.0
    assert s.eval(t, 9)[0] == 0.0


def test_sinusoid_derivatives_exact():
    amp, omega, phase = 2.0, 3.0, 0.4
    s = SymbolicSignal(sin=[[(amp, omega, phase)]])
    t = 0.31
    assert s.eval(t)[0] == pytest.approx(amp * math.sin(omega * t + phase))
    assert s.eval(t, 1)[0] == pytest.approx(
        amp * omega * math.cos(omega * t + phase))
    assert s.eval(t, 2)[0] == pytest.approx(
        -amp * omega**2 * math.sin(omega * t + phase))


def test_shift_matches_direct_evaluation(rng):
    s = SymbolicSignal(poly=[[1.0, -2.0, 0.3, 0.1], [0.5]],
                       sin=[[(1.0, 2.0, 0.1)], [(0.3, 5.0, -0.2)]])
    dt = 0.37
    shifted = s.shift(dt)
    for t in rng.uniform(-2, 2, 10):
        for k in (0, 1, 2):
            assert shifted.eval(t, k) == pytest.approx(s.eval(t + dt, k))


@given(poly=st.lists(st.floats(-10.0, 10.0), max_size=5),
       sin=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 20.0),
                              st.floats(-4.0, 4.0)), max_size=2),
       dt=st.floats(-3.0, 3.0), t=st.floats(-3.0, 3.0), k=st.integers(0, 3))
def test_shift_commutes_with_differentiation(poly, sin, dt, t, k):
    s = SymbolicSignal(poly=[poly], sin=[sin])
    # the size of the terms the k-th derivative sums, which rounding scales
    r = 1.0 + abs(t) + abs(dt)
    scale = (1.0 + sum(abs(c) * math.perm(j, k) * r ** (j - k)
                       for j, c in enumerate(poly) if j >= k)
             + sum(abs(a) * w ** k for a, w, _ in sin))
    got = s.shift(dt).eval(t, k)[0]
    assert abs(got - s.eval(t + dt, k)[0]) <= 1e-11 * scale


def test_stack():
    s = SymbolicSignal(poly=[[1.0, 1.0], [0.0, 2.0]], sin=[[(1.0, 1.0, 0.0)], []])
    g = SymbolicSignal(poly=[[0.5, 0.0, -1.0]], sin=[[(2.0, 3.0, 0.5)]])
    both = s.stack(g)
    assert both.dim == 3
    assert both.eval(0.3) == pytest.approx(
        np.concatenate([s.eval(0.3), g.eval(0.3)]))


def test_zero_constant_and_json_roundtrip():
    z = SymbolicSignal.zero(3)
    assert np.array_equal(z.eval(1.7), np.zeros(3))
    c = SymbolicSignal.constant([1.0, -2.0])
    assert np.array_equal(c.eval(5.0), [1.0, -2.0])
    assert np.array_equal(c.eval(5.0, 1), [0.0, 0.0])

    s = SymbolicSignal(poly=[[1.0, 2.0]], sin=[[(0.5, 2.0, 0.1)]])
    rt = SymbolicSignal.from_json(s.to_json())
    assert rt.eval(0.4, 1) == pytest.approx(s.eval(0.4, 1))


def test_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        SymbolicSignal(poly=[[1.0]], sin=[[], []])


def _eval_term_by_term(signal, t, order):
    """Every derivative term formed in full at each call."""
    out = np.zeros(signal.dim)
    for i in range(signal.dim):
        acc = 0.0
        coeffs = signal.poly[i]
        for j in range(order, len(coeffs)):
            fall = 1.0
            for r in range(j, j - order, -1):
                fall *= r
            acc += coeffs[j] * fall * t ** (j - order)
        for amp, omega, phase in signal.sin[i]:
            acc += amp * omega ** order * math.sin(
                omega * t + (phase + order * (math.pi / 2.0)))
        out[i] = acc
    return out


@given(poly=st.lists(st.lists(st.floats(-1e3, 1e3), max_size=6),
                     min_size=1, max_size=3),
       sin=st.lists(st.lists(st.tuples(st.floats(-5.0, 5.0),
                                       st.floats(0.0, 60.0),
                                       st.floats(-7.0, 7.0)), max_size=3),
                    min_size=3, max_size=3),
       t=st.floats(-20.0, 20.0),
       orders=st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_eval_equals_term_by_term_formula_bit_for_bit(poly, sin, t, orders):
    s = SymbolicSignal(poly=poly, sin=sin[:len(poly)])
    # repeated orders read the terms cached by the first
    for k in orders:
        assert s.eval(t, k).tobytes() == _eval_term_by_term(s, t, k).tobytes()


@given(poly=st.lists(st.lists(st.floats(-1e3, 1e3), max_size=3),
                     min_size=1, max_size=3),
       sin=st.lists(st.lists(st.tuples(st.floats(-5.0, 5.0),
                                       st.floats(0.0, 60.0),
                                       st.floats(-7.0, 7.0)), max_size=2),
                    min_size=3, max_size=3),
       ts=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8),
       order=st.integers(0, 1))
def test_array_eval_equals_float_eval_bit_for_bit(poly, sin, ts, order):
    # the array path skips the powers 0 and 1 of t, which the float path
    # computes exactly, so each column is the float read of its time;
    # polynomials are cut where the derivative read is linear, because at
    # powers 2 and up numpy's array power and the float pow can round apart
    s = SymbolicSignal(poly=[row[:2 + order] for row in poly],
                       sin=sin[:len(poly)])
    got = s.eval(np.array(ts), order)
    assert got.shape == (s.dim, len(ts))
    for j, t in enumerate(ts):
        assert got[:, j].tobytes() == s.eval(t, order).tobytes()


_signal_rows = st.lists(
    st.tuples(st.lists(st.floats(-10.0, 10.0), max_size=5),
              st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 20.0),
                                 st.floats(-4.0, 4.0)), max_size=2)),
    min_size=1, max_size=3)


# the k-th derivative of sin, for k mod 4
_SIN_DERIVATIVES = (math.sin, math.cos, lambda x: -math.sin(x),
                    lambda x: -math.cos(x))


def _derivative_oracle(signal, t, k):
    """The k-th derivative by numpy's polynomial calculus and the
    four-cycle of sine derivatives, apart from the signal's own rule."""
    out = np.zeros(signal.dim)
    for i, (coeffs, sin) in enumerate(zip(signal.poly, signal.sin)):
        if coeffs:
            out[i] = P.polyval(t, P.polyder(coeffs, k))
        for amp, omega, phase in sin:
            out[i] += amp * omega ** k * _SIN_DERIVATIVES[k % 4](
                omega * t + phase)
    return out


@given(comps=_signal_rows, t=st.floats(-5.0, 5.0), k=st.integers(0, 4),
       more=st.lists(st.floats(-5.0, 5.0), max_size=3))
def test_eval_matches_an_independent_derivative_oracle(comps, t, k, more):
    s = SymbolicSignal(poly=[p for p, _ in comps], sin=[w for _, w in comps])
    # each time read as a float and all of them as one array, a column each
    ts = [t, *more]
    grid = s.eval(np.array(ts), k)
    assert grid.shape == (s.dim, len(ts))
    for j, tj in enumerate(ts):
        want = _derivative_oracle(s, tj, k)
        # relative to the terms summed; the floor covers subnormal draws only
        tol = 1e-13 * signal_term_scale(s, tj, k) + 1e-300
        assert np.all(np.abs(s.eval(tj, k) - want) <= tol)
        assert np.all(np.abs(grid[:, j] - want) <= tol)


def _with_zeros(M, rows, cols):
    """M with the rows and columns flagged in ``rows``/``cols`` zeroed."""
    M = np.array(M)
    M[np.array(rows, dtype=bool)] = 0.0
    M[:, np.array(cols, dtype=bool)] = 0.0
    return M


@st.composite
def _mapped_signals(draw):
    comps = draw(_signal_rows)
    s = SymbolicSignal(poly=[p for p, _ in comps], sin=[w for _, w in comps])
    m = draw(st.integers(0, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        M = draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=s.dim,
                                   max_size=s.dim), min_size=m, max_size=m))
        M = _with_zeros(np.array(M).reshape(m, s.dim),
                        draw(st.lists(st.booleans(), min_size=m, max_size=m)),
                        draw(st.lists(st.booleans(), min_size=s.dim,
                                      max_size=s.dim)))
        terms.append((M, draw(st.integers(0, 3))))
    return s, terms


@given(drawn=_mapped_signals(), t=st.floats(-5.0, 5.0),
       k=st.integers(0, 2))
def test_linear_map_equals_the_matrices_applied_to_derivatives(drawn, t, k):
    s, terms = drawn
    mapped = s.linear_map(terms)
    assert mapped.dim == terms[0][0].shape[0]
    # the k-th derivative of the map is the map of the k-th derivatives
    want = sum(M @ s.eval(t, o + k) for M, o in terms)
    scale = sum(np.abs(M) @ signal_term_scale(s, t, o + k) for M, o in terms)
    # relative to the terms summed; the floor covers subnormal draws only
    assert np.all(np.abs(mapped.eval(t, k) - want) <= 1e-13 * scale + 1e-300)
    # zero rows of every matrix stay empty components
    for i in range(mapped.dim):
        if not any(M[i].any() for M, _ in terms):
            assert mapped.poly[i] == () and mapped.sin[i] == ()
    back = SymbolicSignal.from_json(mapped.to_json())
    assert back.poly == mapped.poly and back.sin == mapped.sin
    assert back.eval(t, k).tobytes() == mapped.eval(t, k).tobytes()


def test_linear_map_rejects_mismatched_matrices():
    s = SymbolicSignal(poly=[[1.0], [2.0]])
    with pytest.raises(ShapeError):
        s.linear_map([(np.ones((1, 3)), 0)])
    with pytest.raises(ShapeError):
        s.linear_map([(np.ones((1, 2)), 0), (np.ones((2, 2)), 1)])
