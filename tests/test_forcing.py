import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddaekit.errors import ShapeError
from ddaekit.forcing import SymbolicSignal


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
                omega * t + phase + order * (math.pi / 2.0))
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
