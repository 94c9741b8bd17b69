"""Symbolic time signals: forcing terms and histories.

Signals are sums of a polynomial and finitely many sinusoids per component,
so derivatives of any order are available in closed form.  This is what the
delayed-derivative lags and the admissibility check require; arbitrary
callables would only offer approximate derivatives.  A history is a plain
signal, piece 0 of a trajectory: the first segment of ``steps.solve_itp``
reads its lags from it through the ``eval`` contract that a segment's dense
output (``radau.SegmentSolution``) shares, and ``steps.evaluate_grid``
reads it before 0, in one array ``eval``, and owns that domain check.
"""

import math

import numpy as np

from .errors import DataError, ShapeError, check_count

_HALF_PI = math.pi / 2.0


class SymbolicSignal:
    """Vector-valued map ``t -> R^n`` with exact derivatives of any order.

    Component ``i`` is ``poly_i(t) + sum_k amp * sin(omega * t + phase)``
    where ``poly_i`` is stored as ascending coefficients.  A signal is not
    changed once built, so each of its derivatives is built once.

    Parameters
    ----------
    poly : sequence of coefficient sequences, one per component
    sin : sequence of ``(amp, omega, phase)`` triple lists, one per component
    dim : dimension override, needed only when both lists are empty
    """

    def __init__(self, poly=None, sin=None, dim=None):
        if poly is None and sin is None and dim is None:
            raise ShapeError("signal needs poly, sin or an explicit dimension")
        if dim is None:
            dim = len(poly) if poly is not None else len(sin)
        self.dim = check_count("signal dim", dim, 0)
        poly = [[]] * self.dim if poly is None else poly
        sin = [[]] * self.dim if sin is None else sin
        if len(poly) != self.dim or len(sin) != self.dim:
            raise ShapeError("poly/sin component counts disagree with dim")
        self.poly = [tuple(float(c) for c in row) for row in poly]
        self.sin = [tuple((float(a), float(w), float(p)) for a, w, p in row)
                    for row in sin]
        for row in self.poly:
            if not all(math.isfinite(c) for c in row):
                raise DataError("non-finite polynomial coefficient")
        for row in self.sin:
            for tr in row:
                if not all(math.isfinite(v) for v in tr):
                    raise DataError("non-finite sinusoid parameter")
        # per component, the (power, coefficient) pairs and the sinusoids
        # that ``eval`` sums
        self._terms = tuple((tuple(enumerate(row)), sin)
                            for row, sin in zip(self.poly, self.sin))
        # derivative order -> ``_derivative(order)``, built on first use
        self._derivatives = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim=dim)

    @classmethod
    def constant(cls, values):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(poly=[[v] for v in values])

    # -- evaluation -----------------------------------------------------

    def eval(self, t, order=0):
        """Evaluate the ``order``-th derivative at time ``t``, a float, or
        at an array of times, one column per time."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        signal = self._derivative(order) if order else self
        if isinstance(t, float):
            sine, out = math.sin, np.zeros(self.dim)
        else:
            sine, out = np.sin, np.zeros((self.dim, *np.shape(t)))
        for i, (poly, sin) in enumerate(signal._terms):
            acc = 0.0
            for power, c in poly:
                # t ** 0 is exactly 1 and t ** 1 exactly t: at an array of
                # times, skipping both spares two ufunc calls
                acc += (c if power == 0 else c * t if power == 1 else
                        c * t ** power)
            for amp, omega, phase in sin:
                acc += amp * sine(omega * t + phase)
            out[i] = acc
        return out

    def _derivative(self, order):
        """The one derivative rule: coefficient p of a polynomial moves to
        p - order, times p!/(p - order)!, and a sinusoid ``(amp, omega,
        phase)`` becomes ``(amp * omega**order, omega, phase + order *
        pi/2)``.  Built on the first use of each order."""
        if not order:
            return self
        signal = self._derivatives.get(order)
        if signal is None:
            signal = self._derivatives[order] = SymbolicSignal(
                poly=[[c * math.perm(p, order) for p, c in enumerate(row)]
                      [order:] for row in self.poly],
                sin=[[(amp * omega ** order, omega, phase + order * _HALF_PI)
                      for amp, omega, phase in row] for row in self.sin],
                dim=self.dim)
        return signal

    # -- algebra --------------------------------------------------------

    def shift(self, dt):
        """Return the signal ``t -> self(t + dt)``."""
        new_poly = []
        for coeffs in self.poly:
            m = len(coeffs)
            row = [0.0] * m
            for j, c in enumerate(coeffs):
                for i in range(j + 1):
                    row[i] += c * math.comb(j, i) * dt ** (j - i)
            new_poly.append(row)
        new_sin = [[(a, w, p + w * dt) for a, w, p in row] for row in self.sin]
        return SymbolicSignal(poly=new_poly, sin=new_sin, dim=self.dim)

    def stack(self, other):
        """Concatenate two signals into one of dimension ``n1 + n2``."""
        return SymbolicSignal(poly=list(self.poly) + list(other.poly),
                              sin=list(self.sin) + list(other.sin))

    def linear_map(self, terms):
        """Return the signal ``t -> sum_k M_k @ self^(o_k)(t)`` for the
        ``(M_k, o_k)`` pairs of ``terms``, all ``M_k`` with the same row
        count and ``self.dim`` columns.

        A derivative of a polynomial-plus-sinusoid signal is again one
        (``_derivative``), so the result is exact: the coefficients of the
        derivatives combine linearly, and each sinusoid of component j is
        scaled by ``M_k[i, j]``.  Zero entries of ``M_k`` contribute no term.
        """
        rows = {np.shape(M)[0] for M, _ in terms}
        if len(rows) != 1 or any(np.shape(M)[1] != self.dim
                                 for M, _ in terms):
            raise ShapeError(f"linear_map needs matrices of one row count "
                             f"and {self.dim} columns")
        m = rows.pop()
        poly = [[] for _ in range(m)]
        sin = [[] for _ in range(m)]
        for M, order in terms:
            derivative = self._derivative(order)
            for i, j in zip(*np.nonzero(M)):
                c = float(M[i, j])
                row = poly[i]
                coeffs = derivative.poly[j]
                row += [0.0] * (len(coeffs) - len(row))
                for p, a in enumerate(coeffs):
                    row[p] += c * a
                sin[i] += [(c * amp, omega, phase)
                           for amp, omega, phase in derivative.sin[j]]
        return SymbolicSignal(poly=poly, sin=sin, dim=m)

    # -- serialization --------------------------------------------------

    def to_json(self):
        return {"poly": [list(row) for row in self.poly],
                "sin": [[list(tr) for tr in row] for row in self.sin]}

    @classmethod
    def from_json(cls, data, dim=None):
        """The signal of ``to_json`` output or the zero one of ``{"dim":
        n}`` with n a count, else DataError.  With ``dim``, the forcing of
        a state of that dimension: one of another dimension is refused by
        ``_check_forcing_dim`` before it is built."""
        try:
            poly, sin = data.get("poly"), data.get("sin")
            count = check_count("signal dim", len(poly) if poly is not None
                                else len(sin) if sin is not None
                                else data["dim"], 0)
            if dim is not None:
                _check_forcing_dim(count, dim)
            return cls(poly=poly, sin=sin, dim=count)
        except (AttributeError, TypeError, OverflowError) as exc:
            raise DataError(f"malformed signal: {exc}") from exc

    def __repr__(self):
        return f"SymbolicSignal(dim={self.dim})"


def _check_forcing_dim(k, n):
    """ShapeError unless a forcing of dimension k fits a state of dim n."""
    if k != n:
        raise ShapeError(f"forcing dimension {k} != state dim {n}")
