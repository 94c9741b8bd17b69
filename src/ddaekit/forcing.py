"""Symbolic time signals: forcing terms and histories.

Signals are sums of a polynomial and finitely many sinusoids per component,
so derivatives of any order are available in closed form.  This is what the
delayed-derivative lags and the admissibility check require; arbitrary
callables would only offer approximate derivatives.  A history is a plain
signal: ``steps.evaluate`` reads it on the trajectory's interval
``[-tau, 0]`` and owns that domain check.
"""

import math

import numpy as np

from .errors import DataError, ShapeError

_HALF_PI = math.pi / 2.0


class SymbolicSignal:
    """Vector-valued map ``t -> R^n`` with exact derivatives of any order.

    Component ``i`` is ``poly_i(t) + sum_k amp * sin(omega * t + phase)``
    where ``poly_i`` is stored as ascending coefficients.  A signal is not
    changed once built: ``eval`` keeps the terms of each derivative order.

    Parameters
    ----------
    poly : sequence of coefficient sequences, one per component
    sin : sequence of ``(amp, omega, phase)`` triple lists, one per component
    dim : dimension override, needed only when both lists are empty
    """

    def __init__(self, poly=None, sin=None, dim=None):
        if poly is None and sin is None and dim is None:
            raise ShapeError("signal needs poly, sin or an explicit dimension")
        n = dim
        if n is None:
            n = len(poly) if poly is not None else len(sin)
        self.dim = int(n)
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
        # derivative order -> ``_derivative_terms(order)``, built on first use
        self._terms = {}

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
        """Evaluate the ``order``-th derivative at time ``t``."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        terms = self._terms.get(order)
        if terms is None:
            terms = self._terms[order] = self._derivative_terms(order)
        out = np.zeros(self.dim)
        for i, (poly, sin) in enumerate(terms):
            acc = 0.0
            for scaled, power in poly:
                acc += scaled * t ** power
            for amp, omega, phase, quarter in sin:
                acc += amp * math.sin(omega * t + phase + quarter)
            out[i] = acc
        return out

    def _derivative_terms(self, order):
        """Per component, the terms of the ``order``-th derivative:
        ``(coeffs[j] * j!/(j-order)!, j - order)`` for the polynomial and
        ``(amp * omega**order, omega, phase, order * pi/2)`` per sinusoid.
        The products are the ones ``eval`` would form left to right, so
        caching them changes no bit of its result."""
        terms = []
        for coeffs, sin in zip(self.poly, self.sin):
            poly = []
            for j in range(order, len(coeffs)):
                fall = 1.0
                for r in range(j, j - order, -1):
                    fall *= r
                poly.append((coeffs[j] * fall, j - order))
            terms.append((
                tuple(poly),
                tuple((amp * omega ** order, omega, phase, order * _HALF_PI)
                      for amp, omega, phase in sin)))
        return terms

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

    # -- serialization --------------------------------------------------

    def to_json(self):
        return {"poly": [list(row) for row in self.poly],
                "sin": [[list(tr) for tr in row] for row in self.sin]}

    @classmethod
    def from_json(cls, data):
        poly = data.get("poly")
        sin = data.get("sin")
        dim = None
        if poly is None and sin is None:
            dim = int(data["dim"])
        return cls(poly=poly, sin=sin, dim=dim)

    def __repr__(self):
        return f"SymbolicSignal(dim={self.dim})"
