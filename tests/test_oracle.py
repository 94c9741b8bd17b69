"""Accuracy oracle: random linear delay DAEs against an independent method
of steps.

Each system is drawn in canonical coordinates,

    E = S diag(I, N) T,  A0 = S diag(J, I) T,  A1 = S At T,

with N nilpotent and N At_bottom = 0, so no delayed derivative appears.
In y = T x, with g = S^-1 f, it reads

    y1' = J y1 + At_top y(t - tau) + g_top,
    y2  = -At_bottom y(t - tau) - sum_j N^j g_bottom^(j),

which the oracle solves without ddaekit's Wong steps or its Radau
integrator: y1 segment by segment with ``solve_ivp`` (DOP853) and its
dense output, y2 in closed form from the time a delay earlier.  The
comparison holds ddaekit's states to ``res_tol``, the bound it holds every
step's residual to, relative to the solution's size, not to the
arithmetic of today's code.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import well_conditioned
from ddaekit.errors import IllConditioned
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import LinearDdae, sf_model_from_linear
from ddaekit.radau import IntegrationOptions
from ddaekit.steps import evaluate_grid, solve_itp

TAU, T_END = 0.7, 3.0


def _signal(rng, n):
    """Per component a polynomial of degree 1 to 3 plus one or two
    sinusoids, so that every derivative the oracle reads is nonzero."""
    return SymbolicSignal(
        poly=[rng.uniform(-1.0, 1.0, int(rng.integers(2, 5)))
              for _ in range(n)],
        sin=[[tuple(rng.uniform((-1.0, 0.5, -3.0), (1.0, 6.0, 3.0)))
              for _ in range(int(rng.integers(1, 3)))] for _ in range(n)])


class CanonicalDdae:
    """A random linear DDAE in canonical coordinates, its history
    consistent at 0, and the oracle's solution of it."""

    def __init__(self, d, a, chain, seed):
        rng = np.random.default_rng(seed)
        n, self.d = d + a, d
        N = np.zeros((a, a))
        N[range(a - 1), range(1, a)] = chain[:max(a - 1, 0)]
        At = rng.uniform(-1.0, 1.0, (n, n))
        # N At_bottom = 0: row i of At_bottom is zeroed where column i of N
        # is not, so N never meets the delayed state
        At[d:][N.any(axis=0)] = 0.0
        J = rng.uniform(-1.0, 1.0, (d, d))
        S, T = well_conditioned(rng, n), well_conditioned(rng, n)
        E, A0 = np.eye(n), np.eye(n)
        E[d:, d:] = N
        A0[:d, :d] = J
        self.f = _signal(rng, n)
        self.ld = LinearDdae(S @ E @ T, S @ A0 @ T, S @ At @ T, TAU, self.f)
        self.J, self.At = J, At
        self.Sinv, self.Tinv = np.linalg.inv(S), np.linalg.inv(T)
        self.N_powers = [np.linalg.matrix_power(N, j) for j in range(a)]
        # the history in y, its algebraic part lifted by a line through 0
        # at -tau, so that y2(0) is what the algebraic equations ask there
        psi = _signal(rng, n)
        lift = self._y2_given(0.0, psi.eval(-TAU)) - psi.eval(0.0)[d:]
        poly = [list(row) for row in psi.poly]
        for i, c in enumerate(lift, start=d):
            poly[i][0] += c
            poly[i][1] += c / TAU
        self.psi = SymbolicSignal(poly=poly, sin=psi.sin)
        self.history = self.psi.linear_map([(self.Tinv, 0)])
        self.pieces = []

    def _g(self, t, order):
        return self.Sinv @ self.f.eval(t, order)

    def _y2_given(self, t, y_lag):
        """y2 at t from the state y_lag a delay earlier."""
        d = self.d
        acc = -self.At[d:] @ y_lag
        for j, Npow in enumerate(self.N_powers):
            acc -= Npow @ self._g(t, j)[d:]
        return acc

    def y(self, t):
        """The oracle's state in y at a float t in [-tau, T_END]."""
        if t <= 0.0:
            return self.psi.eval(t)
        k = min(int(t // TAU), len(self.pieces) - 1)
        return np.concatenate([self.pieces[k](t),
                               self._y2_given(t, self.y(t - TAU))])

    def solve(self):
        """y1 by DOP853 on each segment, from the state reached before."""
        d, t0 = self.d, 0.0
        y1 = self.psi.eval(0.0)[:d]
        while t0 < T_END:
            t1 = min(t0 + TAU, T_END)
            sol = solve_ivp(
                lambda t, y1: (self.J @ y1 + self.At[:d] @ self.y(t - TAU)
                               + self._g(t, 0)[:d]),
                (t0, t1), y1, method="DOP853", rtol=1e-13, atol=1e-13,
                dense_output=True)
            assert sol.success
            self.pieces.append(sol.sol)
            y1, t0 = sol.y[:, -1], t1

    def x(self, ts):
        return np.array([self.Tinv @ self.y(t) for t in ts])


@settings(max_examples=12)
@given(d=st.integers(1, 3), a=st.integers(0, 3),
       chain=st.lists(st.booleans(), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_linear_ddaes_match_an_independent_method_of_steps(
        d, a, chain, seed):
    # every draw runs on both step rules, under one bound: the wrap's own
    # affine rule, whose blocks carry across segments, and, with the
    # affine flag cleared, the Newton of a callback model
    system = CanonicalDdae(d, a, chain, seed)
    try:
        model = sf_model_from_linear(system.ld)
    except IllConditioned:
        assume(False)
    assert model.s_decl <= 1 and model.affine
    system.solve()
    ts = np.linspace(0.0, T_END, 301)
    want = system.x(ts)
    scale = 1.0 + float(np.abs(want).max())
    opts = IntegrationOptions()
    for affine in (True, False):
        model.affine = affine
        tr = solve_itp(model, system.history, T_END, opts)
        assert tr.complete and tr.t_end == T_END
        err = float(np.abs(evaluate_grid(tr, ts) - want).max())
        assert err <= opts.res_tol * scale, affine
