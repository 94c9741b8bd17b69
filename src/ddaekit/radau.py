"""Implicit collocation integration of one delay-free segment.

Inside one method-of-steps segment all delayed quantities are known
functions of time (history or previous-segment dense output), so the
segment is an ordinary strangeness-free DAE.  It is integrated with the
3-stage Radau IIA collocation scheme: stiffly accurate, so the algebraic
part is enforced exactly at step endpoints, which is what breakpoint
consistency of the method of steps requires.

By default each step is sized by the residual of its continuous extension,
the quantity the residual audit checks (Shampine, "Solving ODEs and DDEs
with residual control", Appl. Numer. Math. 52, 2005; Enright's defect
control, Appl. Math. Comput. 31, 1989).  A step is accepted when that
residual is at most ``res_tol``, or when the step is already at the floor
tau / STEPS_PER_SEGMENT, so the default never takes more steps than the
fixed step at the floor.  Above the floor, the controller's proposal is
rounded down to the ladder h_floor * 2^(k/8) (``_ladder``), so a step
size repeats exactly.  An explicit ``h`` turns the controller off: fixed
steps, halved only on Newton failure.

The stage equations are solved by simplified Newton (``_NewtonSteps``),
with RADAU5's reuse from step to step (Hairer & Wanner, Solving ODEs II,
IV.8): a step starts from the derivative of the last taken step's
collocation cubic at its stage times, takes the model Jacobians at that
start's last stage, and keeps them and their stage inverse for the next
steps while h repeats exactly and Newton converges in at most two
iterations.  Hairer's transformation of the Radau IIA matrix splits the
3n x 3n stage matrix into one real and one complex n x n block, whose
inverses make its dense inverse: a Newton update is one product.  An
affine model (``SfDdaeModel.affine``) has a step rule of its own
(``_AffineSteps``): its stage equations are linear with constant
Jacobians, read once per run, so it solves them directly, a block of steps
at once (``_stage_block``), with the inverse and the recurrence taken once
per distinct h of the run.  Both rules live for a whole run and share one
stage solve, one failed-factorization rule and one endpoint rule:
``start`` takes up each segment, a call solves one attempt, and ``run``
takes the step just solved, so a step solved but not taken never feeds
the next attempt.  Where h stays, at a fixed h or at the floor, an affine
``run`` also takes the block's steps after it that the loop would accept
alike.  The continuous extension is the cubic Hermite of each step, the
collocation polynomial, stored as monomial coefficients when the segment
is complete.
"""

import functools
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (InconsistentInitialState, NewtonDivergence,
                     check_count, check_positive)

logger = logging.getLogger(__name__)

_S6 = math.sqrt(6.0)

# Radau IIA, 3 stages, order 5.  Last row of RADAU_A equals b (stiffly
# accurate); nodes are the right-endpoint Radau points.
RADAU_C = np.array([(4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0])
RADAU_A = np.array([
    [(88.0 - 7.0 * _S6) / 360.0, (296.0 - 169.0 * _S6) / 1800.0,
     (-2.0 + 3.0 * _S6) / 225.0],
    [(296.0 + 169.0 * _S6) / 1800.0, (88.0 + 7.0 * _S6) / 360.0,
     (-2.0 - 3.0 * _S6) / 225.0],
    [(16.0 - _S6) / 36.0, (16.0 + _S6) / 36.0, 1.0 / 9.0],
])

# plain floats keep stage times off numpy scalars in the model callbacks
# and the dense-output bisection
_C = RADAU_C.tolist()

# Lagrange basis of the collocation nodes evaluated at 0; the collocation
# polynomial derivative at the step start is their combination of the
# stage derivatives.
_L_AT_0 = np.array([
    RADAU_C[1] * RADAU_C[2] / ((RADAU_C[0] - RADAU_C[1]) * (RADAU_C[0] - RADAU_C[2])),
    RADAU_C[0] * RADAU_C[2] / ((RADAU_C[1] - RADAU_C[0]) * (RADAU_C[1] - RADAU_C[2])),
    RADAU_C[0] * RADAU_C[1] / ((RADAU_C[2] - RADAU_C[0]) * (RADAU_C[2] - RADAU_C[1])),
])


@functools.lru_cache(maxsize=64)
def _start_weights(r):
    """W, (3, 3): W @ K reads the quadratic through a step's stages K, the
    derivative of its collocation cubic, at s = 1 + c_j r, the stage times
    of a next step r times as long.  A controlled h repeats exactly, so
    few ratios recur."""
    powers = np.arange(3.0)
    vander = RADAU_C[:, None] ** powers
    return ((1.0 + RADAU_C * r)[:, None] ** powers) @ np.linalg.inv(vander)


# Hairer's transformation (Solving ODEs II, IV.8): inv(RADAU_A) = T L inv(T)
# with L = [[gamma, 0, 0], [0, alpha, -beta], [0, beta, alpha]], so the
# 3n x 3n simplified-Newton system splits into one real n x n system with
# shift gamma and one complex one with shift alpha + i beta.
def _radau_split():
    """W, (9, 3), gamma and alpha + i beta.  Block (i, j) of the stage
    matrix's inverse, (T (x) I) diag(R, [[P, -Q], [Q, P]]) (inv(T)
    inv(RADAU_A) (x) I), is sum_t W[3 i + j, t] S_t over S = (R, P, Q): R
    the real block's inverse and P + i Q the complex one's."""
    ainv = np.linalg.inv(RADAU_A)
    lam, V = np.linalg.eig(ainv)
    # the eigenvector of alpha - i beta puts +beta at L[2, 1]
    r, c = int(np.argmin(np.abs(lam.imag))), int(np.argmin(lam.imag))
    T = np.column_stack([V[:, r].real, V[:, c].real, V[:, c].imag])
    TI_AINV = np.linalg.inv(T) @ ainv
    L = TI_AINV @ T
    (t0, t1, t2), (s0, s1, s2) = T.T, TI_AINV
    W = np.array([np.outer(t0, s0), np.outer(t1, s1) + np.outer(t2, s2),
                  np.outer(t2, s1) - np.outer(t1, s2)])
    return W.reshape(3, 9).T, L[0, 0], complex(L[1, 1], L[2, 1])


_SPLIT, _GAMMA, _ALPHA_BETA = _radau_split()

# The residual of a step's collocation cubic behaves like prod(s - c_i)
# across the step.  Its differential rows are largest at the step start
# (s = 0), where they follow from the derivative jump to the previous step;
# its algebraic rows also vanish at s = 0 and are largest at _S_ALG, the
# extremum of s prod(s - c_i) past the last interior node.  _AT_S_ALG reads
# the cubic there, and h times its derivative, from [z0, z1, h d0, h d1],
# through the monomial rows of ``_hermite``.
_S_ALG = float(max(np.roots(np.polyder(np.poly([0.0, *RADAU_C]))).real))
_AT_S_ALG = np.array([_S_ALG ** np.arange(4.0),
                      [0.0, 1.0, 2.0 * _S_ALG, 3.0 * _S_ALG ** 2]]) @ np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [-3, 3, -2, -1], [2, -2, 1, 1]])

COND_WARN = 1e12

STEPS_PER_SEGMENT = 200    # finest default step tau / STEPS_PER_SEGMENT
SAFETY = 0.1               # the step controller aims at SAFETY * res_tol
MAX_HALVINGS = 8           # per step, on Newton failure
MAX_AUDIT_POINTS = 10**6   # audit grid; peak ~60 bytes per point and state
MAX_BLOCK = 256            # most steps an affine model's stage block covers
# algebraic residual above which an initial state, a history or a
# breakpoint right limit is inconsistent
CONSISTENCY_TOL = 1e-6


@dataclass
class IntegrationOptions:
    """Tuning knobs of the segment integrator and the method of steps.

    ``h`` is a fixed step size.  Without it, each step is sized so that
    the residual of its continuous extension stays within ``res_tol``,
    never finer than tau / STEPS_PER_SEGMENT.  A callback step's Newton
    stops once its scaled update is at most ``newton_tol``, far below the
    order-5 discretisation error at the default.  ``h`` (when given),
    ``newton_tol`` and ``res_tol`` are positive reals, kept as floats, and
    ``max_newton`` (at least 1) and ``audit_points`` (2 to
    MAX_AUDIT_POINTS) counts, kept as ints.
    """

    h: float | None = None
    newton_tol: float = 1e-12
    res_tol: float = 1e-8
    max_newton: int = 10
    audit_points: int = 1000

    def __post_init__(self):
        if self.h is not None:
            self.h = check_positive("h", self.h)
        self.newton_tol = check_positive("newton_tol", self.newton_tol)
        self.res_tol = check_positive("res_tol", self.res_tol)
        self.max_newton = check_count("max_newton", self.max_newton, 1)
        self.audit_points = check_count("audit_points", self.audit_points, 2,
                                        MAX_AUDIT_POINTS)


def _end_slack(t):
    """The one breakpoint slack, at a float or an array of times t: a step
    ending this close to a segment end t ends at t; a time this close to a
    segment start t is read from that segment."""
    return 1e-12 * np.maximum(1.0, np.abs(t))


def _read_slack(b):
    """The one read slack at a float domain bound b, for a caller's rounding
    there (t - tau, a ``linspace`` end); the finer ``_end_slack`` decides
    which side of a breakpoint a time reads and where a step ends."""
    return 1e-9 * max(1.0, abs(b))


def _ladder(h, h_floor):
    """The one step-size ladder of the controller: the largest rung h_floor
    * 2^(k/8), k = 0, 1, ..., at or below h, and the floor below it.  A
    rung is built from its k alone, so equal k give the identical float
    and a step size repeats exactly; halving a rung k >= 8 gives rung k - 8.
    """
    if not h > h_floor:
        return h_floor
    k = math.floor(8.0 * math.log2(h / h_floor) + 1e-9)
    rung = h_floor * 2.0 ** (k / 8)
    return rung if rung <= h else h_floor * 2.0 ** ((k - 1) / 8)


def fit_steps(length, h):
    """The one step-fit rule: ceil(length / h) equal steps cover a segment,
    at least 1, where a ratio a relative 1e-12 above an integer is that
    integer up to rounding.  An overflowing ratio comes back as inf."""
    ratio = length / h * (1.0 - 1e-12)
    return max(1, math.ceil(ratio)) if math.isfinite(ratio) else math.inf


class SegmentProblem:
    """One delay-free DAE segment.  Its delayed data z(t - tau), z'(t -
    tau), ... are read from ``source``, the piece solved before it (the
    history or the previous ``SegmentSolution``), at min(t - tau,
    ``t_start``): that piece ends at this segment's start."""

    def __init__(self, model, t_start, t_end, z0, source):
        if t_end <= t_start:
            raise ValueError("segment must have positive length")
        self.model = model
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.z0 = np.asarray(z0, dtype=float).copy()
        self.source = source

    def lags(self, t):
        """The lag rows z(t - tau), z'(t - tau), ... at a float t, or at
        each of an array of times along a trailing axis, as
        ``SfDdaeModel.residual`` takes them: one ``eval`` read of the source
        per row."""
        tau, start, n_lags = self.model.tau, self.t_start, self.model.n_lags
        t = (min(t - tau, start) if isinstance(t, float) else
             np.minimum(t - tau, start))
        if n_lags == 1 and isinstance(t, float):
            return self.source.eval(t)[None]
        return np.array([self.source.eval(t, k) for k in range(n_lags)])


def _hermite(h, z0, z1, d0, d1):
    """Monomial coefficients (rows c0..c3 along axis -2) of the cubic with
    values z0, z1 and derivatives d0, d1 at the ends of a step of length h;
    all arguments broadcast over leading step axes."""
    dz = z1 - z0
    hd0 = h * d0
    hd1 = h * d1
    return np.stack(
        [z0, hd0, 3.0 * dz - 2.0 * hd0 - hd1, hd0 + hd1 - 2.0 * dz], axis=-2)


class SegmentSolution:
    """Accepted mesh with a C0 cubic-Hermite continuous extension.

    The mesh ``ts`` is a list.  The Hermite cubic of step k is stored once,
    in monomial form, as ``coeffs[k]`` (rows c0..c3): z(t) = c0 + c1 s +
    c2 s^2 + c3 s^3 with s = (t - ts[k]) / h_k.  Node states are c0 of each
    step plus ``endpoint``; the dense output reproduces step starts exactly.
    Derivatives may jump at interior nodes, in which case evaluation uses
    the step to the right (time derivatives are one-sided from the right
    throughout).
    """

    def __init__(self, ts, zs, d_start, d_end, stats):
        self.ts = np.asarray(ts, dtype=float).tolist()
        slack = _read_slack(self.ts[-1])    # at the segment's largest bound
        self._lo, self._hi = self.ts[0] - slack, self.ts[-1] + slack
        zs = np.asarray(zs)
        self.endpoint = zs[-1].copy()
        self.stats = stats
        # d_start, d_end: z' at each step start and end
        self.coeffs = _hermite(np.diff(self.ts)[:, None], zs[:-1], zs[1:],
                               np.asarray(d_start), np.asarray(d_end))

    @property
    def t_end(self):
        return self.ts[-1]

    @property
    def zs(self):
        """Node states, one row per mesh point."""
        return np.vstack([self.coeffs[:, 0], self.endpoint])

    def eval(self, t, order=0):
        """Dense output: state (order 0) or right derivative (order 1) at a
        float t, (n,), or at an array of times in the segment, (n, m), one
        column per time, as ``SymbolicSignal.eval`` returns them: by
        ``bisect`` and ``np.dot``, or by ``_mesh_read``.  Any other real
        scalar reads as ``float(t)``.  A time outside the segment by more
        than ``_read_slack`` raises ValueError."""
        if order not in (0, 1):
            raise ValueError("dense output supports orders 0 and 1 only")
        ts, lo, hi = self.ts, self._lo, self._hi
        if isinstance(t, float):
            if t < lo or t > hi:
                raise ValueError(
                    f"t={t} outside segment [{ts[0]}, {ts[-1]}]")
            k = min(max(bisect_right(ts, t) - 1, 0), len(ts) - 2)
            h = ts[k + 1] - ts[k]
            s = (t - ts[k]) / h
            if order == 0:
                return np.dot([1.0, s, s * s, s * s * s], self.coeffs[k])
            return np.dot([0.0, 1.0 / h, 2.0 * s / h, 3.0 * s * s / h],
                          self.coeffs[k])
        if np.ndim(t) == 0:
            return self.eval(float(t), order)
        if t.min() < lo or t.max() > hi:
            raise ValueError(f"t={t[(t < lo) | (t > hi)][0]} outside "
                             f"segment [{ts[0]}, {ts[-1]}]")
        ts = np.asarray(ts)
        return _mesh_read(ts, ts, self.coeffs, t, order).T


def _mesh_read(keys, nodes, coeffs, t, order):
    """The one array read of the dense output: rows of order 0 or 1 at the
    times t, each from the last step whose key is at or before it, clamped
    to the mesh ``nodes`` (step starts plus its end; step k's cubic is
    ``coeffs[k]``), in the float read's basis and ``np.dot`` bit for bit."""
    k = np.searchsorted(keys, t, side="right") - 1
    k = np.minimum(np.maximum(k, 0), len(nodes) - 2)
    h = nodes[k + 1] - nodes[k]
    s = (t - nodes[k]) / h
    P = np.stack([np.ones_like(s), s, s * s, s * s * s] if order == 0 else
                 [np.zeros_like(s), 1.0 / h, 2.0 * s / h, 3.0 * s * s / h],
                 axis=-1)
    return (P[:, None, :] @ coeffs[k])[:, 0]


def _newton_factors(Fz, Fdot, h):
    """(Minv, cond): the dense 3n x 3n inverse of the stage matrix, made
    from the inverses of the real and the complex block of the split, and
    the larger of the two blocks' 1-norm condition numbers, which
    ``_note_stage_cond`` enters into a segment's stats.

    None, the one failed-factorization rule, when the stage matrix is not
    finite or either block is singular.
    """
    real, cplx = _GAMMA * Fdot + h * Fz, _ALPHA_BETA * Fdot + h * Fz
    if not (np.isfinite(real).all() and np.isfinite(cplx).all()):
        return None
    try:
        real_inv, cplx_inv = np.linalg.inv(real), np.linalg.inv(cplx)
    except np.linalg.LinAlgError:
        return None
    norm_real, norm_real_inv, norm_cplx, norm_cplx_inv = _one_norms(
        real, real_inv, cplx, cplx_inv)
    n = len(Fz)
    S = np.array([real_inv, cplx_inv.real, cplx_inv.imag]).reshape(3, -1)
    Minv = (_SPLIT @ S).reshape(3, 3, n, n)
    return (Minv.transpose(0, 2, 1, 3).reshape(3 * n, -1),
            max(norm_real * norm_real_inv, norm_cplx * norm_cplx_inv))


def _note_stage_cond(cond, stats):
    """Enter a stage condition number into ``stats["max_stage_cond"]``, with
    a warning the first time past COND_WARN."""
    if cond > COND_WARN >= stats["max_stage_cond"]:
        logger.warning("stage Jacobian condition %.2e exceeds %.0e", cond,
                       COND_WARN)
    stats["max_stage_cond"] = max(stats["max_stage_cond"], cond)


def _one_norms(*matrices):
    """1-norms of n x n matrices, in one batch: separate numpy reductions
    would cost about twice as much.  A real matrix's norm equals LAPACK's
    dlange bit for bit; a complex one's rounds |z| differently from
    zlange, by at most a few units in the last place."""
    return np.abs(np.array(matrices)).sum(axis=1).max(axis=1).tolist()


def _newton_update(Minv, R):
    """Solve (I (x) Fdot + h A (x) Fz) dK = R, with one row of R and dK per
    stage, as one real product with the inverse ``Minv`` of
    ``_newton_factors``.  R is (3, n), a step, or (3, n, m), one step or
    state entry per column of m; each column is the (3, n) solve up to
    rounding."""
    return (Minv @ R.reshape(len(Minv), -1)).reshape(R.shape)


def _endpoint_passes(res, opts, stats):
    """The one endpoint rule: a step passes when ``res``, the max norm of its
    endpoint residual, is at most ``opts.res_tol`` (so NaN fails); a
    passing res enters ``stats["max_endpoint_residual"]``."""
    if not res <= opts.res_tol:
        return False
    stats["max_endpoint_residual"] = max(stats["max_endpoint_residual"], res)
    return True


def _jacobians(model, t, z, zdot, lags):
    """F_z and F_zdot, the Jacobians of the model's residual at (t, z,
    zdot) with the lag rows ``lags``."""
    n, d = model.n, model.d
    Fz = np.empty((n, n))
    Fz[:d] = model.JD_z(t, z, zdot, lags[0])
    Fz[d:] = model.JA_z(t, z, lags[:model.s_decl])
    Fdot = np.zeros((n, n))
    Fdot[:d] = model.JD_zdot(t, z, zdot, lags[0])
    return Fz, Fdot


def _start_jacobians(problem, lags0):
    """F_z and F_zdot at a segment's start state and zero rate, with the
    lags ``lags0``, after the spot-check that the algebraic rows of F_z have
    full row rank there, thresholded like the pencil rank decisions;
    non-finite rows are left to the failed-factorization rule of
    ``_newton_factors``."""
    model = problem.model
    Fz, Fdot = _jacobians(model, problem.t_start, problem.z0,
                          np.zeros(model.n), lags0)
    if model.a and np.isfinite(Fz[model.d:]).all():
        sigma = np.linalg.svd(Fz[model.d:], compute_uv=False)
        if sigma[0] == 0.0 or sigma[-1] <= 1e-10 * sigma[0]:
            logger.warning(
                "algebraic Jacobian row rank deficient at t = %.6g "
                "(smallest singular value %.3e)", problem.t_start,
                float(sigma[-1]))
    return Fz, Fdot


def _solve_step(model, t0, h, z_prev, k_guess, problem, opts, stats,
                record=None):
    """One simplified-Newton step of a callback model from the Newton start
    ``k_guess``: one rate for all three stages, (n,), or one per stage, (3,
    n).  ``record``, (h, Fdot, Minv), holds the Jacobian with respect to
    z' and the stage inverse to iterate with; without one, the Jacobians
    are taken at the start's last stage and inverted into a fresh record.

    Returns (z1, d0, d1, Fdot, K, iterations, record), with d0 and d1 the
    end derivatives of the collocation cubic, K its stages and Fdot the
    step's Jacobian with respect to z', or None on failure."""
    K = np.empty((3, model.n))
    K[:] = k_guess
    scale = 1.0 + float(np.abs(z_prev).max())
    stage_ts = [t0 + c * h for c in _C]
    stage_lags = [problem.lags(ti) for ti in stage_ts]
    if record is None:
        # the Jacobians at the start's last stage
        Fz, Fdot = _jacobians(model, stage_ts[2],
                              z_prev + h * (RADAU_A[2] @ K), K[2],
                              stage_lags[2])
        factored = _newton_factors(Fz, Fdot, h)
        if factored is None:
            return None
        _note_stage_cond(factored[1], stats)
        record = h, Fdot, factored[0]
    Minv = record[2]
    R = np.empty((3, model.n))
    err_prev = math.inf
    for iterations in range(1, opts.max_newton + 1):
        Z = z_prev + h * (RADAU_A @ K)
        for i in range(3):
            R[i] = model.residual(stage_ts[i], Z[i], K[i], stage_lags[i])
        if not np.isfinite(R).all():
            return None
        delta = _newton_update(Minv, R)
        K -= delta
        stats["newton_iterations"] += 1
        err = h * float(np.abs(delta).max()) / scale
        # the frozen Jacobian makes the iteration contract linearly; an
        # update that does not shrink means it diverges
        if not err < err_prev:
            return None
        err_prev = err
        if err <= opts.newton_tol:
            # the endpoint residual, at the last stage
            z1 = z_prev + h * (RADAU_A[2] @ K)
            res = float(np.abs(model.residual(stage_ts[2], z1, K[2],
                                              stage_lags[2])).max())
            if not _endpoint_passes(res, opts, stats):
                return None
            return (z1, _L_AT_0 @ K, K[2].copy(), record[1], K, iterations,
                    record)
    return None


class _NewtonSteps:
    """The step rule of a callback model, one for a whole run: one
    ``_solve_step`` per attempt, reusing the last taken step's work
    (Hairer & Wanner, Solving ODEs II, IV.8; Guglielmi & Hairer, RADAR5).

    A step starts Newton from the derivative of the last taken step's
    collocation cubic at its own stage times, s = 1 + c_j h / h_prev in
    that step's variable: the quadratic through that step's stages,
    extrapolated; a segment's first step starts every stage at zero.
    ``solved`` and ``accepted`` are (end, h, ``_solve_step`` result) of the
    step just solved and the one ``run`` took last; ``record`` is the last
    fresh (h, Fdot, Minv).  A step at exactly its h reuses it while the
    last taken step took at most two iterations, and a step failing on it
    is retried once at that h fresh, before the loop halves it.
    """

    def __init__(self, opts):
        self.opts = opts

    def start(self, problem, stats, lags0):
        """Take up the segment ``problem`` with its ``stats``, after the
        rank spot-check at its start (``_start_jacobians``, lags ``lags0``),
        and forget every step before."""
        _start_jacobians(problem, lags0)
        self.problem, self.stats = problem, stats
        self.record = self.solved = self.accepted = None

    def __call__(self, t0, h, z_prev):
        """One step; returns (z1, d0, d1, Fdot) or None."""
        last = self.accepted
        k_guess = (np.zeros(len(z_prev)) if last is None else
                   _start_weights(h / last[1]) @ last[2][4])
        record = self.record
        reuse = (record is not None and record[0] == h and last is not None
                 and last[2][5] <= 2)
        args = (self.problem.model, t0, h, z_prev, k_guess, self.problem,
                self.opts, self.stats)
        result = _solve_step(*args, record if reuse else None)
        if result is None and reuse:
            result = _solve_step(*args)
        if result is None:
            return None
        self.solved, self.record = (t0 + h, h, result), result[6]
        return result[:4]

    def run(self, whole):
        """Take the step just solved, alone whatever ``whole``, as ([end],
        [z1], [d0], [d1])."""
        self.accepted = end, _, result = self.solved
        return [end], [result[0]], [result[1]], [result[2]]


def _stage_block(problem, t, h, size):
    """The stage data (ends, g, lags) of an affine model's next ``size``
    steps at h from t that end in the segment, ends being their end times.

    The starts are the loop's own sums t + h + h + ..., which ``np.cumsum``
    adds in the same order, and the stage times its t + c_i h, so each step
    ends at the next one's start.  g, (3, n, m), holds the model's residual
    at zero state and rate at each stage of each step, from one read of the
    lags and one residual call over all the block's stage times; lags,
    (n_lags, n, m), are the lag rows at the step ends.
    """
    starts = np.cumsum([t] + [h] * (size - 1))
    starts = starts[starts + h <= problem.t_end + _end_slack(problem.t_end)]
    stage_ts = (starts[:, None] + RADAU_C * h).ravel()
    lags = problem.lags(stage_ts)
    zero = np.zeros((problem.model.n, stage_ts.size))
    g = problem.model.residual(stage_ts, zero, zero, lags)
    g = g.reshape(-1, starts.size, 3).transpose(2, 0, 1).copy()
    return stage_ts[2::3], g, lags[:, :, 2::3]


class _AffineSteps:
    """The step rule of an affine model, one for a whole run.

    The stage equations F_z Z_i + F_zdot K_i + g_i = 0, with Z_i = z_prev +
    h sum_j a_ij K_j, are linear: K = -M^-1 (F_z z_prev (x) 1 + g), with
    the stage matrix M of ``_newton_update``, that is K = a - Kz z_prev
    with a = -M^-1 g and Kz = M^-1 (F_z (x) 1).  So the step end z_prev +
    h sum_j a_3j K_j is Phi z_prev + psi, with Phi = I - h sum_j a_3j Kz_j
    and psi = h sum_j a_3j a_j.  The model declares F_z and F_zdot
    constant, so ``start`` reads them, with the rank spot-check, at the
    run's first segment start only.  ``per_h`` holds one record per
    distinct h of the run, built when h is first met: (Minv, Kz, Phi,
    cond), with Minv M's inverse and cond its stage condition, which every
    block solved at h enters into its segment's stats; or None when the
    inverses failed, so a retry at that h fails at once.

    A ``_stage_block`` is solved whole: one batched solve gives every
    step's a, the n x n recurrence z_{k+1} = Phi z_k + psi_k from z_0 =
    z_prev chains the steps, and their K_k = a_k - Kz z_k is one product.
    One residual call over the block's end times gives every endpoint
    residual, and one product every start defect but the first.  An
    attempt at the block's h takes its step at the cursor ``k``, which
    ``run`` moves past the steps it takes; any other attempt gets a block
    solved from its t0 and z_prev.  The run's first block at an h covers
    one step, each next one at that h twice as many, up to MAX_BLOCK, in
    ``sizes``: a segment start only swaps in its problem, its stats and an
    empty block, and a block at another h leaves the size of this one.
    """

    def __init__(self, opts):
        self.opts = opts
        self.Fz = self.Fdot = None
        self.per_h, self.sizes, self.h = {}, {}, None

    def start(self, problem, stats, lags0):
        """Take up the segment ``problem`` with its ``stats`` and no block;
        the run's first reads the Jacobians (``_start_jacobians``)."""
        self.problem, self.stats, self.k, self.ends = problem, stats, 0, []
        if self.Fz is None:
            self.Fz, self.Fdot = _start_jacobians(problem, lags0)

    def __call__(self, t0, h, z_prev):
        """One step; returns (z1, d0, d1, Fdot) or None."""
        if h not in self.per_h:
            record = _newton_factors(self.Fz, self.Fdot, h)
            if record is not None:
                Minv, cond = record
                n = len(self.Fz)
                Kz = _newton_update(Minv, np.broadcast_to(self.Fz, (3, n, n)))
                record = (Minv, Kz,
                          np.eye(n) - h * (Kz.T @ RADAU_A[2]).T, cond)
            self.per_h[h] = record
        record = self.per_h[h]
        if record is None:
            return None
        if h != self.h or self.k == len(self.ends):
            sizes = self.sizes
            sizes[h] = min(2 * sizes[h], MAX_BLOCK) if h in sizes else 1
            self.h = h
            self._solve_block(t0, h, z_prev, record)
        k = self.k
        if not self.finite[k]:
            return None
        self.stats["newton_iterations"] += 1
        if not _endpoint_passes(self.res[k], self.opts, self.stats):
            return None
        return self.z[k + 1], self.d0[k], self.K[2, :, k], self.Fdot

    def run(self, whole):
        """Take the step k just solved, as (ends, z1s, d0s, d1s), and move
        the cursor past it.  With ``whole``, which the loop sets only where
        its controller keeps h, so is each next step of the block that
        ``follows`` the one before it: the attempt the loop would make
        next, which the rule and the controller would accept keeping h.
        Each counts one Newton iteration."""
        k, stats = self.k, self.stats
        j = k + 1 + int(self.follows[k:].argmin()) if whole else k + 1
        self.k = j
        if j > k + 1:
            stats["newton_iterations"] += j - k - 1
            stats["max_endpoint_residual"] = max(
                stats["max_endpoint_residual"], *self.res[k + 1:j])
        return (self.ends[k:j], self.z[k + 1:j + 1], list(self.d0[k:j]),
                list(self.K[2].T[k:j]))

    def _solve_block(self, t0, h, z_prev, record):
        """Solve the block of the next ``sizes[h]`` steps at h from t0 and
        z_prev, the cursor at its first: the chain states ``z``, the stages
        ``K``, (3, n, m), and per step whether K is finite, the endpoint
        residual's max norm, the start derivative of the collocation cubic
        and the end time, from h's ``record``.  ``follows`` holds per step
        whether the next one follows it in a ``run``: that step starts
        before the segment end's slack, its K is finite, its endpoint
        residual at most ``res_tol`` and, under the controller, its start
        defect at least SAFETY * ``res_tol``, which holds a step at the
        floor with no sampled residual (``integrate_segment``); the last
        step has none.
        """
        Minv, Kz, Phi, cond = record
        _note_stage_cond(cond, self.stats)
        problem, tol = self.problem, self.opts.res_tol
        ends, g, lags = _stage_block(problem, t0, h, self.sizes[h])
        self.k = 0
        K = self.K = -_newton_update(Minv, g)
        z = self.z = [z_prev]
        # K.T @ weights sums over stages, one row per step
        for psi in h * (K.T @ RADAU_A[2]):
            z.append(Phi @ z[-1] + psi)
        Z = np.array(z).T
        K -= Kz @ Z[:, :-1]
        r = problem.model.residual(ends, Z[:, 1:], K[2], lags)
        finite = np.isfinite(K).all(axis=(0, 1))
        res = np.abs(r).max(axis=0)
        self.finite, self.res = finite.tolist(), res.tolist()
        self.d0 = K.T @ _L_AT_0
        self.ends = ends.tolist()
        follows = (finite[1:] & (res[1:] <= tol)
                   & (ends[:-1] < problem.t_end - _end_slack(problem.t_end)))
        if self.opts.h is None:
            defects = _start_defect(problem.model, self.Fdot, self.d0[1:].T,
                                    K[2, :, :-1])
            follows &= defects >= SAFETY * tol
        self.follows = np.append(follows, False)


def _start_defect(model, Fdot, d0, d_prev, t0=None, z0=None, lags0=None):
    """Max norm of the differential rows of a step's residual at its start,
    where they are largest: of one step, d0 (n,), or of one step per
    column, d0 and d_prev (n, m).

    ``d0`` is the start derivative of the step's cubic and ``d_prev`` the
    end derivative of the previous step.  It is None at the segment start,
    where the derivative may jump (history or breakpoint), so the rows are
    evaluated there, at t0 and z0 with the lags ``lags0``.  Elsewhere the
    previous cubic satisfies them at the start, and they are linear in z',
    so the jump times the step's Jacobian ``Fdot`` is the residual.
    """
    if d_prev is None:
        r = model.residual(t0, z0, d0, lags0)[:model.d]
    else:
        r = Fdot[:model.d] @ (d0 - d_prev)
    return np.abs(r).max(axis=0, initial=0.0)


def _sampled_residual(problem, t0, h, z0, step):
    """Max norm of a step's residual at _S_ALG, where its algebraic rows
    are largest."""
    z1, d0, d1, _ = step
    z, h_rate = _AT_S_ALG @ np.array([z0, z1, h * d0, h * d1])
    t = t0 + _S_ALG * h
    r = problem.model.residual(t, z, h_rate / h, problem.lags(t))
    return float(np.abs(r).max())


def start_consistency(model, t, z, zlags):
    """The one consistency rule of a history endpoint or a breakpoint right
    limit: (ok, r, norm(r)) for the algebraic residual r of z at time t, no
    overflow warned; ok is norm(r) <= CONSISTENCY_TOL, so NaN or inf fails.
    A finite r whose squares overflow takes its norm scaled by its largest
    entry, so that the norm is finite (up to about 1.8e308)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = model.algebraic_residual(t, z, zlags)
        norm = float(np.linalg.norm(r))
        if norm == math.inf and np.isfinite(r).all():
            big = np.abs(r).max()
            norm = float(big * np.linalg.norm(r / big))
    return norm <= CONSISTENCY_TOL, r, norm


def _step_rule(model, opts):
    """A fresh step rule for one run of ``model``, affine or callback."""
    return (_AffineSteps if model.affine else _NewtonSteps)(opts)


def integrate_segment(problem, opts=None, h_start=None, rule=None):
    """Integrate one segment; steps are halved on Newton failure.

    With ``opts.h`` the steps are fixed.  Otherwise a step whose residual
    estimate (``_start_defect``, ``_sampled_residual``) exceeds
    ``opts.res_tol`` is retried shorter, unless it is at the floor tau /
    STEPS_PER_SEGMENT, and every step sizes the next by the h^3 law of
    that residual, rounded down to a rung of ``_ladder``.  ``h_start`` is
    the first step to try, on the ladder too (default: the floor);
    ``stats["h_next"]`` is the step the segment would have taken next, and
    ``stats["start_residual"]`` the norm of the start's algebraic
    residual.  ``rule`` is the step rule of the run (``_step_rule``), built
    by the caller once for all its segments, or a fresh one; its ``start``
    takes up the segment, and its ``run`` is the only way a step is taken.

    Raises InconsistentInitialState when the start fails
    ``start_consistency``, and NewtonDivergence when a step fails after all
    halvings.
    """
    opts = opts or IntegrationOptions()
    model = problem.model
    lags0 = problem.lags(problem.t_start)
    ok, r0, norm_r0 = start_consistency(model, problem.t_start, problem.z0,
                                        lags0)
    if not ok:
        raise InconsistentInitialState(
            f"initial state violates the algebraic part: |r| = "
            f"{norm_r0:.3e}", t=problem.t_start, residual=r0, norm=norm_r0)
    stats = {"max_endpoint_residual": 0.0, "max_stage_cond": 0.0,
             "newton_iterations": 0, "halvings": 0, "rejected": 0,
             "n_steps": 0, "start_residual": norm_r0}
    rule = rule or _step_rule(model, opts)
    rule.start(problem, stats, lags0)

    length = problem.t_end - problem.t_start
    tau = model.tau
    controlled = opts.h is None
    # the fixed step, or the controller's floor, fitted to the segment
    h_floor = tau / STEPS_PER_SEGMENT if controlled else opts.h
    h_floor = length / int(fit_steps(length, h_floor))  # int(inf) raises
    h_next = h_floor
    if controlled and h_start is not None:
        h_next = min(_ladder(h_start, h_floor), length)
    h_min = tau / 2 ** 15

    ts = [problem.t_start]
    zs = [problem.z0.copy()]
    d_start = []
    d_end = []
    z = problem.z0.copy()
    d_prev = None
    t, t_end = problem.t_start, problem.t_end
    slack = float(_end_slack(t_end))
    while t < t_end:
        # h_next is taken whole when it passes t_end by rounding only
        h = h_next if t + h_next <= t_end + slack else t_end - t
        halvings = 0
        while True:
            result = rule(t, h, z)
            if result is None:
                halvings += 1
                stats["halvings"] += 1
                h *= 0.5
                if halvings > MAX_HALVINGS or h < h_min:
                    r = model.residual(
                        t, z, np.zeros(model.n) if d_prev is None else d_prev,
                        problem.lags(t))
                    raise NewtonDivergence(
                        f"Newton failed at t = {t:.6g} after {halvings - 1} "
                        f"halvings", t=t, iterate=z,
                        residual=float(np.abs(r).max()))
                continue
            if not controlled:
                break
            err = float(_start_defect(model, result[3], result[1], d_prev,
                                      t, z, lags0))
            # the algebraic rows are sampled unless the differential rows
            # alone hold the step at the floor
            if h > h_floor or err < SAFETY * opts.res_tol:
                err = max(err, _sampled_residual(problem, t, h, z, result))
            grow = (4.0 if err == 0.0 else
                    min(4.0, max(0.2, 0.9 * (SAFETY * opts.res_tol / err)
                                 ** (1.0 / 3.0))))
            h_next = min(_ladder(h * grow, h_floor), length)
            if err <= opts.res_tol or h <= h_floor:
                break
            stats["rejected"] += 1
            h = h_next
        # the step taken, with an affine block's steps after it where h
        # stays, at a fixed h or at the floor (``_AffineSteps.run``)
        ends, z1s, d0s, d1s = rule.run(
            h_next == h and (h == h_floor or not controlled))
        if ends[-1] >= t_end - slack:
            ends[-1] = t_end
        ts += ends
        zs += z1s
        d_start += d0s
        d_end += d1s
        t, z, d_prev = ends[-1], z1s[-1], d1s[-1]
        stats["n_steps"] += len(ends)
    stats["h_next"] = h_next
    return SegmentSolution(ts, zs, d_start, d_end, stats)
