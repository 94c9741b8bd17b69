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
fixed step at the floor.  An explicit ``h`` turns the controller off:
fixed steps, halved only on Newton failure.

The stage equations are solved by simplified Newton: the model Jacobians
are evaluated once per step, at the predictor of the last stage, and
Hairer's transformation of the Radau IIA matrix (Hairer & Wanner, Solving
ODEs II, IV.8) splits the 3n x 3n stage matrix into one real and one
complex n x n matrix, each inverted once per step.  The continuous
extension is the cubic Hermite of each step, which is the collocation
polynomial, stored as monomial coefficients when the segment is complete.
"""

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dlange, zlange

from .errors import InconsistentInitialState, NewtonDivergence

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

# Hairer's transformation (Solving ODEs II, IV.8): inv(RADAU_A) = T L inv(T)
# with L = [[gamma, 0, 0], [0, alpha, -beta], [0, beta, alpha]], so the
# 3n x 3n simplified-Newton system splits into one real n x n system with
# shift gamma and one complex one with shift alpha + i beta.
def _radau_split():
    """T, inv(T) @ inv(RADAU_A), gamma and alpha + i beta."""
    ainv = np.linalg.inv(RADAU_A)
    lam, V = np.linalg.eig(ainv)
    # the eigenvector of alpha - i beta puts +beta at L[2, 1]
    r, c = int(np.argmin(np.abs(lam.imag))), int(np.argmin(lam.imag))
    T = np.column_stack([V[:, r].real, V[:, c].real, V[:, c].imag])
    TI_AINV = np.linalg.inv(T) @ ainv
    L = TI_AINV @ T
    return T, TI_AINV, L[0, 0], complex(L[1, 1], L[2, 1])


_T, _TI_AINV, _GAMMA, _ALPHA_BETA = _radau_split()

# The residual of a step's collocation cubic behaves like prod(s - c_i)
# across the step.  Its differential rows are largest at the step start
# (s = 0), where they follow from the derivative jump to the previous step;
# its algebraic rows also vanish at s = 0 and are largest at _S_ALG, the
# extremum of s prod(s - c_i) past the last interior node.
_S_ALG = float(max(np.roots(np.polyder(np.poly([0.0, *RADAU_C]))).real))
_AT_S_ALG = _S_ALG ** np.arange(4.0)
_DS_AT_S_ALG = np.array([0.0, 1.0, 2.0 * _S_ALG, 3.0 * _S_ALG ** 2])

COND_WARN = 1e12

STEPS_PER_SEGMENT = 200    # finest default step tau / STEPS_PER_SEGMENT
SAFETY = 0.1               # the step controller aims at SAFETY * res_tol
MAX_HALVINGS = 8           # per step, on Newton failure
# algebraic residual above which an initial state, a history or a
# breakpoint right limit is inconsistent
CONSISTENCY_TOL = 1e-6


@dataclass
class IntegrationOptions:
    """Tuning knobs of the segment integrator and the method of steps.

    ``h`` is a fixed step size; it must be finite and positive.  Without
    it, each step is sized so that the residual of its continuous
    extension stays within ``res_tol``, never finer than tau /
    STEPS_PER_SEGMENT.  The residual audit needs at least two points.
    """

    h: float | None = None
    newton_tol: float = 1e-10
    res_tol: float = 1e-8
    max_newton: int = 10
    audit_points: int = 1000

    def __post_init__(self):
        if self.h is not None and not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(
                f"step size h must be finite and positive, got {self.h}")
        if self.audit_points < 2:
            raise ValueError(
                f"audit needs at least 2 points, got {self.audit_points}")


class SegmentProblem:
    """One delay-free DAE segment with known delayed data.

    ``delayed_source(t, k)`` returns the k-th derivative of z(t - tau) at
    global time t, for k up to the model's declared order minus one.
    """

    def __init__(self, model, t_start, t_end, z0, delayed_source):
        if t_end <= t_start:
            raise ValueError("segment must have positive length")
        self.model = model
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.z0 = np.asarray(z0, dtype=float).copy()
        self.delayed_source = delayed_source

    def lags(self, t):
        src = self.delayed_source
        return np.array([src(t, k) for k in range(self.model.n_lags)])


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
        zs = np.asarray(zs)
        self.endpoint = zs[-1].copy()
        self.stats = stats
        # d_start, d_end: z' at each step start and end
        self.coeffs = _hermite(np.diff(self.ts)[:, None], zs[:-1], zs[1:],
                               np.asarray(d_start), np.asarray(d_end))

    @property
    def t_start(self):
        return self.ts[0]

    @property
    def t_end(self):
        return self.ts[-1]

    @property
    def zs(self):
        """Node states, one row per mesh point."""
        return np.vstack([self.coeffs[:, 0], self.endpoint])

    def eval(self, t, order=0):
        """Dense output: state (order 0) or right derivative (order 1)."""
        if order not in (0, 1):
            raise ValueError("dense output supports orders 0 and 1 only")
        ts = self.ts
        slack = 1e-9 * max(1.0, abs(ts[-1]))
        if t < ts[0] - slack or t > ts[-1] + slack:
            raise ValueError(
                f"t={t} outside segment [{ts[0]}, {ts[-1]}]")
        k = min(max(bisect_right(ts, t) - 1, 0), len(ts) - 2)
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        if order == 0:
            return np.dot([1.0, s, s * s, s * s * s], self.coeffs[k])
        return np.dot([0.0, 1.0 / h, 2.0 * s / h, 3.0 * s * s / h],
                      self.coeffs[k])

    def eval_grid(self, t, order=0):
        """``eval`` at every time of the array ``t``, bit for bit, one row
        per time; the times lie in the segment.

        The step clamp is ``eval``'s and the basis rows are its products;
        the batched ``matmul`` reproduces its ``np.dot`` exactly, which an
        elementwise sum of the four terms would not.
        """
        if order not in (0, 1):
            raise ValueError("dense output supports orders 0 and 1 only")
        ts = np.asarray(self.ts)
        k = np.searchsorted(ts, t, side="right") - 1
        k = np.minimum(np.maximum(k, 0), len(ts) - 2)
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        if order == 0:
            P = np.stack([np.ones_like(s), s, s * s, s * s * s], axis=-1)
        else:
            P = np.stack([np.zeros_like(s), 1.0 / h, 2.0 * s / h,
                          3.0 * s * s / h], axis=-1)
        return (P[:, None, :] @ self.coeffs[k])[:, 0]


def _newton_factors(Fz, Fdot, h):
    """Inverses of the real and the complex block of the split stage matrix,
    and the larger of the two blocks' 1-norm condition numbers.

    Raises LinAlgError when either block is singular.
    """
    real, cplx = _GAMMA * Fdot + h * Fz, _ALPHA_BETA * Fdot + h * Fz
    factors = np.linalg.inv(real), np.linalg.inv(cplx)
    # LAPACK's norms: numpy's four would cost about as much as both inverses
    cond = max(dlange("1", real) * dlange("1", factors[0]),
               zlange("1", cplx) * zlange("1", factors[1]))
    return factors, cond


def _newton_update(factors, R):
    """Solve (I (x) Fdot + h A (x) Fz) dK = R, with one row of R and dK per
    stage, through the real and complex blocks of ``_newton_factors``."""
    real, cplx = factors
    W = _TI_AINV @ R
    w = cplx @ (W[1] + 1j * W[2])
    W[0] = real @ W[0]
    W[1] = w.real
    W[2] = w.imag
    return _T @ W


def _solve_step(model, t0, h, z_prev, k_guess, problem, opts, stats, last):
    """One collocation step; returns (z1, d0, d1, Fdot), with d0 and d1 the
    end derivatives of the collocation cubic and Fdot the step's Jacobian
    with respect to z', or None on failure.

    ``last`` is a one-item list holding the previous step's ``(h, Fz, Fdot,
    factors, cond)``, or None; its factors are reused when h and both
    Jacobians are equal to the bit, which makes them exactly the factors
    ``_newton_factors`` would return, and replaced otherwise.
    """
    n, d = model.n, model.d
    K = np.array([k_guess] * 3)
    scale = 1.0 + float(np.abs(z_prev).max())
    stage_ts = [t0 + c * h for c in _C]
    stage_lags = [problem.lags(ti) for ti in stage_ts]
    # One Jacobian per step, at the predictor of the last stage.
    z_pred = z_prev + h * k_guess
    lags = stage_lags[2]
    Fz = np.empty((n, n))
    Fz[:d] = model.JD_z(stage_ts[2], z_pred, k_guess, lags[0])
    Fz[d:] = model.JA_z(stage_ts[2], z_pred, lags[:model.s_decl])
    Fdot = np.zeros((n, n))
    Fdot[:d] = model.JD_zdot(stage_ts[2], z_pred, k_guess, lags[0])
    if not (np.isfinite(Fz).all() and np.isfinite(Fdot).all()):
        return None
    prev = last[0]
    if (prev is not None and prev[0] == h and prev[1].tobytes() == Fz.tobytes()
            and prev[2].tobytes() == Fdot.tobytes()):
        factors, cond = prev[3], prev[4]
    else:
        try:
            factors, cond = _newton_factors(Fz, Fdot, h)
        except np.linalg.LinAlgError:
            return None
        last[0] = h, Fz, Fdot, factors, cond
    if cond > COND_WARN >= stats["max_stage_cond"]:
        logger.warning("stage Jacobian condition %.2e exceeds %.0e", cond,
                       COND_WARN)
    stats["max_stage_cond"] = max(stats["max_stage_cond"], cond)
    R = np.empty((3, n))
    err_prev = math.inf
    for _ in range(opts.max_newton):
        Z = z_prev + h * (RADAU_A @ K)
        for i in range(3):
            R[i] = model.residual(stage_ts[i], Z[i], K[i], stage_lags[i])
        if not np.isfinite(R).all():
            return None
        delta = _newton_update(factors, R)
        K -= delta
        stats["newton_iterations"] += 1
        err = h * float(np.abs(delta).max()) / scale
        # the frozen Jacobian makes the iteration contract linearly; an
        # update that does not shrink means it diverges
        if not err < err_prev:
            return None
        err_prev = err
        if err <= opts.newton_tol:
            z1 = z_prev + h * (RADAU_A[2] @ K)
            r_end = model.residual(stage_ts[2], z1, K[2], stage_lags[2])
            res = float(np.abs(r_end).max())
            if res > opts.res_tol:
                return None
            stats["max_endpoint_residual"] = max(
                stats["max_endpoint_residual"], res)
            return z1, _L_AT_0 @ K, K[2].copy(), Fdot
    return None


def _start_defect(model, t0, z0, step, d_prev, lags0):
    """Max norm of the differential rows of a step's residual at its start,
    where they are largest.

    ``d_prev`` is the end derivative of the previous step.  It is None at
    the segment start, where the derivative may jump (history or
    breakpoint), so the rows are evaluated there with the lags ``lags0``.
    Elsewhere the previous cubic satisfies them at t0, and they are linear
    in z', so the jump times the step's Jacobian is the residual.
    """
    _, d0, _, Fdot = step
    if d_prev is None:
        r = model.residual(t0, z0, d0, lags0)[:model.d]
    else:
        r = Fdot[:model.d] @ (d0 - d_prev)
    return float(np.abs(r).max()) if r.size else 0.0


def _sampled_residual(problem, t0, h, z0, step):
    """Max norm of a step's residual at _S_ALG, where its algebraic rows
    are largest."""
    z1, d0, d1, _ = step
    C = _hermite(h, z0, z1, d0, d1)
    t = t0 + _S_ALG * h
    r = problem.model.residual(t, _AT_S_ALG @ C, _DS_AT_S_ALG @ C / h,
                               problem.lags(t))
    return float(np.abs(r).max())


def start_consistency(model, t, z, zlags):
    """The one consistency rule of a history endpoint or a breakpoint right
    limit: (ok, r, norm(r)) for the algebraic residual r of state z at time
    t; ok is norm(r) <= CONSISTENCY_TOL, so a NaN residual fails."""
    r = model.algebraic_residual(t, z, zlags)
    norm = float(np.linalg.norm(r))
    return norm <= CONSISTENCY_TOL, r, norm


def integrate_segment(problem, opts=None, h_start=None):
    """Integrate one segment; steps are halved on Newton failure.

    With ``opts.h`` the steps are fixed.  Otherwise a step whose residual
    estimate (``_start_defect``, ``_sampled_residual``) exceeds
    ``opts.res_tol`` is retried shorter, unless it is at the floor tau /
    STEPS_PER_SEGMENT, and every step sizes the next by the h^3 law of
    that residual.  ``h_start`` is the first step to try (default: the
    floor); ``stats["h_next"]`` is the step the segment would have taken
    next, and ``stats["start_residual"]`` the norm of the start's
    algebraic residual.

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
            f"{norm_r0:.3e}", t=problem.t_start, residual=r0)
    if model.a:
        # spot-check: the algebraic rows must have full row rank here,
        # thresholded like the pencil rank decisions
        JA = np.atleast_2d(model.JA_z(problem.t_start, problem.z0,
                                      lags0[:model.s_decl]))
        sigma = np.linalg.svd(JA, compute_uv=False)
        if sigma[0] == 0.0 or sigma[-1] <= 1e-10 * sigma[0]:
            logger.warning(
                "algebraic Jacobian row rank deficient at t = %.6g "
                "(smallest singular value %.3e)", problem.t_start,
                float(sigma[-1]))

    length = problem.t_end - problem.t_start
    tau = model.tau
    controlled = opts.h is None
    # the fixed step, or the controller's floor, fitted to the segment
    h_floor = tau / STEPS_PER_SEGMENT if controlled else opts.h
    h_floor = length / max(1, int(math.ceil(length / h_floor - 1e-12)))
    h_next = h_floor
    if controlled and h_start is not None:
        h_next = min(max(h_start, h_floor), length)
    h_min = tau / 2 ** 15

    stats = {"max_endpoint_residual": 0.0, "max_stage_cond": 0.0,
             "newton_iterations": 0, "halvings": 0, "rejected": 0,
             "n_steps": 0, "start_residual": norm_r0}
    ts = [problem.t_start]
    zs = [problem.z0.copy()]
    d_start = []
    d_end = []
    z = problem.z0.copy()
    k_guess = np.zeros(model.n)
    d_prev = None
    # the last step's Newton factors (Hairer & Wanner, Solving ODEs II,
    # IV.8): a linear model at a repeated h reuses them
    last = [None]
    t = problem.t_start
    while t < problem.t_end - 1e-12 * max(1.0, abs(problem.t_end)):
        h = min(h_next, problem.t_end - t)
        halvings = 0
        while True:
            result = _solve_step(model, t, h, z, k_guess, problem, opts,
                                 stats, last)
            if result is None:
                halvings += 1
                stats["halvings"] += 1
                h *= 0.5
                if halvings > MAX_HALVINGS or h < h_min:
                    r = model.residual(t, z, k_guess, problem.lags(t))
                    raise NewtonDivergence(
                        f"Newton failed at t = {t:.6g} after {halvings - 1} "
                        f"halvings", t=t, iterate=z,
                        residual=float(np.abs(r).max()))
                continue
            if not controlled:
                break
            err = _start_defect(model, t, z, result, d_prev, lags0)
            # the algebraic rows are sampled unless the differential rows
            # alone hold the step at the floor
            if h > h_floor or err < SAFETY * opts.res_tol:
                err = max(err, _sampled_residual(problem, t, h, z, result))
            grow = (4.0 if err == 0.0 else
                    min(4.0, max(0.2, 0.9 * (SAFETY * opts.res_tol / err)
                                 ** (1.0 / 3.0))))
            h_next = min(max(h * grow, h_floor), length)
            if err <= opts.res_tol or h <= h_floor:
                break
            stats["rejected"] += 1
            h = h_next
        z1, d0, d1, _ = result
        t = t + h
        ts.append(t)
        zs.append(z1)
        d_start.append(d0)
        d_end.append(d1)
        z = z1
        k_guess = d_prev = d1
        stats["n_steps"] += 1
    stats["h_next"] = h_next
    return SegmentSolution(np.array(ts), np.array(zs), np.array(d_start),
                           np.array(d_end), stats)
