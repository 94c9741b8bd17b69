"""Implicit collocation integration of one delay-free segment.

Inside one method-of-steps segment all delayed quantities are known
functions of time (history or previous-segment dense output), so the
segment is an ordinary strangeness-free DAE.  It is integrated with the
3-stage Radau IIA collocation scheme: stiffly accurate, so the algebraic
part is enforced exactly at step endpoints, which is what breakpoint
consistency of the method of steps requires.  Steps are fixed size with
halving only on Newton failure; reproducibility of reported numbers is
preferred over error control.

The stage equations are solved by simplified Newton: the model Jacobians
are evaluated once per step, at the predictor of the last stage, and
Hairer's transformation of the Radau IIA matrix (Hairer & Wanner, Solving
ODEs II, IV.8) splits the 3n x 3n stage matrix into one real and one
complex n x n matrix, each inverted once per step.  The continuous
extension is the cubic Hermite of each step, stored as monomial
coefficients when the segment is complete.
"""

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

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

COND_WARN = 1e12


@dataclass
class IntegrationOptions:
    """Tuning knobs of the segment integrator and the method of steps.

    ``h`` is a fixed step size (default tau / steps_per_segment); it must be
    finite and positive.  The residual audit needs at least two points.
    """

    h: float | None = None
    steps_per_segment: int = 200
    newton_tol: float = 1e-10
    res_tol: float = 1e-8
    max_newton: int = 10
    max_halvings: int = 8
    consistency_tol: float = 1e-6
    audit_points: int = 1000

    def __post_init__(self):
        if self.h is not None and not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(
                f"step size h must be finite and positive, got {self.h}")
        if self.audit_points < 2:
            raise ValueError(
                f"audit needs at least 2 points, got {self.audit_points}")

    def step_size(self, tau):
        return self.h if self.h is not None else tau / self.steps_per_segment


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
        return np.stack([src(t, k) for k in range(self.model.n_lags)])


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
        h = np.diff(self.ts)[:, None]
        z0 = zs[:-1]
        dz = zs[1:] - z0
        hd0 = h * np.asarray(d_start)          # d_start: z' at each step start
        hd1 = h * np.asarray(d_end)            # d_end: z' at each step end
        self.coeffs = np.stack(
            [z0, hd0, 3.0 * dz - 2.0 * hd0 - hd1, hd0 + hd1 - 2.0 * dz],
            axis=1)

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


def _newton_factors(Fz, Fdot, h):
    """Inverses of the real and the complex block of the split stage matrix.

    Raises LinAlgError when either block is singular.
    """
    return (np.linalg.inv(_GAMMA * Fdot + h * Fz),
            np.linalg.inv(_ALPHA_BETA * Fdot + h * Fz))


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


def _solve_step(model, t0, h, z_prev, k_guess, problem, opts, stats):
    """One collocation step; returns (z1, d0, d1, k_end) or None on failure."""
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
    if stats["cond_pending"]:
        J = np.kron(np.eye(3), Fdot) + h * np.kron(RADAU_A, Fz)
        stats["max_stage_cond"] = max(stats["max_stage_cond"],
                                      float(np.linalg.cond(J)))
        stats["cond_pending"] = False
        if stats["max_stage_cond"] > COND_WARN:
            logger.warning("stage Jacobian condition %.2e exceeds %.0e",
                           stats["max_stage_cond"], COND_WARN)
    try:
        factors = _newton_factors(Fz, Fdot, h)
    except np.linalg.LinAlgError:
        return None
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
            d0 = _L_AT_0 @ K
            return z1, d0, K[2].copy(), K[2]
    return None


def integrate_segment(problem, opts=None):
    """Integrate one segment with fixed steps and Newton-failure halving.

    Raises InconsistentInitialState when the initial algebraic residual
    exceeds the consistency tolerance, and NewtonDivergence when a step
    fails after all halvings.
    """
    opts = opts or IntegrationOptions()
    model = problem.model
    lags0 = problem.lags(problem.t_start)
    r0 = model.algebraic_residual(problem.t_start, problem.z0, lags0)
    if np.linalg.norm(r0) > opts.consistency_tol:
        raise InconsistentInitialState(
            f"initial state violates the algebraic part: |r| = "
            f"{np.linalg.norm(r0):.3e}", t=problem.t_start, residual=r0)
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
    h_nominal = opts.step_size(tau)
    n_steps = max(1, int(math.ceil(length / h_nominal - 1e-12)))
    h_nominal = length / n_steps
    h_min = tau / 2 ** 15

    stats = {"max_endpoint_residual": 0.0, "max_stage_cond": 0.0,
             "newton_iterations": 0, "halvings": 0, "n_steps": 0,
             "cond_pending": True}
    ts = [problem.t_start]
    zs = [problem.z0.copy()]
    d_start = []
    d_end = []
    z = problem.z0.copy()
    k_guess = np.zeros(model.n)
    t = problem.t_start
    while t < problem.t_end - 1e-12 * max(1.0, abs(problem.t_end)):
        h = min(h_nominal, problem.t_end - t)
        halvings = 0
        while True:
            result = _solve_step(model, t, h, z, k_guess, problem, opts, stats)
            if result is not None:
                break
            halvings += 1
            stats["halvings"] += 1
            stats["cond_pending"] = True
            h *= 0.5
            if halvings > opts.max_halvings or h < h_min:
                r = model.residual(t, z, k_guess, problem.lags(t))
                raise NewtonDivergence(
                    f"Newton failed at t = {t:.6g} after {halvings - 1} "
                    f"halvings", t=t, iterate=z,
                    residual=float(np.abs(r).max()))
        z1, d0, d1, k_guess = result
        t = t + h
        ts.append(t)
        zs.append(z1)
        d_start.append(d0)
        d_end.append(d1)
        z = z1
        stats["n_steps"] += 1
    stats.pop("cond_pending")
    return SegmentSolution(np.array(ts), np.array(zs), np.array(d_start),
                           np.array(d_end), stats)
