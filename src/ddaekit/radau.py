"""Implicit collocation integration of one delay-free segment.

Inside one method-of-steps segment all delayed quantities are known
functions of time (history or previous-segment dense output), so the
segment is an ordinary strangeness-free DAE.  It is integrated with the
3-stage Radau IIA collocation scheme: stiffly accurate, so the algebraic
part is enforced exactly at step endpoints, which is what breakpoint
consistency of the method of steps requires.  Steps are fixed size with
halving only on Newton failure; reproducibility of reported numbers is
preferred over error control.
"""

import logging
import math
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

# Lagrange basis of the collocation nodes evaluated at 0; the collocation
# polynomial derivative at the step start is their combination of the
# stage derivatives.
_L_AT_0 = np.array([
    RADAU_C[1] * RADAU_C[2] / ((RADAU_C[0] - RADAU_C[1]) * (RADAU_C[0] - RADAU_C[2])),
    RADAU_C[0] * RADAU_C[2] / ((RADAU_C[1] - RADAU_C[0]) * (RADAU_C[1] - RADAU_C[2])),
    RADAU_C[0] * RADAU_C[1] / ((RADAU_C[2] - RADAU_C[0]) * (RADAU_C[2] - RADAU_C[1])),
])

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

    Node states are reproduced exactly by the dense output; derivatives may
    jump at interior nodes, in which case evaluation uses the step to the
    right (time derivatives are one-sided from the right throughout).
    """

    def __init__(self, ts, zs, d_start, d_end, stats):
        self.ts = np.asarray(ts)
        self.zs = np.asarray(zs)
        self.d_start = np.asarray(d_start)     # derivative at each step start
        self.d_end = np.asarray(d_end)         # derivative at each step end
        self.stats = stats

    @property
    def t_start(self):
        return float(self.ts[0])

    @property
    def t_end(self):
        return float(self.ts[-1])

    @property
    def endpoint(self):
        return self.zs[-1]

    def eval(self, t, order=0):
        """Dense output: state (order 0) or right derivative (order 1)."""
        if order not in (0, 1):
            raise ValueError("dense output supports orders 0 and 1 only")
        slack = 1e-9 * max(1.0, abs(self.t_end))
        if t < self.t_start - slack or t > self.t_end + slack:
            raise ValueError(
                f"t={t} outside segment [{self.t_start}, {self.t_end}]")
        k = int(np.searchsorted(self.ts, t, side="right") - 1)
        k = min(max(k, 0), len(self.ts) - 2)
        h = self.ts[k + 1] - self.ts[k]
        s = (t - self.ts[k]) / h
        z0, z1 = self.zs[k], self.zs[k + 1]
        d0, d1 = self.d_start[k], self.d_end[k]
        if order == 0:
            h00 = 2 * s**3 - 3 * s**2 + 1
            h10 = s**3 - 2 * s**2 + s
            h01 = -2 * s**3 + 3 * s**2
            h11 = s**3 - s**2
            return h00 * z0 + h10 * h * d0 + h01 * z1 + h11 * h * d1
        g00 = (6 * s**2 - 6 * s) / h
        g10 = 3 * s**2 - 4 * s + 1
        g01 = (-6 * s**2 + 6 * s) / h
        g11 = 3 * s**2 - 2 * s
        return g00 * z0 + g10 * d0 + g01 * z1 + g11 * d1


def _stage_system(model, stage_ts, stage_lags, h, z_prev, K):
    """Residual and Jacobian of the 3-stage collocation equations."""
    n = model.n
    R = np.empty(3 * n)
    J = np.zeros((3 * n, 3 * n))
    for i in range(3):
        zi = z_prev + h * (RADAU_A[i] @ K)
        ki = K[i]
        ti = stage_ts[i]
        zlags = stage_lags[i]
        R[i * n:(i + 1) * n] = model.residual(ti, zi, ki, zlags)
        Fz = np.zeros((n, n))
        Fz[:model.d] = model.JD_z(ti, zi, ki, zlags[0])
        Fz[model.d:] = model.JA_z(ti, zi, zlags[:model.s_decl])
        Fdot = np.zeros((n, n))
        Fdot[:model.d] = model.JD_zdot(ti, zi, ki, zlags[0])
        for j in range(3):
            block = h * RADAU_A[i, j] * Fz
            if i == j:
                block = block + Fdot
            J[i * n:(i + 1) * n, j * n:(j + 1) * n] = block
    return R, J


def _solve_step(model, t0, h, z_prev, k_guess, problem, opts, stats):
    """One collocation step; returns (z1, d0, d1, k_end) or None on failure."""
    n = model.n
    K = np.tile(k_guess, (3, 1))
    scale = 1.0 + float(np.abs(z_prev).max())
    stage_ts = [t0 + c * h for c in RADAU_C]
    stage_lags = [problem.lags(ti) for ti in stage_ts]
    for _ in range(opts.max_newton):
        R, J = _stage_system(model, stage_ts, stage_lags, h, z_prev, K)
        if stats["cond_pending"]:
            stats["max_stage_cond"] = max(stats["max_stage_cond"],
                                          float(np.linalg.cond(J)))
            stats["cond_pending"] = False
            if stats["max_stage_cond"] > COND_WARN:
                logger.warning("stage Jacobian condition %.2e exceeds %.0e",
                               stats["max_stage_cond"], COND_WARN)
        try:
            delta = np.linalg.solve(J, R)
        except np.linalg.LinAlgError:
            return None
        K -= delta.reshape(3, n)
        stats["newton_iterations"] += 1
        err = h * float(np.abs(delta).max()) / scale
        if not math.isfinite(err):
            return None
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
