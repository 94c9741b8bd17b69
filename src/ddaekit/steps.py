"""Method of steps for strangeness-free delay DAEs.

The initial trajectory problem is solved segment by segment on
[(i-1)*tau, i*tau): within a segment the delayed arguments come from the
history (i = 1) or the previous segment's dense output (i > 1), so each
segment is a plain DAE.  The right limit of a segment is the next
segment's initial state; its algebraic residual is checked before every
solve, because advanced systems produce right limits that are not
consistent (an O(1) jump, not integration drift) and the solution ceases
to exist there.
"""

import csv
import math

import numpy as np

from .errors import DdaeError, InadmissibleHistory
from .radau import IntegrationOptions, SegmentProblem, integrate_segment
from .sfdae import admissible

COMPLETE = "Complete"
BROKE_DOWN = "BrokeDown"


class Trajectory:
    """Piecewise solution with breakpoints at multiples of tau.

    ``status`` is "Complete" or "BrokeDown"; in the latter case
    ``breakdown_index`` is the 1-based segment whose initial state was
    inconsistent and ``breakdown_residual`` the offending algebraic
    residual vector.
    """

    def __init__(self, model, history, segments, breakpoints, status,
                 breakdown_index=None, breakdown_residual=None):
        self.model = model
        self.history = history
        self.segments = segments
        self.breakpoints = breakpoints
        self.status = status
        self.breakdown_index = breakdown_index
        self.breakdown_residual = breakdown_residual

    @property
    def complete(self):
        return self.status == COMPLETE

    @property
    def t_end(self):
        return self.segments[-1].t_end if self.segments else 0.0

    @property
    def breakdown_time(self):
        if self.breakdown_index is None:
            return None
        return (self.breakdown_index - 1) * self.model.tau

    @property
    def stats(self):
        """Integrator totals over the segments: step, Newton-iteration and
        halving counts summed, worst stage condition and endpoint residual
        maxed."""
        segs = [seg.stats for seg in self.segments]
        return {
            "steps": sum(s["n_steps"] for s in segs),
            "newton_iterations": sum(s["newton_iterations"] for s in segs),
            "halvings": sum(s["halvings"] for s in segs),
            "max_stage_cond": max((s["max_stage_cond"] for s in segs),
                                  default=0.0),
            "max_endpoint_residual": max(
                (s["max_endpoint_residual"] for s in segs), default=0.0),
        }

    def eval(self, t, order=0):
        return evaluate(self, t, order)

    def segment_index(self, t):
        """1-based segment index covering time t > 0."""
        tau = self.model.tau
        idx = int(math.ceil(t / tau - 1e-9))
        return min(max(idx, 1), len(self.segments))


def evaluate(tr, t, order=0):
    """Trajectory value or right derivative at time t in [-tau, t_end].

    History branch for t <= 0; otherwise dense output of the covering
    segment.  At interior breakpoints the value is continuous by
    construction and derivatives are taken from the right segment (smooth
    transitions across breakpoints cannot be expected for delay systems).
    """
    if order not in (0, 1):
        raise ValueError("trajectory evaluation supports orders 0 and 1")
    tau = tr.model.tau
    if t < -tau - 1e-9 * max(tau, 1.0):
        raise ValueError(f"t={t} precedes the history interval")
    if t <= 0.0 and not (t == 0.0 and tr.segments):
        return tr.history.eval(t, order)
    if t > tr.t_end + 1e-9 * max(1.0, tr.t_end):
        raise ValueError(f"t={t} beyond covered time {tr.t_end}")
    idx = tr.segment_index(t) - 1
    seg = tr.segments[idx]
    # Exact breakpoint hits prefer the right segment.
    if t >= seg.t_end and idx + 1 < len(tr.segments):
        seg = tr.segments[idx + 1]
    return seg.eval(min(t, seg.t_end), order)


def solve_itp(model, phi, T, opts=None):
    """Solve the initial trajectory problem on [0, T] by the method of steps.

    The history must be admissible (consistent endpoint); models declaring
    delayed-derivative order three or more are refused, since the dense
    output only supplies values and first derivatives and such systems
    break down anyway.  Integrator errors propagate with the segment index
    attached; an inconsistent right limit produces a BrokeDown trajectory
    rather than an exception.
    """
    opts = opts or IntegrationOptions()
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if model.s_decl >= 3:
        raise DdaeError(
            f"declared delayed-derivative order {model.s_decl} needs dense "
            f"output beyond first derivatives; such systems are refused")
    tau = model.tau
    ok, r = admissible(model, phi, opts.consistency_tol)
    if not ok:
        raise InadmissibleHistory(
            f"history endpoint violates the algebraic part: |r| = "
            f"{np.linalg.norm(r):.3e}", residual=r)

    n_segments = max(1, int(math.ceil(T / tau - 1e-9)))
    segments = []
    breakpoints = [0.0]
    z0 = phi.eval(0.0)

    for i in range(1, n_segments + 1):
        t_start = (i - 1) * tau
        t_end = min(i * tau, T)
        if i == 1:
            def src(t, k, _phi=phi, _tau=tau):
                return _phi.eval(t - _tau, k)
        else:
            def src(t, k, _prev=segments[-1]):
                return _prev.eval(t - tau, k)
        if i > 1:
            zlags = np.stack([src(t_start, k) for k in range(model.n_lags)])
            r = model.algebraic_residual(t_start, z0, zlags)
            if np.linalg.norm(r) > opts.consistency_tol:
                return Trajectory(model, phi, segments, breakpoints,
                                  BROKE_DOWN, breakdown_index=i,
                                  breakdown_residual=r)
        problem = SegmentProblem(model, t_start, t_end, z0, src)
        try:
            seg = integrate_segment(problem, opts)
        except DdaeError as exc:
            raise type(exc)(f"segment {i}: {exc}") from exc
        segments.append(seg)
        breakpoints.append(seg.t_end)
        z0 = seg.endpoint.copy()
    return Trajectory(model, phi, segments, breakpoints, COMPLETE)


def audit(tr, n_points=1000):
    """Independent residual re-check on a uniform grid.

    Evaluates the stacked [D; A] residual of the original delay system with
    all delayed arguments routed through the trajectory's own dense output.
    Returns (grid, stacked residual inf-norms, algebraic residual norms).
    """
    m = tr.model
    # A broken-down trajectory solves the equations only on [0, t_end); the
    # right endpoint is exactly the inconsistent state.
    ts = np.linspace(0.0, tr.t_end, n_points, endpoint=tr.complete)
    full = np.empty(n_points)
    alg = np.empty(n_points)
    for j, t in enumerate(ts):
        z = evaluate(tr, t)
        zdot = evaluate(tr, t, 1)
        zlags = np.stack([evaluate(tr, t - m.tau, k)
                          for k in range(m.n_lags)])
        r = m.residual(t, z, zdot, zlags)
        full[j] = np.abs(r).max() if r.size else 0.0
        ra = r[m.d:]
        alg[j] = np.abs(ra).max() if ra.size else 0.0
    return ts, full, alg


def breakpoint_consistency(tr):
    """Max algebraic residual over right limits at interior breakpoints."""
    m = tr.model
    worst = 0.0
    for seg in tr.segments:
        t = seg.t_end
        z = seg.endpoint
        zlags = np.stack([evaluate(tr, t - m.tau, k)
                          for k in range(m.n_lags)])
        r = m.algebraic_residual(t, z, zlags)
        if r.size:
            worst = max(worst, float(np.abs(r).max()))
    return worst


def sweep_reference(reference, T, opts=None, history=None, grid_points=400):
    """Solve the delay-free reference once on [0, T].

    Returns (grid, values): the shared evaluation grid and the reference
    states on it.  The history defaults to the model's own.
    """
    traj = solve_itp(reference, history or reference.default_history(), T,
                     opts)
    grid = np.linspace(0.0, T, grid_points)
    return grid, np.stack([evaluate(traj, t) for t in grid])


def sweep_deviation(model, ref, T, opts=None, outputs=None):
    """Solve one delay model from its default history and compare it with
    the ``sweep_reference`` result ``ref``.

    Returns (trajectory, max-norm difference of the designated output
    components on the shared grid).
    """
    grid, ref_vals = ref
    traj = solve_itp(model, model.default_history(), T, opts)
    diff = np.abs(np.stack([evaluate(traj, t) for t in grid]) - ref_vals)
    if outputs is not None:
        diff = diff[:, list(outputs)]
    return traj, float(diff.max())


def tau_sweep(builder, taus, T, opts=None, reference=None,
              reference_history=None, outputs=None, grid_points=400):
    """Compare delay-coupled responses against a delay-free reference.

    ``builder(tau)`` yields the delay model for each tau; the reference
    model (no delay dependence) is solved once.  Returns one
    (tau, trajectory, deviation) triple per tau.
    """
    if reference is None:
        raise ValueError("a delay-free reference model is required")
    ref = sweep_reference(reference, T, opts, reference_history, grid_points)
    return [(tau, *sweep_deviation(builder(tau), ref, T, opts, outputs))
            for tau in taus]


def write_trajectory_csv(tr, path, audited):
    """CSV export: t, z_1..z_n, covering segment index, algebraic residual.

    ``audited`` is the ``audit(tr, ...)`` result whose grid and algebraic
    residuals the rows report.
    """
    ts, _, alg = audited
    labels = [f"z_{i + 1}" for i in range(tr.model.n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *labels, "segment_index", "A_residual_norm"])
        for j, t in enumerate(ts):
            z = evaluate(tr, t)
            writer.writerow([f"{t:.12g}", *(f"{v:.12g}" for v in z),
                             tr.segment_index(t), f"{alg[j]:.6g}"])
