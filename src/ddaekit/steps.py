"""Method of steps for strangeness-free delay DAEs.

The initial trajectory problem is solved segment by segment on
[(i-1)*tau, i*tau): within a segment the delayed arguments are the
trajectory already solved, i.e. the history (i = 1) or the previous
segment's dense output (i > 1), so each segment is a plain DAE.  The right
limit of a segment is the next segment's initial state; the segment solver
checks its algebraic residual before every solve, because advanced systems
produce right limits that are not consistent (an O(1) jump, not
integration drift) and the solution ceases to exist there.
"""

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DdaeError, InadmissibleHistory, InconsistentInitialState,
                     ShapeError)
from .forcing import SymbolicSignal
from .radau import IntegrationOptions, SegmentProblem, integrate_segment
from .sfdae import SfDdaeModel

COMPLETE = "Complete"
BROKE_DOWN = "BrokeDown"

SWEEP_GRID_POINTS = 400    # shared grid of a delay sweep

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class Trajectory:
    """Piecewise solution with breakpoints at multiples of tau.

    ``history`` is the solution on [-tau, 0], a plain ``SymbolicSignal``;
    ``evaluate`` reads it there.  ``solve_itp`` appends one ``SegmentSolution`` per solved segment.
    ``status`` is "Complete" or "BrokeDown"; in the latter case
    ``breakdown_index`` is the 1-based segment whose initial state was
    inconsistent and ``breakdown_residual`` the offending algebraic
    residual vector.
    """

    model: SfDdaeModel
    history: SymbolicSignal
    segments: list = field(default_factory=list)
    status: str = COMPLETE
    breakdown_index: int | None = None
    breakdown_residual: np.ndarray | None = None

    @property
    def complete(self):
        return self.status == COMPLETE

    @property
    def t_end(self):
        return self.segments[-1].t_end if self.segments else 0.0

    @property
    def breakpoints(self):
        """0 and the end of every solved segment."""
        return [0.0, *(seg.t_end for seg in self.segments)]

    @property
    def breakdown_time(self):
        if self.breakdown_index is None:
            return None
        return (self.breakdown_index - 1) * self.model.tau

    @property
    def stats(self):
        """Integrator totals over the segments: step, Newton-iteration,
        halving and rejected-step counts summed, worst stage condition,
        endpoint residual and start residual maxed."""
        segs = [seg.stats for seg in self.segments]
        return {
            "steps": sum(s["n_steps"] for s in segs),
            "newton_iterations": sum(s["newton_iterations"] for s in segs),
            "halvings": sum(s["halvings"] for s in segs),
            "rejected": sum(s["rejected"] for s in segs),
            "max_stage_cond": max((s["max_stage_cond"] for s in segs),
                                  default=0.0),
            "max_endpoint_residual": max(
                (s["max_endpoint_residual"] for s in segs), default=0.0),
            "max_start_residual": max(
                (s["start_residual"] for s in segs), default=0.0),
        }

    def delayed(self, t, k):
        """k-th right derivative of z(t - tau): the delayed data a segment
        reads, from the history or from the segments already solved."""
        return evaluate(self, t - self.model.tau, k)

    def segment_index(self, t):
        """1-based index of the segment covering time t >= 0: the last one
        that starts at or before t, where a time within rounding of a
        breakpoint, such as t - tau at a segment start, counts as that
        breakpoint."""
        segs = self.segments
        n = len(segs)
        # segment i starts at i * tau, so t / tau is off by at most one;
        # comparisons rather than min/max, since every lag read runs this
        i = int(t / self.model.tau)
        if i >= n:
            i = n - 1
        slack = 1e-12 * (t if t > 1.0 else 1.0)
        if i + 1 < n and t >= segs[i + 1].ts[0] - slack:
            i += 1
        elif t < segs[i].ts[0] - slack:
            i -= 1
        return i + 1

    def segment_indices(self, ts):
        """``segment_index`` of every time of the array ``ts``, each in
        [0, t_end]: the same rule with the same rounding, applied to the
        whole array."""
        # the start after the last segment never comes
        starts = np.array([*(seg.ts[0] for seg in self.segments), np.inf])
        i = np.minimum((ts / self.model.tau).astype(np.intp),
                       len(self.segments) - 1)
        slack = 1e-12 * np.maximum(ts, 1.0)
        up = ts >= starts[i + 1] - slack
        down = ~up & (ts < starts[i] - slack)
        return i + up - down + 1


def _read_domain(tr):
    """The one domain rule of trajectory reads, as (lo, t_end, hi): a time
    must lie in [lo, hi], which is [-tau, t_end] up to a rounding slack
    (t_end is 0 while no segment is solved), and a time in [t_end, hi]
    reads t_end."""
    tau = tr.model.tau
    t_end = tr.t_end
    return -tau - 1e-9 * max(tau, 1.0), t_end, t_end + 1e-9 * max(1.0, t_end)


def _domain_error(t, lo, t_end):
    return ValueError(f"t={t} precedes the history interval" if t < lo
                      else f"t={t} beyond covered time {t_end}")


def evaluate(tr, t, order=0):
    """Trajectory value or right derivative at time t in [-tau, t_end].

    The time must pass the domain rule (``_read_domain``).  The history
    signal is read for t < 0 and while no segment is solved; otherwise the
    dense output of the covering segment (``Trajectory.segment_index``).
    At interior breakpoints the value is continuous by construction and
    derivatives are taken from the right segment (smooth transitions
    across breakpoints cannot be expected for delay systems).
    """
    if order not in (0, 1):
        raise ValueError("trajectory evaluation supports orders 0 and 1")
    lo, t_end, hi = _read_domain(tr)
    if not lo <= t <= hi:
        raise _domain_error(t, lo, t_end)
    if t >= t_end:
        t = t_end
    if t < 0.0 or not tr.segments:
        return tr.history.eval(t, order)
    return tr.segments[tr.segment_index(t) - 1].eval(t, order)


def evaluate_grid(tr, ts, order=0):
    """``evaluate`` at every time of the array ``ts``, bit for bit, one row
    per time.

    The domain rule, the segment rule (``Trajectory.segment_indices``) and
    each segment's dense output (``SegmentSolution.eval_grid``) are applied
    to the whole array; the history is read one time at a time.  A time
    outside the domain raises ``evaluate``'s error for the first such time.
    """
    if order not in (0, 1):
        raise ValueError("trajectory evaluation supports orders 0 and 1")
    ts = np.asarray(ts, dtype=float)
    lo, t_end, hi = _read_domain(tr)
    outside = np.flatnonzero(~((ts >= lo) & (ts <= hi)))
    if outside.size:
        raise _domain_error(ts[outside[0]], lo, t_end)
    ts = np.minimum(ts, t_end)
    out = np.empty((ts.size, tr.model.n))
    past = ts < 0.0 if tr.segments else np.ones(ts.size, dtype=bool)
    for j in np.flatnonzero(past):
        out[j] = tr.history.eval(ts[j], order)
    rows = np.flatnonzero(~past)
    if rows.size:
        seg_of = tr.segment_indices(ts[rows])
        for i, seg in enumerate(tr.segments, start=1):
            sel = rows[seg_of == i]
            if sel.size:
                out[sel] = seg.eval_grid(ts[sel], order)
    return out


def check_horizon(T):
    """ValueError unless the horizon T is finite and positive."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and positive, got {T!r}")


def solve_itp(model, phi, T, opts=None):
    """Solve the initial trajectory problem on [0, T] by the method of steps.

    Every segment reads its delayed data from the trajectory built so far,
    starts with the step its predecessor would have taken next, and
    ``integrate_segment`` decides whether it starts consistently.  An
    inconsistent start of the first segment is an inadmissible history
    (InadmissibleHistory); on a later segment it is a breakdown, returned
    as a BrokeDown trajectory rather than raised.  Models declaring
    delayed-derivative order three or more are refused, since the dense
    output only supplies values and first derivatives and such systems
    break down anyway.  Other integrator errors propagate with the segment
    index attached.  A history whose dimension is not the model's is a
    ShapeError.
    """
    if phi.dim != model.n:
        raise ShapeError(
            f"history has {phi.dim} components, model needs {model.n}")
    opts = opts or IntegrationOptions()
    check_horizon(T)
    if model.s_decl >= 3:
        raise DdaeError(
            f"declared delayed-derivative order {model.s_decl} needs dense "
            f"output beyond first derivatives; such systems are refused")
    tau = model.tau
    n_segments = max(1, int(math.ceil(T / tau - 1e-9)))
    tr = Trajectory(model, phi)
    z0 = phi.eval(0.0)
    h = None
    for i in range(1, n_segments + 1):
        problem = SegmentProblem(model, (i - 1) * tau, min(i * tau, T), z0,
                                 tr.delayed)
        try:
            seg = integrate_segment(problem, opts, h)
        except InconsistentInitialState as exc:
            if i == 1:
                raise InadmissibleHistory(
                    f"history endpoint violates the algebraic part: |r| = "
                    f"{np.linalg.norm(exc.residual):.3e}",
                    residual=exc.residual) from exc
            tr.status = BROKE_DOWN
            tr.breakdown_index = i
            tr.breakdown_residual = exc.residual
            return tr
        except DdaeError as exc:
            raise type(exc)(f"segment {i}: {exc}") from exc
        tr.segments.append(seg)
        z0 = seg.endpoint
        h = seg.stats["h_next"]
        if logger.isEnabledFor(logging.DEBUG):
            st, hs = seg.stats, np.diff(seg.ts)
            logger.debug(
                "segment %d: %d steps, %d rejected, %d Newton iterations, "
                "h %.3g to %.3g, start residual %.3g", i, st["n_steps"],
                st["rejected"], st["newton_iterations"], hs.min(), hs.max(),
                st["start_residual"])
    return tr


def audit(tr, n_points=1000):
    """Independent residual re-check on a uniform grid.

    Evaluates the stacked [D; A] residual of the original delay system with
    all delayed arguments routed through the trajectory's own dense output.
    Returns (grid, stacked residual inf-norms, algebraic residual norms,
    states read on the grid).
    """
    m = tr.model
    # A broken-down trajectory solves the equations only on [0, t_end); the
    # right endpoint is exactly the inconsistent state.
    ts = np.linspace(0.0, tr.t_end, n_points, endpoint=tr.complete)
    states = evaluate_grid(tr, ts)
    rates = evaluate_grid(tr, ts, 1)
    lag_ts = ts - m.tau
    # one (n_lags, n) block per point, laid out as np.stack of the rows
    lags = np.stack([evaluate_grid(tr, lag_ts, k) for k in range(m.n_lags)],
                    axis=1)
    full = np.empty(n_points)
    alg = np.empty(n_points)
    for j, t in enumerate(ts):
        r = m.residual(t, states[j], rates[j], lags[j])
        full[j] = np.abs(r).max() if r.size else 0.0
        ra = r[m.d:]
        alg[j] = np.abs(ra).max() if ra.size else 0.0
    return ts, full, alg, states


def sweep_reference(reference, T, opts=None):
    """Solve the delay-free reference once on [0, T] from its default
    history.

    Returns (grid, values): the shared evaluation grid of
    ``SWEEP_GRID_POINTS`` points and the reference states on it.
    """
    traj = solve_itp(reference, reference.default_history(), T, opts)
    grid = np.linspace(0.0, T, SWEEP_GRID_POINTS)
    return grid, evaluate_grid(traj, grid)


def sweep_deviation(model, ref, T, opts=None):
    """Solve one delay model from its default history and compare it with
    the ``sweep_reference`` result ``ref``.

    Returns (trajectory, max-norm difference of the states on the shared
    grid).
    """
    grid, ref_vals = ref
    traj = solve_itp(model, model.default_history(), T, opts)
    diff = np.abs(evaluate_grid(traj, grid) - ref_vals)
    return traj, float(diff.max())


def write_trajectory_csv(tr, path, audited):
    """CSV export: t, z_1..z_n, covering segment index, algebraic residual.

    ``audited`` is the ``audit(tr, ...)`` result whose grid, states and
    algebraic residuals the rows report; the trajectory is not read again.
    """
    ts, _, alg, states = audited
    labels = [f"z_{i + 1}" for i in range(tr.model.n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *labels, "segment_index", "A_residual_norm"])
        seg_of = tr.segment_indices(ts).tolist()
        for j, t in enumerate(ts):
            writer.writerow([f"{t:.12g}", *(f"{v:.12g}" for v in states[j]),
                             seg_of[j], f"{alg[j]:.6g}"])
