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

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, DdaeError, InadmissibleHistory,
                     InconsistentInitialState, ShapeError, check_count,
                     check_positive)
from .forcing import SymbolicSignal
from .radau import (MAX_AUDIT_POINTS, IntegrationOptions, SegmentProblem,
                    _end_slack, _mesh_read, _read_slack, _step_rule,
                    fit_steps, integrate_segment)
from .sfdae import SfDdaeModel

COMPLETE = "Complete"
BROKE_DOWN = "BrokeDown"

SWEEP_GRID_POINTS = 400    # shared grid of a delay sweep
MAX_SEGMENTS = 10 ** 5     # most segments one run may solve
MAX_STEPS = 10 ** 6        # most fixed steps one run may plan
CSV_CHUNK = 1000           # rows the CSV export formats per write

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class Trajectory:
    """Piecewise solution with breakpoints at multiples of tau and at T.

    ``history`` is the solution on [-tau, 0], a plain ``SymbolicSignal``;
    the first segment's lags and ``evaluate_grid`` read it there.
    ``solve_itp`` appends one ``SegmentSolution`` per solved segment.
    ``status`` is "Complete" or "BrokeDown"; in the latter case
    ``breakdown_index`` is the 1-based segment whose initial state was
    inconsistent, ``breakdown_residual`` the offending algebraic residual
    vector and ``breakdown_norm`` its norm.
    """

    model: SfDdaeModel
    history: SymbolicSignal
    segments: list = field(default_factory=list)
    status: str = COMPLETE
    breakdown_index: int | None = None
    breakdown_residual: np.ndarray | None = None
    breakdown_norm: float | None = None

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
        """The breakpoint whose right limit broke down: the solved end."""
        return None if self.breakdown_index is None else self.t_end

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

    def segment_indices(self, ts):
        """1-based index of the segment covering each time of the array
        ``ts``, each in [0, t_end]: the last whose start key in ``_mesh`` is
        at or before the time; 0 while no segment is solved."""
        keys, _, firsts = _mesh(self)
        return np.searchsorted(keys[firsts], ts, side="right")


def _mesh(tr):
    """The trajectory's one mesh (keys, nodes, firsts): every segment's step
    starts plus t_end, a breakpoint being one node, and as keys the nodes
    with each segment's first node (indices ``firsts``) lowered by
    ``radau._end_slack``, so that t - tau at a start reads that segment."""
    nodes = np.array([t for seg in tr.segments for t in seg.ts[:-1]]
                     + [tr.t_end])
    firsts = np.cumsum([0] + [len(seg.ts) - 1 for seg in tr.segments])[:-1]
    keys = nodes.copy()
    keys[firsts] -= _end_slack(nodes[firsts])
    return keys, nodes, firsts


def evaluate(tr, t, order=0):
    """Trajectory value or right derivative at one time t: the row of
    ``evaluate_grid`` for the array ``[t]``."""
    return evaluate_grid(tr, np.array([t]), order)[0]


def evaluate_grid(tr, ts, order=0):
    """Trajectory values or right derivatives at every time of the array
    ``ts``, one row per time.

    Trajectory reads have one domain rule: a time must lie in [-tau, t_end]
    up to ``radau._read_slack`` (t_end is 0 while no segment is solved),
    and a time past t_end reads t_end; a time outside raises ValueError, for
    the first such time.  One history ``eval`` serves t < 0 (every time
    while no segment is solved), one ``radau._mesh_read`` of ``_mesh`` the
    rest.  At interior breakpoints the value is continuous by construction
    and derivatives are taken from the right segment (smooth transitions
    across breakpoints cannot be expected for delay systems).
    """
    if order not in (0, 1):
        raise ValueError("trajectory evaluation supports orders 0 and 1")
    ts = np.asarray(ts, dtype=float)
    tau, t_end = tr.model.tau, tr.t_end
    lo, hi = -tau - _read_slack(tau), t_end + _read_slack(t_end)
    outside = np.flatnonzero(~((ts >= lo) & (ts <= hi)))
    if outside.size:
        t = ts[outside[0]]
        raise ValueError(f"t={t} precedes the history interval" if t < lo
                         else f"t={t} beyond covered time {t_end}")
    ts = np.minimum(ts, t_end)
    out = np.empty((ts.size, tr.model.n))
    past = (ts >= 0.0) & bool(tr.segments)
    if not past.all():
        out[~past] = tr.history.eval(ts[~past], order).T
    if past.any():
        keys, nodes, _ = _mesh(tr)
        coeffs = np.concatenate([seg.coeffs for seg in tr.segments])
        out[past] = _mesh_read(keys, nodes, coeffs, ts[past], order)
    return out


def plan_run(T, tau, h=None):
    """(segments, steps) of a run on [0, T]: ``fit_steps(T, tau)`` segments,
    fitted as steps are to a segment, and at the fixed step h the sum of
    their ``fit_steps`` (None without h).  DataError for a bad horizon, or
    past MAX_SEGMENTS or MAX_STEPS: a run keeps every segment and step,
    and a step below the resolution of t never advances it, so a mistyped
    tiny delay or h would otherwise run without bound."""
    check_positive("horizon T", T)
    n = fit_steps(T, tau)
    if n > MAX_SEGMENTS:
        raise DataError(f"T = {T:g} with tau = {tau:g} needs {n} segments, "
                        f"more than the limit of {MAX_SEGMENTS}")
    if h is None:
        return n, None
    count = fit_steps(T - (n - 1) * tau, h)
    if n > 1:   # in floats, so that a sum past the float range reads inf
        count += (n - 1) * float(fit_steps(tau, h))
    if count > MAX_STEPS:
        shown = f"{count:.3g}" if count > 1e12 else f"{count:.0f}"
        raise DataError(
            f"T = {T:g} with tau = {tau:g} and h = {h:g} needs {shown} "
            f"steps, more than the limit of {MAX_STEPS}")
    return n, int(count)


def solve_itp(model, phi, T, opts=None):
    """Solve the initial trajectory problem on [0, T] by the method of steps.

    Segment i covers [(i - 1) tau, i tau], except that the last of the
    ``plan_run`` segments ends at T, so a complete run ends exactly at T.
    Every segment reads its delayed data from the piece solved just before
    it, the history or the previous segment (``SegmentProblem``), starts
    with the step its predecessor would have taken next, and
    ``integrate_segment`` decides whether it starts consistently.  One step
    rule (``radau._step_rule``) serves every segment of the run: an affine
    model's Jacobians, stage inverses and block sizes carry across segment
    starts, and a callback model's first step in a segment starts cold;
    nothing outlives the run.  An inconsistent start of the first segment
    is an inadmissible history (InadmissibleHistory); on a later segment it
    is a breakdown, returned as a BrokeDown trajectory rather than raised.
    Models declaring delayed-derivative order three or more are refused,
    since the dense output only supplies values and first derivatives and
    such systems break down anyway.  Other integrator errors propagate
    unchanged but for the segment index prefixed to their message.  A
    history whose dimension is not the model's is a ShapeError, and a run
    of more than MAX_SEGMENTS segments or, at a fixed step, of more than
    MAX_STEPS steps a DataError (``plan_run``); all are raised before
    anything is solved.
    """
    if phi.dim != model.n:
        raise ShapeError(
            f"history has {phi.dim} components, model needs {model.n}")
    opts = opts or IntegrationOptions()
    n_segments, _ = plan_run(T, model.tau, opts.h)
    if model.s_decl >= 3:
        raise DdaeError(
            f"declared delayed-derivative order {model.s_decl} needs dense "
            f"output beyond first derivatives; such systems are refused")
    tau = model.tau
    tr = Trajectory(model, phi)
    z0 = phi.eval(0.0)
    h = None
    src = phi
    rule = _step_rule(model, opts)
    for i in range(1, n_segments + 1):
        problem = SegmentProblem(model, (i - 1) * tau,
                                 T if i == n_segments else i * tau, z0, src)
        try:
            seg = integrate_segment(problem, opts, h, rule)
        except InconsistentInitialState as exc:
            if i == 1:
                raise InadmissibleHistory(
                    f"history endpoint violates the algebraic part: |r| = "
                    f"{exc.norm:.3e}", exc.t, exc.residual, exc.norm) from exc
            tr.status = BROKE_DOWN
            tr.breakdown_index = i
            tr.breakdown_residual = exc.residual
            tr.breakdown_norm = exc.norm
            return tr
        except DdaeError as exc:
            exc.args = (f"segment {i}: {exc}",)
            raise
        tr.segments.append(seg)
        src = seg
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


def audit(tr, n_points=IntegrationOptions.audit_points):
    """Independent residual re-check on a uniform grid of n_points points.

    Evaluates the stacked [D; A] residual of the original delay system, in
    one ``SfDdaeModel.residual`` call over the grid, with every delayed
    argument read from the trajectory's own dense output.  Returns (grid,
    stacked residual inf-norms, algebraic residual norms, states read).
    n_points is a count from 2 to MAX_AUDIT_POINTS, as ``audit_points``;
    any other value is a DataError.
    """
    n_points = check_count("audit_points", n_points, 2, MAX_AUDIT_POINTS)
    m = tr.model
    # A broken-down trajectory solves the equations only on [0, t_end); the
    # right endpoint is exactly the inconsistent state.
    ts = np.linspace(0.0, tr.t_end, n_points, endpoint=tr.complete)
    states = evaluate_grid(tr, ts)
    rates = evaluate_grid(tr, ts, 1)
    lags = np.stack([evaluate_grid(tr, ts - m.tau, k).T
                     for k in range(m.n_lags)])
    r = np.abs(m.residual(ts, states.T, rates.T, lags))
    full, alg = r.max(axis=0, initial=0.0), r[m.d:].max(axis=0, initial=0.0)
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
    Each row is one ``%``-format string, and the file the bytes
    ``csv.writer`` writes for these fields: none of them needs quoting, and
    every line ends in ``"\\r\\n"``.  Rows are formatted and written
    CSV_CHUNK at a time, which keeps the memory of an export small.
    """
    ts, _, alg, states = audited
    n = tr.model.n
    header = ["t", *(f"z_{i + 1}" for i in range(n)), "segment_index",
              "A_residual_norm"]
    row = ",".join(["%.12g"] * (n + 1) + ["%d", "%.6g"]) + "\r\n"
    seg_of = tr.segment_indices(ts)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, ts.size, CSV_CHUNK):
            rows = slice(lo, lo + CSV_CHUNK)
            fh.write("".join(row % (t, *z, i, r) for t, z, i, r in zip(
                ts[rows].tolist(), states[rows].tolist(),
                seg_of[rows].tolist(), alg[rows].tolist())))
