"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: while a traced op runs, the
layer entry points listed in ``_PATCHES`` are replaced by wrappers that time
each call, and the originals are put back afterwards.  Every span keeps its
name, start, end, parent and op id in memory; ``save`` writes them out when
the run ends.  Self time (duration minus the time covered by child spans) is
accumulated as spans close, so per-op layer totals need no second pass.
"""

import time
from array import array
from collections import defaultdict

import numpy as np

from ddaekit import cli, forcing, lti, pencil, radau, sfdae, steps

# (owner, attribute, span name).  Several owners share one span name where
# a module imported the function under its own name.  ``pencil._det_samples``
# is the determinant sampling behind every regularity test, so its count
# shows how often one analysis samples the determinant.
_PATCHES = [
    (cli, "main", "cli.main"),
    (cli, "solve_itp", "steps.solve"),
    (steps, "solve_itp", "steps.solve"),
    (cli, "audit", "steps.audit"),
    (steps, "audit", "steps.audit"),
    (cli, "write_trajectory_csv", "steps.export"),
    (steps, "write_trajectory_csv", "steps.export"),
    (steps, "evaluate", "steps.evaluate"),
    (steps, "integrate_segment", "radau.segment"),
    (radau.SegmentProblem, "lags", "radau.lags"),
    (radau.SegmentSolution, "eval", "radau.dense_eval"),
    (sfdae.SfDdaeModel, "residual", "sfdae.residual"),
    (sfdae.SfDdaeModel, "algebraic_residual", "sfdae.residual"),
    (forcing.SymbolicSignal, "eval", "forcing.eval"),
    (cli, "sf_model_from_linear", "lti.sf_wrap"),
    (lti, "hybrid_shifted", "lti.pair"),
    (lti, "regularity_theorem_check", "lti.pair"),
    (lti, "classify_linear", "lti.pair"),
    (pencil.MatrixPencil, "__init__", "pencil.construct"),
    (pencil, "_det_samples", "pencil.is_regular"),
    (pencil, "weierstrass", "pencil.weierstrass"),
    (lti, "weierstrass", "pencil.weierstrass"),
    (pencil, "analyze", "pencil.analyze"),
]
_JACOBIANS = ("JD_z", "JD_zdot", "JA_z")


class Tracer:
    """In-memory span store plus per-op aggregates.

    ``op_stats`` gets one entry per traced op: span name -> [calls,
    inclusive seconds, self seconds], plus the integrator counters read from
    ``SegmentSolution.stats`` and the audit residuals.
    """

    def __init__(self, res_tol):
        self.res_tol = res_tol
        self.names = []
        self._ids = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._next = 0
        self._op = -1
        self._solve_depth = 0
        self.op_stats = []
        self.missing = [f"{getattr(o, '__name__', o)}.{a}"
                        for o, a, _ in _PATCHES if not hasattr(o, a)]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, on_result=None):
        if name == "radau.dense_eval":
            # Dense-output reads inside the solve feed lag lookups; the
            # others come from the audit and the CSV export.
            ids = (self._id(name + ".audit"), self._id(name + ".solve"))

            def pick():
                return ids[self._solve_depth > 0]
        else:
            nid = self._id(name)

            def pick():
                return nid
        is_solve = name == "steps.solve"
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            if is_solve:
                self._solve_depth += 1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if is_solve:
                    self._solve_depth -= 1
                self._close(pick(), frame, t1)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _close(self, nid, frame, t1):
        sid, t0, child = frame
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.span_id.append(sid)
        self.parent.append(parent[0] if parent is not None else -1)
        self.name.append(nid)
        self.op.append(self._op)
        self.start.append(t0)
        self.end.append(t1)
        agg = self._agg[self.names[nid]]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child

    def _segment_done(self, sol):
        c = self._counters
        c["segments"] += 1
        c["steps"] += sol.stats["n_steps"]
        c["newton_iterations"] += sol.stats["newton_iterations"]
        c["halvings"] += sol.stats["halvings"]

    def _audit_done(self, result):
        full = result[1]
        c = self._counters
        c["audit_points"] += full.size
        c["audit_over_tol"] += int((full > self.res_tol).sum())
        if full.size:
            c["audit_max_residual"] = max(c["audit_max_residual"],
                                          float(full.max()))

    def run_op(self, op_id, fn):
        """Run ``fn()`` as one traced op; returns (result, seconds)."""
        self._op = op_id
        self._agg = defaultdict(lambda: [0, 0.0, 0.0])
        self._counters = defaultdict(int)
        self._counters["audit_max_residual"] = 0.0
        hooks = {"radau.segment": self._segment_done,
                 "steps.audit": self._audit_done}
        saved = []
        for owner, attr, name in _PATCHES:
            if hasattr(owner, attr):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrap(original, name, hooks.get(name)))
        init = sfdae.SfDdaeModel.__init__
        jac = self._wrap_jacobians

        def traced_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            jac(model)

        saved.append((sfdae.SfDdaeModel, "__init__", init))
        sfdae.SfDdaeModel.__init__ = traced_init
        root = self._wrap(fn, "bench.op")
        try:
            t0 = time.perf_counter()
            result = root()
            return result, time.perf_counter() - t0
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.op_stats.append({"spans": dict(self._agg),
                                  "counters": dict(self._counters)})

    def _wrap_jacobians(self, model):
        for attr in _JACOBIANS:
            setattr(model, attr,
                    self._wrap(getattr(model, attr), "models.jacobian"))

    def save(self, path):
        np.savez(path, names=np.array(self.names), span_id=self.span_id,
                 parent=self.parent, name=self.name, op=self.op,
                 start=self.start, end=self.end)


def deterministic_counts(stats):
    """The parts of one op's trace that must repeat exactly: call counts of
    every span and the integrator and audit counters."""
    calls = {name: agg[0] for name, agg in stats["spans"].items()}
    counters = {k: v for k, v in stats["counters"].items()
                if k != "audit_max_residual"}
    return {"calls": calls, "counters": counters}
