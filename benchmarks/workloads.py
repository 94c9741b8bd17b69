"""Seeded workloads.  Each op is one closed-loop call by a single client.

A workload draws a small pool of inputs from its seed and cycles through
it, so the same seed gives the same ops and every input recurs within one
run (which is what the deterministic-count check compares).  The program
sees only the generated inputs: CLI arguments and files for the
simulations, matrices for the pencil analysis.
"""

import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from ddaekit import cli, lti, models, pencil
from ddaekit.forcing import SymbolicSignal

import checkers

TESTS = Path(__file__).resolve().parent.parent / "tests"


def run_cli(argv):
    """``ddae`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _num(x):
    return repr(float(x))


class _Workload:
    pool_size = 4
    # Rounds an end-to-end run makes at least; a traced round is an
    # untraced op plus the same item traced.
    min_rounds = 3

    def schedule(self, traced):
        """Item sequence: traced runs repeat item 0 at once so that the
        deterministic counts can be compared within the run."""
        head = [0] if traced else []
        return itertools.chain(head, itertools.cycle(range(self.pool_size)))

    def prepare(self, workdir):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def label(self):
        """Oracle labels; the checker's cost, kept out of set-up time."""

    def regular(self, item):
        return None


class HybridSim(_Workload):
    """``ddae simulate --model pmsd-hybrid --T 2 --out P`` at tau = 0.05."""

    name = "hybrid-sim"
    T = 2.0
    tau = 0.05
    work_per_op = T
    work_unit = "model-s"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.params = [{"theta0": rng.uniform(0.05, 0.25),
                        "y10": rng.uniform(-0.02, 0.02),
                        "K": rng.uniform(4.0, 6.0),
                        "C": rng.uniform(0.2, 0.4)}
                       for _ in range(self.pool_size)]

    def _argv(self, item, T, out):
        argv = ["simulate", "--model", "pmsd-hybrid", "--T", _num(T),
                "--out", str(out)]
        for key, value in self.params[item].items():
            argv += ["--param", f"{key}={_num(value)}"]
        return argv

    def warmup(self):
        run_cli(self._argv(0, 0.1, self.workdir / "warmup"))

    def call(self, item):
        return run_cli(self._argv(item, self.T, self.workdir / f"run-{item}"))

    def check(self, item, result):
        rc, out, _ = result
        segments = round(self.T / self.tau)
        return checkers.check_hybrid(
            rc, out, self.workdir / f"run-{item}.csv", segments)


class LinearExport(_Workload):
    """``ddae simulate --model linear.json --history poly:... --T 10
    --audit-points 10000 --out P`` on the shifted solution-space example."""

    name = "linear-export"
    T = 10.0
    tau = 0.5
    audit_points = 10000
    work_per_op = T
    work_unit = "model-s"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.specs = []
        for _ in range(self.pool_size):
            self.specs.append({
                "tau": self.tau,
                "x1_hist": [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)],
                "g_poly": [rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3),
                           rng.uniform(-0.02, 0.02)],
                "f_poly": [rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1)],
                # 1-3 Hz sinusoids of desk-scale amplitude
                "f_sin": [[rng.uniform(0.1, 0.5), rng.uniform(6.0, 20.0),
                           rng.uniform(0.0, 2.0 * np.pi)] for _ in range(2)],
                "audit_points": self.audit_points,
            })
            self.specs[-1]["x1_0"] = self.specs[-1]["x1_hist"][0]

    def prepare(self, workdir):
        super().prepare(workdir)
        self.argv = []
        for i, spec in enumerate(self.specs):
            f = SymbolicSignal(poly=[spec["f_poly"]], sin=[spec["f_sin"]])
            g = SymbolicSignal(poly=[spec["g_poly"]])
            model = models.ex_shift_linear(spec["tau"], f=f, g=g)
            # The model file and the --out prefix must differ: the run's
            # summary is written to <prefix>.json.
            path = self.workdir / f"linear-model-{i}.json"
            path.write_text(json.dumps(model.to_json()))
            # x2's history is g(t + tau), the same polynomial as after 0.
            shifted = np.polynomial.Polynomial(spec["g_poly"])(
                np.polynomial.Polynomial([spec["tau"], 1.0]))
            history = "poly:" + ";".join(
                ",".join(_num(c) for c in coeffs)
                for coeffs in (spec["x1_hist"], shifted.coef))
            self.argv.append(["simulate", "--model", str(path),
                              "--history", history])

    def _run(self, item, T, points, out):
        return run_cli(self.argv[item] + [
            "--T", _num(T), "--audit-points", str(points), "--out", str(out)])

    def warmup(self):
        self._run(0, self.tau, 100, self.workdir / "warmup")

    def call(self, item):
        return self._run(item, self.T, self.audit_points,
                         self.workdir / f"export-{item}")

    def check(self, item, result):
        rc, out, _ = result
        return checkers.check_linear(
            rc, out, self.workdir / f"export-{item}.csv", self.specs[item])


def _lti(rng, n, n_in, n_out):
    """The criterion-4 subsystem generator: Gaussian entries, some rows of E
    zeroed (algebraic equations) and some rows of E and A zeroed together
    (a singular pencil)."""
    E = rng.standard_normal((n, n))
    A = rng.standard_normal((n, n))
    if rng.random() < 0.4:
        E[rng.integers(n)] = 0.0
    if rng.random() < 0.3:
        row = rng.integers(n)
        E[row] = 0.0
        A[row] = 0.0
    return lti.LtiDescriptor(E, A, rng.standard_normal((n, n_in)),
                             rng.standard_normal((n_out, n)))


def _coupled_pencil(s1, s2):
    """(E, A0) of the shifted coupling, built independently of lti."""
    n1, n2 = s1.n, s2.n
    E = np.zeros((n1 + n2, n1 + n2))
    A0 = np.zeros_like(E)
    E[:n1, :n1], E[n1:, n1:] = s1.E, s2.E
    A0[:n1, :n1], A0[n1:, n1:] = s1.A, s2.A
    A0[n1:, :n1] = s2.B @ s1.C
    return E, A0


class PencilBatch(_Workload):
    """One op analyses one item: a random integer pencil (criterion 9) or,
    one time in ten, a coupled LTI pair (criterion 4, n1, n2 in 1..6).

    The mix is stratified so that every seed costs the same on average:
    every tenth item is a pair, each (n1, n2) occurs equally often, and so
    does each pencil size n in 1..4.  The entries stay random."""

    name = "pencil-batch"
    pair_every = 10
    pair_sizes = [(n1, n2) for n1 in range(1, 7) for n2 in range(1, 7)]
    pencil_sizes = [1, 2, 3, 4]
    pool_size = 3 * len(pair_sizes) * pair_every
    work_per_op = 1
    work_unit = "pencils"
    min_rounds = 100

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        pairs = self.pool_size // self.pair_every
        pair_sizes = rng.permutation(
            self.pair_sizes * (pairs // len(self.pair_sizes)))
        pencil_sizes = rng.permutation(
            self.pencil_sizes
            * ((self.pool_size - pairs) // len(self.pencil_sizes)))
        self.items = []
        for k in range(self.pool_size):
            if k % self.pair_every == self.pair_every - 1:
                n1, n2 = (int(n) for n in pair_sizes[k // self.pair_every])
                m, p = (int(j) for j in rng.integers(1, 3, size=2))
                self.items.append(("pair", _lti(rng, n1, m, p),
                                   _lti(rng, n2, p, m)))
            else:
                n = int(pencil_sizes[k - k // self.pair_every])
                E = rng.integers(-1, 2, size=(n, n)).astype(float)
                A = rng.integers(-1, 2, size=(n, n)).astype(float)
                self.items.append(("pencil", E, A))

    def label(self):
        sys.path.insert(0, str(TESTS))
        from exact_pencil import wong_exact
        self.labels = []
        for kind, a, b in self.items:
            if kind == "pair":
                E, A = _coupled_pencil(a, b)
            else:
                E, A = a.astype(int), b.astype(int)
            regular, _, _, nu = wong_exact(E.tolist(), A.tolist())
            self.labels.append((regular, nu))

    def regular(self, item):
        return self.labels[item][0]

    def warmup(self):
        for item in range(20):
            self.call(item)

    def call(self, item):
        kind, a, b = self.items[item]
        if kind == "pencil":
            report = pencil.analyze(pencil.MatrixPencil(a, b))
            return report.regular, report.nu, True
        coupled = lti.hybrid_shifted(a, b, 1.0)
        theorem_ok = lti.regularity_theorem_check(a, b, tau=1.0)
        report = pencil.analyze(coupled.pencil)
        if report.regular:
            lti.classify_linear(coupled)
        return report.regular, report.nu, theorem_ok

    def check(self, item, result):
        return checkers.check_pencil(result, self.labels[item])


WORKLOADS = {w.name: w for w in (HybridSim, LinearExport, PencilBatch)}
