"""One SHA-256 per named run, to show that a change leaves every output bit
for bit as it was.

Each simulation run's digest covers its segment meshes (``ts``) and
dense-output coefficients, its status and breakdown data, the integrator
stats, the audit arrays, the bytes of the CSV export and ``evaluate`` reads
on a grid of times.  The one pencil run, ``pencils``, covers the
``analyze`` report and the delay order of the registry's pencils and
linear systems, of seeded criterion-9 integer pencils and of seeded
criterion-4 coupled pairs.  Run it on two checkouts and compare the
output::

    PYTHONPATH=src python tests/output_digest.py > new.txt
    PYTHONPATH=<other checkout>/src python tests/output_digest.py > old.txt
    diff old.txt new.txt

or let it run the other checkout itself and name what moved::

    PYTHONPATH=src python tests/output_digest.py --compare <other>/src

The compare mode prints one line per run, ``unchanged`` or the other
checkout's digest and then this one's.  Below a changed run it prints every
output that differs: an array with its largest absolute difference, text
with the number of lines that differ.

pytest does not collect this file.
"""

import argparse
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

from ddaekit import models
from ddaekit.errors import DdaeError
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import (LinearDdae, LtiDescriptor, classify_linear,
                         hybrid_shifted, sf_model_from_linear)
from ddaekit.pencil import MatrixPencil, analyze
from ddaekit.radau import IntegrationOptions
from ddaekit.steps import audit, evaluate, solve_itp, write_trajectory_csv


def linear_export_model(sin=((0.42, 13.1, 0.9), (0.17, 7.3, 4.2))):
    """The shifted solution-space example with the linear-export
    benchmark's kind of forcing: a linear f plus the sinusoids ``sin``, a
    quadratic g."""
    tau = 0.5
    f = SymbolicSignal(poly=[[0.31, -0.07]], sin=[sin])
    g = SymbolicSignal(poly=[[1.2, 0.11, -0.013]])
    model = sf_model_from_linear(models.ex_shift_linear(tau, f=f, g=g))
    return model, SymbolicSignal(poly=[[-0.2, 0.3]]).stack(g.shift(tau))


def linear_export_sin_history():
    """``linear_export_model`` with a sinusoid in x1's history, so that
    the order-1 reads on [-tau, 0] differentiate one."""
    model, history = linear_export_model()
    x1 = SymbolicSignal(poly=[[-0.2, 0.3]], sin=[[(0.05, 9.7, 0.6)]])
    return model, x1.stack(SymbolicSignal(poly=history.poly[1:]))


def linear_smooth_model():
    """``linear_export_model`` with one slow sinusoid, f = 0.31 - 0.07 t +
    0.02 sin(1.1 t + 0.9): the controller changes h on about a fifth of
    its steps, so its run pins the affine path at a varying h."""
    return linear_export_model(sin=[(0.02, 1.1, 0.9)])


def _registry(name, T, **params):
    def build():
        model = models.REGISTRY[name].make(params)
        return model, model.default_history()
    return build, T


def runs():
    """(name, build, T, h, audit points): ``build()`` returns the model and
    its history."""
    cases = {
        "pmsd-hybrid": _registry("pmsd-hybrid", 0.5),
        "pmsd-coupled": _registry("pmsd-coupled", 0.5),
        "ex-advanced-tau1": _registry("ex-advanced", 2.0, tau=1.0),
        "ex-advanced-tau0.5": _registry("ex-advanced", 1.0, tau=0.5),
        "ex-advanced-tau0.3": _registry("ex-advanced", 0.6, tau=0.3),
        "ex-shift-tau0.5": _registry("ex-shift", 2.0, tau=0.5),
        "ex-shift-tau0.37": _registry("ex-shift", 1.5, tau=0.37),
    }
    for name, (build, T) in cases.items():
        yield name, build, T, None, 1000
        yield f"{name}-h0.001", build, T, 0.001, 1000
    yield "linear-export", linear_export_model, 10.0, None, 10000
    yield "linear-export-h0.001", linear_export_model, 2.0, 0.001, 1000
    # 0.05 / 0.0007 is not an integer: the fit shortens the step so that
    # 72 equal steps cover each segment
    build, _ = cases["pmsd-hybrid"]
    yield "pmsd-hybrid-h0.0007", build, 0.5, 0.0007, 1000
    yield "linear-export-sin-history", linear_export_sin_history, 2.0, None, \
        1000
    yield "linear-smooth", linear_smooth_model, 10.0, None, 1000


def outputs(build, T, h, points, workdir):
    """Every output of one run as (label, array or bytes) pairs, in the
    order the digest hashes them."""
    model, history = build()
    tr = solve_itp(model, history, T, IntegrationOptions(h=h))
    for i, seg in enumerate(tr.segments, start=1):
        yield f"segment {i} ts", np.asarray(seg.ts)
        yield f"segment {i} coeffs", seg.coeffs
        yield f"segment {i} stats", repr(sorted(seg.stats.items())).encode()
    yield "status", repr((tr.status, tr.breakdown_index)).encode()
    if tr.breakdown_residual is not None:
        yield "breakdown residual", np.asarray(tr.breakdown_residual)
    yield "stats", repr(sorted(tr.stats.items())).encode()
    audited = audit(tr, points)
    yield from zip(("audit grid", "audit full", "audit algebraic",
                    "audit states"), audited)
    path = os.path.join(workdir, "run.csv")
    write_trajectory_csv(tr, path, audited)
    with open(path, "rb") as fh:
        yield "csv", fh.read()
    for j, t in enumerate(np.linspace(-model.tau, tr.t_end, 97)):
        for order in (0, 1):
            yield (f"evaluate {j} (t = {t:.6g}) order {order}",
                   evaluate(tr, float(t), order))


def criterion_9_pencils(count, seed=20240817):
    """The first ``count`` pencils of the criterion-9 oracle sweep: entries
    in {-1, 0, 1}, n in 1..4."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        yield MatrixPencil(rng.integers(-1, 2, size=(n, n)),
                           rng.integers(-1, 2, size=(n, n)))


def criterion_4_pairs(count, seed=9):
    """``count`` shifted couplings (tau = 1) of two random subsystems of
    sizes 1..6, drawn as criterion 4 draws them: Gaussian entries, a row of
    E zeroed (algebraic equations) and a row of E and A zeroed together (a
    singular pencil), each now and then."""
    rng = np.random.default_rng(seed)

    def subsystem(n, n_in, n_out):
        E = rng.standard_normal((n, n))
        A = rng.standard_normal((n, n))
        if rng.random() < 0.4:
            E[rng.integers(n)] = 0.0
        if rng.random() < 0.3:
            row = rng.integers(n)
            E[row] = 0.0
            A[row] = 0.0
        return LtiDescriptor(E, A, rng.standard_normal((n, n_in)),
                             rng.standard_normal((n_out, n)))

    for _ in range(count):
        n1, n2 = (int(k) for k in rng.integers(1, 7, size=2))
        m, p = (int(k) for k in rng.integers(1, 3, size=2))
        yield hybrid_shifted(subsystem(n1, m, p), subsystem(n2, p, m), 1.0)


def pencil_outputs():
    """The pencil run's outputs: per group, one line per pencil with its
    indices and delay order (``structure``) and one with its full
    ``analyze`` report (``reports``), so that a compare tells a changed
    index from changed rounding."""
    registry = [entry.make({}) for entry in models.REGISTRY.values()]
    groups = {
        "registry": [m for m in registry
                     if isinstance(m, (MatrixPencil, LtiDescriptor))]
        + [models.ex_shift_linear(0.5), models.ex_advanced_linear(1.0)],
        "criterion-9": criterion_9_pencils(2000),
        "criterion-4": criterion_4_pairs(500),
    }
    for group, systems in groups.items():
        structure, reports = [], []
        for system in systems:
            pencil = (system if isinstance(system, MatrixPencil)
                      else system.pencil)
            try:
                report = analyze(pencil)
            except DdaeError as exc:
                structure.append(type(exc).__name__)
                reports.append(f"{type(exc).__name__}: {exc}")
                continue
            indices = [report.regular, report.d, report.a, report.nu,
                       report.mu]
            if isinstance(system, LinearDdae) and report.regular:
                indices.append(classify_linear(system).s)
            structure.append(json.dumps(indices))
            reports.append(json.dumps(report.to_json(), sort_keys=True))
        yield f"{group} structure", "\n".join(structure).encode()
        yield f"{group} reports", "\n".join(reports).encode()


def digest(items):
    sha = hashlib.sha256()
    for _, value in items:
        sha.update(value if isinstance(value, bytes) else value.tobytes())
    return sha.hexdigest()


def differences(old, new):
    """One (label, description) per output that differs between two lists
    of ``outputs`` pairs of the same run."""
    old, new = dict(old), dict(new)
    for label in [*old, *(k for k in new if k not in old)]:
        a, b = old.get(label), new.get(label)
        if a is None or b is None:
            yield label, "only in the " + ("other" if b is None else "this")
        elif isinstance(a, bytes):
            if a != b:
                lines_a, lines_b = a.splitlines(), b.splitlines()
                changed = sum(x != y for x, y in zip(lines_a, lines_b))
                changed += abs(len(lines_a) - len(lines_b))
                yield label, (f"{changed} of {max(len(lines_a), len(lines_b))}"
                              f" lines differ")
        elif a.shape != b.shape:
            yield label, f"shape {a.shape} against {b.shape}"
        elif a.tobytes() != b.tobytes():
            with np.errstate(invalid="ignore", over="ignore"):
                gap = np.abs(a - b).max()
            yield label, f"largest absolute difference {gap:.3g}"


def all_outputs(workdir):
    for name, build, T, h, points in runs():
        yield name, list(outputs(build, T, h, points, workdir))
    yield "pencils", list(pencil_outputs())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="SRC",
                        help="src directory of a second checkout to run and "
                             "compare with, output by output")
    # the compare mode's child process: pickle every output to PATH
    parser.add_argument("--dump", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        if args.dump:
            with open(args.dump, "wb") as fh:
                pickle.dump(dict(all_outputs(workdir)), fh)
            return 0
        if not args.compare:
            for name, items in all_outputs(workdir):
                print(name, digest(items))
            return 0
        path = os.path.join(workdir, "other.pickle")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--dump",
                        path], check=True,
                       env={**os.environ, "PYTHONPATH": args.compare})
        with open(path, "rb") as fh:
            other = pickle.load(fh)
        for name, items in all_outputs(workdir):
            before, after = digest(other[name]), digest(items)
            if before == after:
                print(name, "unchanged")
                continue
            print(name, before, after)
            for label, text in differences(other[name], items):
                print(f"  {label}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
