"""One SHA-256 per named simulation run, to show that a change leaves every
output bit for bit as it was.

Each digest covers the run's segment meshes (``ts``) and dense-output
coefficients, its status and breakdown data, the integrator stats, the
audit arrays, the bytes of the CSV export and ``evaluate`` reads on a grid
of times.  Run it on two checkouts and compare the output::

    PYTHONPATH=src python tests/output_digest.py > new.txt
    PYTHONPATH=<other checkout>/src python tests/output_digest.py > old.txt
    diff old.txt new.txt

pytest does not collect this file.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np

from ddaekit import models
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import sf_model_from_linear
from ddaekit.radau import IntegrationOptions
from ddaekit.steps import audit, evaluate, solve_itp, write_trajectory_csv


def linear_export_model():
    """The shifted solution-space example with the linear-export
    benchmark's kind of forcing: a linear f plus two sinusoids, a
    quadratic g."""
    tau = 0.5
    f = SymbolicSignal(poly=[[0.31, -0.07]],
                       sin=[[(0.42, 13.1, 0.9), (0.17, 7.3, 4.2)]])
    g = SymbolicSignal(poly=[[1.2, 0.11, -0.013]])
    model = sf_model_from_linear(models.ex_shift_linear(tau, f=f, g=g))
    return model, SymbolicSignal(poly=[[-0.2, 0.3]]).stack(g.shift(tau))


def linear_export_sin_history():
    """``linear_export_model`` with a sinusoid in x1's history, so that
    the order-1 reads on [-tau, 0] differentiate one."""
    model, history = linear_export_model()
    x1 = SymbolicSignal(poly=[[-0.2, 0.3]], sin=[[(0.05, 9.7, 0.6)]])
    return model, x1.stack(SymbolicSignal(poly=history.poly[1:]))


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


def digest(build, T, h, points, workdir):
    model, history = build()
    tr = solve_itp(model, history, T, IntegrationOptions(h=h))
    sha = hashlib.sha256()
    for seg in tr.segments:
        sha.update(np.asarray(seg.ts).tobytes())
        sha.update(seg.coeffs.tobytes())
        sha.update(repr(sorted(seg.stats.items())).encode())
    sha.update(repr((tr.status, tr.breakdown_index)).encode())
    if tr.breakdown_residual is not None:
        sha.update(np.asarray(tr.breakdown_residual).tobytes())
    sha.update(repr(sorted(tr.stats.items())).encode())
    audited = audit(tr, points)
    for array in audited:
        sha.update(array.tobytes())
    path = os.path.join(workdir, "run.csv")
    write_trajectory_csv(tr, path, audited)
    with open(path, "rb") as fh:
        sha.update(fh.read())
    for t in np.linspace(-model.tau, tr.t_end, 97):
        for order in (0, 1):
            sha.update(evaluate(tr, float(t), order).tobytes())
    return sha.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for name, build, T, h, points in runs():
            print(name, digest(build, T, h, points, workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
