"""Output checks for the benchmark ops.

Each check returns a list of problems; an empty list means the op's output
is correct.  The checks use only the files and text the program produced
and the closed forms or oracle labels computed by the benchmark itself.
"""

import json
import math

import numpy as np

# Criterion-7 bound on the algebraic residual, equal to the CLI's default
# --res-tol.
RES_TOL = 1e-8
STATE_TOL = 1e-8


def _summary(rc, stdout):
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        summary = json.loads(stdout)
    except ValueError:
        return problems + ["summary is not JSON"], {}
    if summary.get("status") != "Complete":
        problems.append(f"status {summary.get('status')!r}")
    return problems, summary


def _csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_hybrid(rc, stdout, csv_path, segments):
    """``simulate --out`` on the hybrid model: exit 0, Complete with one
    breakpoint per segment plus t = 0, summary and CSV residuals within
    RES_TOL."""
    problems, summary = _summary(rc, stdout)
    breakpoints = summary.get("breakpoints", [])
    if len(breakpoints) != segments + 1:
        problems.append(f"{len(breakpoints)} breakpoints, want {segments + 1}")
    max_res = summary.get("max_residual", math.inf)
    if not max_res <= RES_TOL:
        problems.append(f"summary max_residual {max_res:.3e} > {RES_TOL:g}")
    try:
        header, rows = _csv(csv_path)
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable CSV: {exc}"]
    if "A_residual_norm" not in header or rows.shape[0] == 0:
        return problems + ["CSV lacks residual rows"]
    col = header.index("A_residual_norm")
    worst = float(rows[:, col].max())
    if not worst <= RES_TOL:
        problems.append(f"CSV A_residual_norm {worst:.3e} > {RES_TOL:g}")
    return problems


def closed_form_linear(spec, t):
    """Exact states of the shifted solution-space example.

    x2(t) = g(t + tau), also on the history interval, so x2(s - tau) = g(s)
    and x1(t) = x1(0) + int_0^t g(s) + f(s) ds.
    """
    P = np.polynomial.Polynomial
    g, f_poly = P(spec["g_poly"]), P(spec["f_poly"])
    gi, fi = g.integ(), f_poly.integ()
    x1 = spec["x1_0"] + gi(t) - gi(0.0) + fi(t) - fi(0.0)
    for amp, omega, phase in spec["f_sin"]:
        x1 = x1 + amp / omega * (math.cos(phase) - np.cos(omega * t + phase))
    return x1, g(t + spec["tau"])


def check_linear(rc, stdout, csv_path, spec):
    """``simulate --out`` on the linear example: exit 0, Complete, and every
    CSV row within STATE_TOL of the closed form."""
    problems, _ = _summary(rc, stdout)
    try:
        _, rows = _csv(csv_path)
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable CSV: {exc}"]
    if rows.shape != (spec["audit_points"], 5):
        return problems + [f"CSV shape {rows.shape}"]
    x1, x2 = closed_form_linear(spec, rows[:, 0])
    err = np.maximum(np.abs(rows[:, 1] - x1), np.abs(rows[:, 2] - x2))
    bad = np.flatnonzero(~(err <= STATE_TOL))
    if bad.size:
        problems.append(f"{bad.size} CSV rows off the closed form, first at "
                        f"t={rows[bad[0], 0]:.6g} by {err[bad[0]]:.3e}")
    return problems


def check_pencil(result, label):
    """A pencil item: ``regular`` and ``nu`` agree with the exact oracle,
    and for a coupled pair the regularity theorem check held."""
    regular, nu, theorem_ok = result
    want_regular, want_nu = label
    problems = []
    if regular != want_regular:
        problems.append(f"regular={regular}, oracle says {want_regular}")
    elif regular and nu != want_nu:
        problems.append(f"nu={nu}, oracle says {want_nu}")
    if not theorem_ok:
        problems.append("regularity_theorem_check returned False")
    return problems
