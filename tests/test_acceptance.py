"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line with its runtime so the suite doubles
as a checklist (run with ``pytest -s tests/test_acceptance.py``).
"""

import math
import time

import numpy as np
import pytest

from ddaekit import models
from ddaekit.errors import IllConditioned, SingularPencil
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import LtiDescriptor, regularity_theorem_check
from ddaekit.pencil import MatrixPencil, analyze, is_regular, weierstrass
from ddaekit.radau import IntegrationOptions, SegmentProblem, integrate_segment
from ddaekit.sfdae import Classification, SfDdaeModel, admissible, classify
from ddaekit.steps import (evaluate, solve_itp, sweep_deviation,
                           sweep_reference)

from conftest import fd_jacobian
from exact_pencil import wong_exact


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\n{self.label}: PASS ({elapsed:.2f} s)")
            assert elapsed < self.budget, (
                f"{self.label} exceeded its {self.budget} s budget "
                f"({elapsed:.2f} s)")
        else:
            print(f"\n{self.label}: FAIL ({elapsed:.2f} s)")
        return False


def test_criterion_01_split_example_indices():
    with _Timer("criterion 1 (split-system index values)", 1.0):
        for c in (-2.0, -0.5, 0.5, 1.0, 3.0):
            assert weierstrass(models.ex_split_full(c)).nu == 1
            assert weierstrass(models.ex_split_subsystem1(c).pencil).nu == 2
        assert not is_regular(models.ex_split_subsystem1(0.0).pencil)


def test_criterion_02_coupled_example_condition():
    rng = np.random.default_rng(42)
    keys = ("a1", "a2", "b11", "b12", "c11", "c12", "b21", "b22",
            "c21", "c22")
    with _Timer("criterion 2 (coupled-system index condition)", 5.0):
        kept = 0
        while kept < 200:
            vals = {k: float(rng.uniform(-2, 2)) for k in keys}
            if abs(vals["c12"] * vals["c22"] - 1.0) < 1e-3:
                continue
            assert weierstrass(models.ex_coupled_pencil(**vals)).nu == 1
            kept += 1
        # hand-picked degenerate products, labelled by the exact oracle
        degenerate = [
            (dict(c12=1.0, c22=1.0), "singular"),
            (dict(a1=0, a2=-1, b11=0, b12=1, c11=-1, b21=-1, b22=1,
                  c21=-1, c12=1.0, c22=1.0), "nu=2"),
            (dict(a1=0, a2=-1, b11=-1, b12=-1, c11=1, b21=-1, b22=0,
                  c21=0, c12=1.0, c22=1.0), "nu=3"),
        ]
        for kw, expected in degenerate:
            p = models.ex_coupled_pencil(**{k: float(v)
                                            for k, v in kw.items()})
            reg, _, _, nu = wong_exact(p.E.astype(int).tolist(),
                                       p.A.astype(int).tolist())
            label = f"nu={nu}" if reg else "singular"
            assert label == expected
            if reg:
                assert weierstrass(p).nu == nu
            else:
                assert not is_regular(p)


def test_criterion_03_shifted_hybrid_index_jump():
    # The worked shifted-coupling pencil is quoted with index 1 for c = 0
    # and 2 otherwise; those are its strangeness levels.  Its nilpotency
    # (differentiation) indices are one higher, and both facts are pinned:
    # the c entry raises each by exactly one.
    with _Timer("criterion 3 (shifted-coupling index jump)", 1.0):
        rep = analyze(models.ex_shifted_pencil(c=0.0))
        assert rep.mu == 1
        assert rep.nu == 2
        for c in (1.0, -1.0, 0.3):
            rep = analyze(models.ex_shifted_pencil(c=c))
            assert rep.mu == 2
            assert rep.nu == 3


def test_criterion_04_regularity_lemma_property():
    rng = np.random.default_rng(7)
    with _Timer("criterion 4 (regularity lemma, 500 random pairs)", 10.0):
        for _ in range(500):
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))

            def make(n, n_in, n_out):
                E = rng.standard_normal((n, n))
                A = rng.standard_normal((n, n))
                if rng.random() < 0.4:
                    E[rng.integers(n)] = 0.0
                if rng.random() < 0.3:
                    row = rng.integers(n)
                    E[row] = 0.0
                    A[row] = 0.0          # forces a singular pencil
                return LtiDescriptor(E, A, rng.standard_normal((n, n_in)),
                                     rng.standard_normal((n_out, n)))

            s1 = make(n1, m, p)
            s2 = make(n2, p, m)
            assert regularity_theorem_check(s1, s2, tau=1.0)


def test_criterion_05_advanced_breakdown():
    with _Timer("criterion 5 (advanced breakdown)", 10.0):
        m = models.ex_advanced_model(1.0)
        phi = SymbolicSignal(poly=[[0.0], [1.0, 1.0]])
        tr = solve_itp(m, phi, 2.0)
        assert tr.status == "BrokeDown"
        assert tr.breakdown_index == 2
        assert tr.breakdown_time == pytest.approx(1.0, abs=0.0)
        assert np.linalg.norm(tr.breakdown_residual) == pytest.approx(
            1.0, abs=1e-6)
        for t in np.linspace(0.0, 1.0, 1000, endpoint=False):
            z = evaluate(tr, t)
            assert abs(z[0] - t) <= 1e-10
            assert abs(z[1] - 1.0) <= 1e-10


def test_criterion_06_shift_example_closed_form():
    with _Timer("criterion 6 (shift example closed form)", 10.0):
        tau = 0.5
        m = models.ex_shift_model(tau)
        tr = solve_itp(m, m.default_history(), tau)
        x1_0 = m.default_history().eval(0.0)[0]
        g = m.g_signal
        worst = 0.0
        for t in np.linspace(0.0, tau, 500):
            # closed form for the default polynomial data:
            # x1(t) = x1(0) + int_0^t (g(s) + f(s)) ds
            x1 = x1_0 + 1.5 * t - 0.125 * t**2 + (0.125 / 3.0) * t**3
            z = evaluate(tr, t)
            worst = max(worst, abs(z[0] - x1), abs(z[1] - g.eval(t + tau)[0]))
        assert worst <= 1e-8


def test_criterion_07_pendulum_msd_hybrid():
    with _Timer("criterion 7 (hybrid pendulum-oscillator run)", 30.0):
        p = models.PmsdParams()
        m = models.pmsd_hybrid_shifted(p, theta0=0.1)
        assert (m.d, m.a) == (4, 3)
        assert classify(m) == Classification(1)
        phi = m.default_history()
        ok, _ = admissible(m, phi)
        assert ok
        tr = solve_itp(m, phi, 5 * p.tau)
        assert tr.complete
        worst = np.zeros(3)
        for t in np.linspace(0.0, 5 * p.tau, 1000):
            z = evaluate(tr, t)
            zlags = evaluate(tr, t - p.tau)[None, :]
            r = np.abs(m.algebraic_residual(t, z, zlags))
            worst = np.maximum(worst, r)
        assert np.all(worst <= 1e-8), worst


def test_criterion_08_tau_sweep_consistency():
    with _Timer("criterion 8 (delay sweep vs coupled reference)", 60.0):
        p0 = models.PmsdParams()
        base = dict(M=p0.M, C=p0.C, K=p0.K, m=p0.m, L=p0.L, g=p0.g)
        ref = sweep_reference(models.pmsd_coupled(p0, theta0=0.1), 2.0)
        devs = [sweep_deviation(models.pmsd_hybrid_shifted(
                    models.PmsdParams(tau=tau, **base), theta0=0.1),
                    ref, 2.0)[1]
                for tau in (0.1, 0.05, 0.025)]
        assert devs[0] > devs[1] > devs[2] > 0.0


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    total = 10_000
    with _Timer(f"criterion 9 (exact-oracle sweep, {total} pencils)", 120.0):
        ill = 0
        for _ in range(total):
            n = int(rng.integers(1, 5))
            E = rng.integers(-1, 2, size=(n, n)).astype(float)
            A = rng.integers(-1, 2, size=(n, n)).astype(float)
            reg, _, _, nu = wong_exact(E.astype(int).tolist(),
                                       A.astype(int).tolist())
            p = MatrixPencil(E, A)
            try:
                if not reg:
                    assert not is_regular(p)
                    with pytest.raises(SingularPencil):
                        weierstrass(p)
                else:
                    assert weierstrass(p).nu == nu
            except IllConditioned:
                ill += 1
        assert ill < 0.005 * total, f"{ill} ill-conditioned declarations"
        print(f"  ill-conditioned: {ill}/{total}")


def test_criterion_10_order_and_jacobians():
    with _Timer("criterion 10 (integrator order, model Jacobians)", 60.0):
        # measured convergence slope on a smooth scalar problem
        m = SfDdaeModel(
            n=1, d=1, a=0, tau=1.0, s_decl=0,
            D=lambda t, z, zdot, ztau: np.array([zdot[0] + z[0] ** 2]),
            A=lambda t, z, zlags: np.zeros(0),
            JD_z=lambda t, z, zdot, ztau: np.array([[2.0 * z[0]]]),
            JD_zdot=lambda t, z, zdot, ztau: np.eye(1),
            JA_z=lambda t, z, zlags: np.zeros((0, 1)),
            name="riccati")
        errs = []
        for h in (0.1, 0.05):
            prob = SegmentProblem(m, 0.0, 1.0, np.array([1.0]),
                                  lambda t, k: np.zeros(1))
            sol = integrate_segment(prob, IntegrationOptions(h=h))
            errs.append(abs(sol.endpoint[0] - 0.5))
        slope = math.log2(errs[0] / errs[1])
        assert slope >= 3.7, slope

        # analytic Jacobians across the zoo vs central differences
        rng = np.random.default_rng(5)
        zoo = [models.pmsd_hybrid_shifted(), models.pmsd_coupled(),
               models.ex_shift_model(), models.ex_advanced_model()]
        for model in zoo:
            for _ in range(100):
                t = float(rng.uniform(0, 2))
                z = rng.standard_normal(model.n)
                zdot = rng.standard_normal(model.n)
                zlags = rng.standard_normal((model.n_lags, model.n))
                Jz = np.vstack([
                    np.atleast_2d(model.JD_z(t, z, zdot, zlags[0])
                                  ).reshape(model.d, model.n),
                    np.atleast_2d(model.JA_z(t, z, zlags[:model.s_decl])
                                  ).reshape(model.a, model.n)])
                fd = fd_jacobian(
                    lambda x: model.residual(t, x, zdot, zlags), z)
                assert np.allclose(Jz, fd, rtol=1e-6, atol=1e-6)
        rec = models.pendulum_subsystem()
        for _ in range(100):
            z = rng.standard_normal(6)
            zdot = rng.standard_normal(6)
            u = float(rng.standard_normal())
            fd = fd_jacobian(lambda x: rec.residual(0.0, x, zdot, u), z)
            assert np.allclose(rec.jac_z(0.0, z, zdot, u), fd,
                               rtol=1e-6, atol=1e-6)
