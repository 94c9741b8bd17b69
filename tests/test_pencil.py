import builtins
import cmath
import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from ddaekit import pencil
from ddaekit.errors import DataError, ShapeError, SingularPencil
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import LinearDdae, LtiDescriptor
from ddaekit.pencil import (MatrixPencil, analyze, equivalence_residual,
                            is_regular, weierstrass)

from conftest import well_conditioned
from exact_pencil import wong_exact


def nilpotent_block(k, size=None):
    """Single shift block of nilpotency index k, optionally padded."""
    size = size or k
    N = np.zeros((size, size))
    for i in range(k - 1):
        N[i, i + 1] = 1.0
    return N


# -- regularity ------------------------------------------------------------

def test_identity_E_always_regular(rng):
    A = rng.standard_normal((2, 2))
    assert is_regular(MatrixPencil(np.eye(2), A))


def test_split_example_subsystem_singular_at_c0():
    # E = diag(1, 0), A = [[0, c], [c, 0]] has det(sE - A) = -c^2.
    p = MatrixPencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
    assert not is_regular(p)


def test_nilpotent_E_identity_A_regular():
    p = MatrixPencil(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    assert is_regular(p)


def test_zero_A_invertible_E_regular():
    assert is_regular(MatrixPencil(np.eye(3), np.zeros((3, 3))))


@pytest.mark.parametrize("n", [50, 60, 200])
def test_a_random_gaussian_pencil_is_regular(n):
    # regular with probability 1, yet |det(sE - A)| falls below tol times
    # the Hadamard bound of its rows from n of about 50, so a determinant
    # test would read it singular.
    # The same pencil with a shared kernel vector v, E P and A P with
    # P = I - v v^T, is singular at every s.
    rng = np.random.default_rng(n)
    E, A = rng.standard_normal((2, n, n))
    assert is_regular(MatrixPencil(E, A))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    P = np.eye(n) - np.outer(v, v)
    assert not is_regular(MatrixPencil(E @ P, A @ P))


def test_empty_pencil_regular_by_convention():
    p = MatrixPencil(np.zeros((0, 0)), np.zeros((0, 0)))
    assert is_regular(p)
    w = weierstrass(p)
    assert (w.d, w.a, w.nu) == (0, 0, 0)


def test_shape_and_data_errors():
    # a linear system's E and A are checked by its pencil, one rule for all
    # three constructors
    builders = [MatrixPencil, LtiDescriptor,
                lambda E, A: LinearDdae(E, A, np.zeros((2, 2)), 1.0)]
    bad = [(ShapeError, np.zeros((2, 3)), np.zeros((2, 3))),
           (ShapeError, np.zeros((2, 2)), np.zeros((3, 3))),
           (ShapeError, np.zeros(2), np.zeros((2, 2))),
           (DataError, np.array([[np.nan, 0], [0, 1]]), np.eye(2)),
           (DataError, np.eye(2), np.array([[1.0, np.inf], [0, 1]])),
           (DataError, [["x", 0], [0, 1]], np.eye(2))]
    for build in builders:
        for error, E, A in bad:
            with pytest.raises(error):
                build(E, A)
    with pytest.raises(DataError):
        LtiDescriptor(np.eye(2), np.eye(2), B=np.array([[np.inf], [0.0]]))
    # a linear DDAE's pencil names its matrices E and A0, as its file does
    for error, A0, message in [
            (DataError, [[np.nan]], "A0 contains non-finite entries"),
            (ShapeError, [[1.0, 0.0]], "E and A0 must be square of equal "
                                       "size")]:
        with pytest.raises(error, match=f"^{message}"):
            LinearDdae.from_json({"E": [[1.0]], "A0": A0, "A1": [[0.0]],
                                  "tau": 1.0})
    # both linear systems refuse a forcing of another size with one message
    for build in (LtiDescriptor, lambda E, A, f: LinearDdae(E, A, A, 1.0, f)):
        with pytest.raises(ShapeError,
                           match="^forcing dimension 1 != state dim 2$"):
            build(np.eye(2), np.eye(2), f=SymbolicSignal.zero(1))
    # each keeps the one pencil it checked
    for system in (LtiDescriptor(np.eye(2), np.ones((2, 2))),
                   LinearDdae(np.eye(2), np.ones((2, 2)), np.eye(2), 1.0)):
        assert system.pencil is system.pencil
        assert system.pencil.E is system.E


# -- decomposition ----------------------------------------------------------

def test_ode_case_no_algebraic_part(rng):
    J = rng.standard_normal((2, 2))
    w = weierstrass(MatrixPencil(np.eye(2), J))
    assert (w.d, w.a, w.nu) == (2, 0, 0)
    assert w.N.shape == (0, 0)


def test_purely_algebraic_advanced_pencil():
    # det(sE - A) = -1 is constant, so both variables are algebraic; the
    # exact Wong sequence stabilizes after two steps.
    E = np.diag([1.0, 0.0])
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = weierstrass(MatrixPencil(E, A))
    assert (w.d, w.a, w.nu) == (0, 2, 2)
    reg, d, a, nu = wong_exact(E.astype(int).tolist(), A.astype(int).tolist())
    assert (reg, d, a, nu) == (True, 0, 2, 2)


def test_split_example_full_system_index_one():
    for c in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
        E = np.diag([1.0, 0.0, 0.0])
        A = np.array([[0.0, c, 0.0], [c, 0.0, 1.0], [0.0, 1.0, -1.0]])
        assert weierstrass(MatrixPencil(E, A)).nu == 1


def test_split_example_subsystem_index_two():
    for c in (-2.0, -0.5, 0.5, 1.0, 2.0, 3.0):
        E = np.diag([1.0, 0.0])
        A = np.array([[0.0, c], [c, 0.0]])
        assert weierstrass(MatrixPencil(E, A)).nu == 2


def test_ambiguous_rank_gap_raises_with_diagnostics():
    # kernel decision must separate 1.5e-10 from 0.5e-10 at tol 1e-10: the
    # retained/discarded gap is 3 < 10, too ambiguous to trust
    E = np.diag([1.0, 1.5e-10, 0.5e-10])
    A = np.eye(3)
    with pytest.raises(pencil.IllConditioned) as err:
        weierstrass(MatrixPencil(E, A))
    assert err.value.retained == pytest.approx(1.5e-10)
    assert err.value.discarded == pytest.approx(0.5e-10)


def test_singular_pencil_raises():
    p = MatrixPencil(np.diag([1.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(SingularPencil):
        weierstrass(p)


def test_singular_proportional_pencil_is_reported_singular():
    # A = c E with c < 0: a determinant sample on the negative real axis
    # would meet sE - A = 0 up to rounding and compare noise with noise
    S = np.array([[1.0, 0.3], [0.2, 1.1]])
    T = np.array([[0.9, -0.4], [0.5, 1.2]])
    E = S @ np.diag([1.0, 0.0]) @ T
    A = S @ np.diag([-0.7, 0.0]) @ T
    assert not analyze(MatrixPencil(E, A)).regular


def test_nilpotency_cross_check_agrees_on_non_normal_N(caplog):
    # N strictly upper triangular with a nonzero superdiagonal has index 6;
    # its powers shrink fast against max(1, |N|)^k without being zero
    rng = np.random.default_rng(6)
    N = np.triu(rng.standard_normal((6, 6)), 1)
    S = rng.standard_normal((6, 6))
    T = rng.standard_normal((6, 6))
    with caplog.at_level(logging.WARNING, logger="ddaekit.pencil"):
        report = analyze(MatrixPencil(S @ N @ T, S @ T))
    assert (report.d, report.a, report.nu) == (0, 6, 6)
    assert "nilpotency cross-check" not in caplog.text


def test_residuals_small_on_random_regular(rng):
    for _ in range(20):
        E = rng.standard_normal((4, 4))
        A = rng.standard_normal((4, 4))
        p = MatrixPencil(E, A)
        if not is_regular(p):
            continue
        w = weierstrass(p)
        bound = pencil.DEFAULT_TOL * (np.linalg.norm(E) + np.linalg.norm(A) + 1)
        assert w.res_E <= bound
        assert w.res_A <= bound


def test_equivalence_residual_exact_and_perturbed(rng):
    p = MatrixPencil(np.eye(2), np.eye(2))
    w = weierstrass(p)
    res_E, res_A = equivalence_residual(p, w)
    assert res_E < 1e-12 and res_A < 1e-12

    E = rng.standard_normal((3, 3))
    A = rng.standard_normal((3, 3))
    p = MatrixPencil(E, A)
    w = weierstrass(p)
    w.T = w.T + 1e-3 * rng.standard_normal((3, 3))
    res_E, res_A = equivalence_residual(p, w)
    assert res_E > 1e-6 or res_A > 1e-6


def test_index_invariant_under_equivalence(rng):
    E = np.diag([1.0, 0.0])
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    base = weierstrass(MatrixPencil(E, A)).nu
    for _ in range(100):
        S = well_conditioned(rng, 2)
        T = well_conditioned(rng, 2)
        assert weierstrass(MatrixPencil(S @ E @ T, S @ A @ T)).nu == base


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(0, 3),
       blocks=st.lists(st.integers(1, 3), max_size=3),
       singular=st.booleans())
def test_analyze_invariant_under_equivalence_property(seed, d, blocks,
                                                      singular):
    # diag(I_d, N) / diag(J, I_a) with nilpotent chains N of the drawn sizes;
    # a row zeroed in both matrices makes the pencil singular
    rng = np.random.default_rng(seed)
    a = sum(blocks)
    n = d + a
    E = scipy.linalg.block_diag(np.eye(d), *map(nilpotent_block, blocks))
    A = scipy.linalg.block_diag(rng.standard_normal((d, d)), np.eye(a))
    if singular and n:
        row = rng.integers(n)
        E[row] = 0.0
        A[row] = 0.0
    base = analyze(MatrixPencil(E, A))
    expected = ((False, None, None, None) if singular and n
                else (True, d, a, max(blocks, default=0)))
    assert (base.regular, base.d, base.a, base.nu) == expected
    if not n:
        return
    S = well_conditioned(rng, n)
    T = well_conditioned(rng, n)
    rep = analyze(MatrixPencil(S @ E @ T, S @ A @ T))
    assert (rep.regular, rep.d, rep.a, rep.nu) == expected


def test_known_nilpotency_block_constructions(rng):
    for k in (1, 2, 3, 4):
        d = 2
        N0 = nilpotent_block(k)
        J0 = rng.standard_normal((d, d))
        n = d + k
        E = np.zeros((n, n))
        E[:d, :d] = np.eye(d)
        E[d:, d:] = N0
        A = np.zeros((n, n))
        A[:d, :d] = J0
        A[d:, d:] = np.eye(k)
        S = well_conditioned(rng, n)
        T = well_conditioned(rng, n)
        assert weierstrass(MatrixPencil(S @ E @ T, S @ A @ T)).nu == k


def test_determinant_factorization_on_samples(rng):
    # det(sE - A) agrees with det(sI - J) det(sN - I) up to one constant.
    for _ in range(10):
        E = rng.standard_normal((4, 4))
        E[rng.integers(4)] = 0.0
        A = rng.standard_normal((4, 4))
        p = MatrixPencil(E, A)
        if not is_regular(p):
            continue
        w = weierstrass(p)
        ratios = []
        for k in range(5):
            s = 1.5 * cmath.exp(2j * cmath.pi * (k + 0.25) / 5)
            lhs = np.linalg.det(s * E - A)
            rhs = (np.linalg.det(s * np.eye(w.d) - w.J)
                   * np.linalg.det(s * w.N - np.eye(w.a)))
            ratios.append(lhs / rhs)
        ratios = np.array(ratios)
        assert np.all(np.abs(ratios / ratios[0] - 1) < 1e-8)


def test_report_fields_and_json():
    E = np.diag([1.0, 0.0])
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = analyze(MatrixPencil(E, A))
    assert rep.regular and rep.nu == 2 and rep.mu == 1 and rep.d == 0
    data = rep.to_json()
    assert data["regular"] and data["nu"] == 2 and data["mu"] == 1
    # a regular pencil's first sample, [[s, -1], [-1, 0]], is the verdict
    [sample] = data["det_samples"]
    assert sorted(sample) == ["ratio", "s"] and sample["ratio"] > 0.1

    rep = analyze(MatrixPencil(np.diag([1.0, 0.0]), np.zeros((2, 2))))
    assert not rep.regular
    data = rep.to_json()
    assert "nu" not in data
    # a singular pencil lists all n + 1 samples
    assert len(data["det_samples"]) == 3
    assert all(sample["ratio"] == 0.0 for sample in data["det_samples"])


def test_analyze_samples_the_determinant_once(monkeypatch):
    calls = []
    sample = pencil._det_samples

    def counting(p, tol):
        calls.append(p)
        return sample(p, tol)

    monkeypatch.setattr(pencil, "_det_samples", counting)
    E = np.diag([1.0, 0.0])
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert analyze(MatrixPencil(E, A)).nu == 2
    assert len(calls) == 1


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tolerance_must_be_finite_and_positive(tol):
    # a NaN or infinite tolerance fails every singular-value ratio
    # comparison and would call this regular pencil singular
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        analyze(MatrixPencil(np.eye(2), np.zeros((2, 2))), tol)


def _split_index_pencil():
    """d = 2, a = 3, nu = 3: both blocks larger than 1 and several rank
    decisions in each Wong sequence."""
    E = scipy.linalg.block_diag(np.eye(2), nilpotent_block(3))
    A = scipy.linalg.block_diag([[0.0, 1.0], [-2.0, -0.5]], np.eye(3))
    return MatrixPencil(E, A)


def test_analyze_takes_no_2_norm_and_one_svd_per_rank_decision(monkeypatch):
    # three singular-value calls: the regularity test's first sample,
    # which is the verdict of this regular pencil (a singular one would
    # take n + 1), one stacked call for the 2-norms of E and A, and one
    # for cond(P); each rank decision takes one SVD of its own
    norms, svds, decisions = [], [], []
    norm, svd, rank_split = np.linalg.norm, np.linalg.svd, pencil._rank_split

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            norms.append(x)
        return norm(x, ord, *args, **kwargs)

    def counting_svd(M, *args, **kwargs):
        svds.append(kwargs.get("compute_uv", True))
        return svd(M, *args, **kwargs)

    def counting_rank_split(*args):
        decisions.append(args[-1])
        return rank_split(*args)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(pencil, "_rank_split", counting_rank_split)
    report = analyze(_split_index_pencil())
    assert (report.d, report.a, report.nu) == (2, 3, 3)
    assert norms == []
    assert svds.count(False) == 3
    assert svds.count(True) == len(decisions) > 0


def test_analyze_imports_no_scipy(monkeypatch):
    imports = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        if name.partition(".")[0] == "scipy":
            imports.append(name)
        return real_import(name, *args, **kwargs)

    p = _split_index_pencil()
    monkeypatch.setattr(builtins, "__import__", counting_import)
    report = analyze(p)
    assert (report.d, report.a, report.nu) == (2, 3, 3)
    assert imports == []


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
def test_a_common_scale_does_not_change_the_verdict(scale, rng, recwarn):
    # the norms of the first pencil overflow and the determinants of the
    # second underflow; regularity does not change with the scale of the
    # pencil, so each reads as its unit pencil does, without a warning
    E, A = np.diag([1.0, 0.0]), np.diag([0.0, -1.0])
    # nor with separate scales of E and A, so far apart that no factor
    # common to both brings both near 1
    for e, a in [(1e-160, 1e160), (1e-300, 1e300), (1.0, 1e-320)]:
        assert is_regular(MatrixPencil(e * E, a * A))
    for E, A in [(E, A), (rng.standard_normal((4, 4)),
                          rng.standard_normal((4, 4)))]:
        unit = analyze(MatrixPencil(E, A))
        report = analyze(MatrixPencil(scale * E, scale * A))
        assert report.regular and unit.regular
        assert (report.d, report.a, report.nu) == (unit.d, unit.a, unit.nu)
    # exactly singular pencils stay singular, the all-zero one too
    for E, A in [(np.diag([scale, 0.0]), np.zeros((2, 2))),
                 (np.zeros((3, 3)), np.zeros((3, 3)))]:
        assert not is_regular(MatrixPencil(E, A))
    assert not [w for w in recwarn if w.category is RuntimeWarning]


def test_det_samples_match_one_svd_per_sample(rng):
    # reference: each ratio is sigma_min / sigma_max of s E - A, with E and
    # A scaled to a largest entry of 1 (a zero matrix stays zero), from an
    # SVD of its own; sampling stops at the first ratio above tol, and a
    # singular pencil (a shared kernel vector e_1) lists n + 1 samples
    def unit(M):
        big = np.abs(M).max()
        return M / big if big else M

    for n in range(1, 7):
        for singular in (False, True):
            E = 3.0 * rng.standard_normal((n, n))
            A = rng.standard_normal((n, n)) / 7.0
            E[0] = 0.0
            if singular:
                E[:, 0] = A[:, 0] = 0.0
            p = MatrixPencil(E, A)
            assert is_regular(p) is not singular
            for tol in (pencil.DEFAULT_TOL, 0.3):
                regular, samples = pencil._det_samples(p, tol)
                for k, (s, ratio) in enumerate(samples):
                    assert s == cmath.exp(2j * cmath.pi * (k + 0.25) / (n + 1))
                    sigma = np.linalg.svd(s * unit(E) - unit(A),
                                          compute_uv=False)
                    # the same arithmetic, so equal, not close; a zero
                    # sigma_max counts as ratio 0
                    assert ratio == (sigma[-1] / sigma[0] if sigma[0] else 0)
                ratios = [ratio for _, ratio in samples]
                assert all(r <= tol for r in ratios[:-1])
                assert regular is (ratios[-1] > tol)
                assert regular or len(samples) == n + 1


def test_pencil_json_roundtrip():
    p = MatrixPencil(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    q = MatrixPencil.from_json(p.to_json())
    assert np.array_equal(p.E, q.E) and np.array_equal(p.A, q.A)


# -- oracle cross-check (small sample; the full sweep lives in acceptance) --

def test_float_index_matches_exact_oracle(rng):
    agree = 0
    for _ in range(400):
        n = int(rng.integers(1, 5))
        E = rng.integers(-1, 2, size=(n, n)).astype(float)
        A = rng.integers(-1, 2, size=(n, n)).astype(float)
        reg, d, a, nu = wong_exact(E.astype(int).tolist(), A.astype(int).tolist())
        p = MatrixPencil(E, A)
        if not reg:
            assert not is_regular(p)
        else:
            w = weierstrass(p)
            assert (w.d, w.a, w.nu) == (d, a, nu)
        agree += 1
    assert agree == 400
