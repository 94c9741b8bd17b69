"""Regularity and index analysis of square real matrix pencils.

A pencil (E, A) is regular when det(sE - A) is not the zero polynomial,
which singular-value ratios of s E - A at sample points decide.
Regular pencils decompose as S E T = diag(I_d, N), S A T = diag(J, I_a)
with N nilpotent; the nilpotency index nu is the differentiation index of
the DAE E z' = A z + f.  The decomposition is computed by Wong-sequence
deflation with SVD rank decisions rather than by a Jordan-form algorithm:
only (d, a, nu) and the block split are consumed downstream, and Jordan
structure is numerically unstable.  The module needs numpy alone.
"""

import cmath
import logging
from dataclasses import dataclass

import numpy as np

from .errors import (DataError, IllConditioned, ShapeError, SingularPencil,
                     check_positive)

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10

# Rank decisions are refused when the retained/discarded singular value gap
# is below this factor.
GAP_FACTOR = 10.0


def as_matrix(M, name):
    """M as a 2-D float array; ShapeError, or DataError for entries that
    are not finite numbers."""
    try:
        M = np.asarray(M, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} is not a matrix of numbers: {exc}") from exc
    if M.ndim != 2:
        raise ShapeError(f"{name} must be a matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DataError(f"{name} contains non-finite entries")
    return M


class MatrixPencil:
    """Square real pencil (E, A); its errors name the matrices by
    ``names``, such as the ``A0`` of a linear DDAE."""

    def __init__(self, E, A, names=("E", "A")):
        self.E = as_matrix(E, names[0])
        self.A = as_matrix(A, names[1])
        n = self.E.shape[0]
        if self.E.shape != (n, n) or self.A.shape != (n, n):
            raise ShapeError(
                f"{names[0]} and {names[1]} must be square of equal size, "
                f"got {self.E.shape} vs {self.A.shape}")
        self.n = n

    def to_json(self):
        return {"E": self.E.tolist(), "A": self.A.tolist()}

    @classmethod
    def from_json(cls, data):
        return cls(data["E"], data["A"])

    def __repr__(self):
        return f"MatrixPencil(n={self.n})"


@dataclass(eq=False)
class WeierstrassForm:
    """Result of the Weierstrass-style decomposition.

    S E T = diag(I_d, N) and S A T = diag(J, I_a) up to the stored
    residuals; N is nilpotent with index nu.  T = [V, W] holds the bases
    of the two deflating subspaces as the Wong sequences left them.
    ``cond_P`` is the condition number of the transformation matrix
    P = S^-1.
    """

    S: np.ndarray
    T: np.ndarray
    J: np.ndarray
    N: np.ndarray
    d: int
    a: int
    nu: int
    res_E: float
    res_A: float
    cond_P: float

    @property
    def mu(self):
        """Strangeness index: nu - 1 when algebraic equations are present,
        otherwise 0."""
        return self.nu - 1 if self.a > 0 else 0

    def __repr__(self):
        return (f"WeierstrassForm(d={self.d}, a={self.a}, nu={self.nu}, "
                f"res_E={self.res_E:.2e}, res_A={self.res_A:.2e})")


def _form_field(name):
    return property(lambda report: getattr(report.form, name, None))


@dataclass
class PencilReport:
    """Summary of the structural analysis of one pencil.

    ``form`` is the Weierstrass form of a regular pencil (None when it is
    singular); ``d``, ``a``, ``nu`` (differentiation index) and ``mu``
    (strangeness index) are read from it.
    """

    regular: bool
    det_samples: list
    tol: float
    form: WeierstrassForm | None = None

    d = _form_field("d")
    a = _form_field("a")
    nu = _form_field("nu")
    mu = _form_field("mu")

    def to_json(self):
        data = {
            "regular": self.regular,
            "tolerances": {"tol": self.tol},
            "det_samples": [
                {"s": [s.real, s.imag], "ratio": ratio}
                for s, ratio in self.det_samples
            ],
        }
        if self.regular:
            w = self.form
            data.update({"d": w.d, "a": w.a, "nu": w.nu, "mu": w.mu,
                         "residuals": {"res_E": w.res_E, "res_A": w.res_A}})
        return data


def _det_samples(p, tol):
    """(regular, samples) of a pencil: its one regularity test.

    E and A are scaled separately to a largest entry of 1, which keeps
    regularity.  Each sample is sigma_min / sigma_max of s E - A at one
    point s of the unit circle, the measure of the rank decisions below.
    The pencil is regular at the first ratio above tol and singular when
    none of n + 1 samples is: det(sE - A), of degree <= n, then vanishes at
    n + 1 points.  The empty pencil is regular by convention.
    """
    check_positive("tol", tol)
    if p.n == 0:
        return True, []
    E, A = (M / (np.abs(M).max() or 1.0) for M in (p.E, p.A))
    samples = []
    for k in range(p.n + 1):
        # A quarter-step offset keeps every sample off the real axis, and so
        # off the real spectrum, for every n; a half step fails for even n.
        s = cmath.exp(2j * cmath.pi * (k + 0.25) / (p.n + 1))
        sigma = np.linalg.svd(s * E - A, compute_uv=False)
        ratio = float(sigma[-1] / sigma[0]) if sigma[0] else 0.0
        samples.append((s, ratio))
        if ratio > tol:
            return True, samples
    return False, samples


def is_regular(p, tol=DEFAULT_TOL):
    """True when det(sE - A) is not the zero polynomial."""
    return _det_samples(p, tol)[0]


def _rank_split(sigma, tol, floor, context):
    """Number of singular values kept at threshold tol * max(sigma_max, floor).

    The floor is the norm of the parent matrix the input was projected from;
    without it a numerically-zero projection (entries of size eps * floor)
    would be ranked relative to its own rounding noise.
    """
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    thresh = tol * max(sigma[0], floor)
    r = int(np.count_nonzero(sigma > thresh))
    if 0 < r < sigma.size and sigma[r] > 0.0:
        gap = sigma[r - 1] / sigma[r]
        logger.debug("rank decision (%s): kept %d, gap %.3e", context, r, gap)
        if gap < GAP_FACTOR:
            raise IllConditioned(
                f"ambiguous rank decision in {context}: retained singular value "
                f"{sigma[r - 1]:.3e} within factor {GAP_FACTOR} of discarded "
                f"{sigma[r]:.3e}", retained=sigma[r - 1], discarded=sigma[r])
    return r


def _split(M, tol, floor, context):
    """(image, kernel): orthonormal bases of the column space and of the
    null space of M, both from one SVD and one rank decision."""
    m, n = M.shape
    if m == 0 or n == 0:
        return np.zeros((m, 0)), np.eye(n)
    U, sigma, Vh = np.linalg.svd(M)
    r = _rank_split(sigma, tol, floor, context)
    return U[:, :r], Vh[r:].T


def _wong(X, Y, start, tol, label, scale_X, scale_Y):
    """Wong sequence B_{k+1} = Y^{-1}(X B_k) from B_0 = start.

    (A, E, empty) gives the second sequence, whose limit spans the
    algebraic (infinite-eigenvalue) subspace; (E, A, I_n) gives the first,
    whose limit spans the differential one (Berger, Ilchmann & Trenn, "The
    quasi-Kronecker form for matrix pencils", 2012).  Returns the
    stabilised basis and the number of steps that changed its dimension;
    for the second sequence that count is the nilpotency index.
    ``scale_X`` and ``scale_Y`` are the 2-norms of X and Y, the floors of
    the image and kernel rank decisions.
    """
    image_ctx, kernel_ctx = f"{label} image", f"{label} kernel"
    k0 = start.shape[1]
    B = start
    steps = 0
    for _ in range(X.shape[0] + 1):
        image = _split(X @ B, tol, scale_X, image_ctx)[0]
        proj = Y - image @ (image.T @ Y)
        B_next = _split(proj, tol, scale_Y, kernel_ctx)[1]
        # the sequence moves monotonically away from its start (growing
        # from 0, shrinking from R^n); it has stabilised once a step does
        # not move it further
        if abs(B_next.shape[1] - k0) <= abs(B.shape[1] - k0):
            return B, steps
        B = B_next
        steps += 1
    return B, steps


def weierstrass(p, tol=DEFAULT_TOL):
    """Decompose a regular pencil into differential and algebraic parts.

    Raises SingularPencil when the pencil fails the regularity sampling and
    IllConditioned when a rank decision is ambiguous or the deflating
    subspaces do not split R^n cleanly at the tolerance.
    """
    if not is_regular(p, tol):
        raise SingularPencil("pencil is singular at the sampling tolerance")
    return _decompose(p, tol)


def _decompose(p, tol):
    """Weierstrass form of a pencil that passed the regularity test."""
    E, A, n = p.E, p.A, p.n
    if n == 0:
        empty = np.zeros((0, 0))
        return WeierstrassForm(empty, empty, empty, empty, 0, 0, 0,
                               0.0, 0.0, 1.0)
    norm_E, norm_A = np.linalg.svd(np.array([E, A]), compute_uv=False)[:, 0]
    W, nu = _wong(A, E, np.zeros((n, 0)), tol, "wong-W", norm_A, norm_E)
    V, _ = _wong(E, A, np.eye(n), tol, "wong-V", norm_E, norm_A)
    d, a = V.shape[1], W.shape[1]
    if d + a != n:
        raise IllConditioned(
            f"deflating subspaces split {n} into {d}+{a}; pencil is too close "
            f"to singular for tol={tol:g}")

    P = np.hstack([E @ V, A @ W])
    sigma = np.linalg.svd(P, compute_uv=False)
    cond_P = float(sigma[0]) / float(sigma[-1]) if sigma[-1] > 0.0 else np.inf
    if not np.isfinite(cond_P) or cond_P > 1e14:
        raise IllConditioned(
            f"transformation matrix condition {cond_P:.2e}; deflating "
            f"subspaces are nearly degenerate")
    S = np.linalg.inv(P)
    T = np.hstack([V, W])
    J = S[:d] @ A @ V
    N = S[d:] @ E @ W

    # Cross-check the Wong step count against the nilpotency of N itself.
    # N^k counts as zero once it is negligible next to |N^(k-1)| |N|, the
    # size of its rounding noise; a power that is merely small against
    # max(1, |N|)^k is not zero.
    if a > 0:
        scale = tol * max(1.0, np.linalg.norm(N))
        Npow = np.eye(a)
        nil = 0
        for k in range(1, a + 1):
            prev = np.linalg.norm(Npow)
            Npow = Npow @ N
            if np.linalg.norm(Npow) <= scale * prev:
                nil = k
                break
        else:
            nil = a + 1
        if nil != nu:
            logger.warning("nilpotency cross-check: Wong count %d vs N-power "
                           "count %d; keeping Wong count", nu, nil)
    w = WeierstrassForm(S, T, J, N, d, a, nu, 0.0, 0.0, cond_P)
    w.res_E, w.res_A = equivalence_residual(p, w)
    return w


def equivalence_residual(p, w):
    """Frobenius residuals of the reconstruction (S E T, S A T) vs targets."""
    n = p.n
    d = w.d
    SET = w.S @ p.E @ w.T
    SAT = w.S @ p.A @ w.T
    target_E = np.zeros((n, n))
    target_E[:d, :d] = np.eye(d)
    target_E[d:, d:] = w.N
    target_A = np.zeros((n, n))
    target_A[:d, :d] = w.J
    target_A[d:, d:] = np.eye(n - d)
    return (float(np.linalg.norm(SET - target_E)),
            float(np.linalg.norm(SAT - target_A)))


def analyze(p, tol=DEFAULT_TOL):
    """Full PencilReport: regularity plus the Weierstrass form when regular."""
    regular, samples = _det_samples(p, tol)
    return PencilReport(regular, samples, tol,
                        _decompose(p, tol) if regular else None)
