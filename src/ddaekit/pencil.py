"""Regularity and index analysis of square real matrix pencils.

A pencil (E, A) is regular when det(sE - A) is not the zero polynomial.
Regular pencils decompose as S E T = diag(I_d, N), S A T = diag(J, I_a)
with N nilpotent; the nilpotency index nu is the differentiation index of
the DAE E z' = A z + f.  The decomposition is computed by Wong-sequence
deflation with SVD rank decisions rather than by a Jordan-form algorithm:
only (d, a, nu) and the block split are consumed downstream, and Jordan
structure is numerically unstable.  J and N are reduced to real Schur
(quasi-triangular) form.
"""

import cmath
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesdd

from .errors import DataError, IllConditioned, ShapeError, SingularPencil

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10

# Rank decisions are refused when the retained/discarded singular value gap
# is below this factor.
GAP_FACTOR = 10.0


def as_matrix(M, name):
    """M as a 2-D float array; ShapeError or DataError (non-finite entries)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ShapeError(f"{name} must be a matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DataError(f"{name} contains non-finite entries")
    return M


class MatrixPencil:
    """Square real pencil (E, A)."""

    def __init__(self, E, A):
        self.E = as_matrix(E, "E")
        self.A = as_matrix(A, "A")
        n = self.E.shape[0]
        if self.E.shape != (n, n) or self.A.shape != (n, n):
            raise ShapeError(
                f"E and A must be square of equal size, got {self.E.shape} "
                f"vs {self.A.shape}")
        self.n = n

    def to_json(self):
        return {"E": self.E.tolist(), "A": self.A.tolist()}

    @classmethod
    def from_json(cls, data):
        return cls(np.asarray(data["E"], dtype=float),
                   np.asarray(data["A"], dtype=float))

    def __repr__(self):
        return f"MatrixPencil(n={self.n})"


@dataclass(eq=False)
class WeierstrassForm:
    """Result of the Weierstrass-style decomposition.

    S E T = diag(I_d, N) and S A T = diag(J, I_a) up to the stored
    residuals; N is nilpotent with index nu; J, N are quasi-triangular.
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
                {"s": [s.real, s.imag], "det": [v.real, v.imag], "scale": sc}
                for s, v, sc in self.det_samples
            ],
        }
        if self.regular:
            w = self.form
            data.update({"d": w.d, "a": w.a, "nu": w.nu, "mu": w.mu,
                         "residuals": {"res_E": w.res_E, "res_A": w.res_A}})
        return data


def _det_samples(p):
    """Sample det(sE - A) on a circle, all n + 1 samples in one stacked
    call; each sample carries a Hadamard scale."""
    n = p.n
    eps = 1e-8
    radius = (np.linalg.norm(p.A) + eps) / (np.linalg.norm(p.E) + eps)
    # A quarter-step offset keeps every sample off the real axis for every n
    # (a half step puts one on it for even n), where the real spectrum would
    # otherwise be met systematically.
    s = [radius * cmath.exp(2j * cmath.pi * (k + 0.25) / (n + 1))
         for k in range(n + 1)]
    M = np.array(s)[:, None, None] * p.E - p.A
    dets = np.linalg.det(M)
    rows = np.sqrt((np.abs(M) ** 2).sum(axis=2))
    scales = np.prod(np.maximum(rows, 1e-300), axis=1)
    return [(sk, complex(det), float(scale))
            for sk, det, scale in zip(s, dets, scales)]


def _regularity(p, tol):
    """(regular, determinant samples) of the pencil.

    The determinant is evaluated at n+1 distinct points; a polynomial of
    degree <= n vanishing at all of them is identically zero.  Each sample
    is compared against tol times its Hadamard row bound.  The empty pencil
    is regular by convention.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if p.n == 0:
        return True, []
    samples = _det_samples(p)
    return any(abs(det) > tol * scale for _, det, scale in samples), samples


def is_regular(p, tol=DEFAULT_TOL):
    """True when det(sE - A) is not the zero polynomial."""
    return _regularity(p, tol)[0]


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


def _svd(M, compute_uv=1, full_matrices=1):
    """(U, sigma, Vh) from LAPACK dgesdd; on a pencil's small matrices
    numpy's SVD wrapper costs more than the factorisation."""
    U, sigma, Vh, info = dgesdd(M, compute_uv=compute_uv,
                                full_matrices=full_matrices)
    if info:
        raise np.linalg.LinAlgError(f"SVD did not converge (info {info})")
    return U, sigma, Vh


def _orth(M, tol, floor, context):
    """Orthonormal basis of the column space of M."""
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0))
    U, sigma, _ = _svd(M, full_matrices=0)
    r = _rank_split(sigma, tol, floor, context)
    return U[:, :r]


def _kernel(M, tol, floor, context):
    """Orthonormal basis of the null space of M (columns)."""
    n = M.shape[1]
    if M.shape[0] == 0 or n == 0:
        return np.eye(n)
    _, sigma, Vh = _svd(M)
    sigma = np.concatenate([sigma, np.zeros(n - sigma.size)])
    r = _rank_split(sigma, tol, floor, context)
    return Vh[r:].T


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
        image = _orth(X @ B, tol, scale_X, image_ctx)
        proj = Y - image @ (image.T @ Y)
        B_next = _kernel(proj, tol, scale_Y, kernel_ctx)
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
    norm_E, norm_A = (_svd(M, compute_uv=0)[1][0] for M in (E, A))
    W, nu = _wong(A, E, np.zeros((n, 0)), tol, "wong-W", norm_A, norm_E)
    V, _ = _wong(E, A, np.eye(n), tol, "wong-V", norm_E, norm_A)
    d, a = V.shape[1], W.shape[1]
    if d + a != n:
        raise IllConditioned(
            f"deflating subspaces split {n} into {d}+{a}; pencil is too close "
            f"to singular for tol={tol:g}")

    P = np.hstack([E @ V, A @ W])
    sigma = _svd(P, compute_uv=0)[1]
    cond_P = float(sigma[0]) / float(sigma[-1]) if sigma[-1] > 0.0 else np.inf
    if not np.isfinite(cond_P) or cond_P > 1e14:
        raise IllConditioned(
            f"transformation matrix condition {cond_P:.2e}; deflating "
            f"subspaces are nearly degenerate")
    S = np.linalg.inv(P)
    # Quasi-triangularize the diagonal blocks without disturbing the split.
    # The Schur factors are orthogonal, so rotating the bases leaves cond(P)
    # unchanged and rotates S = P^-1 the same way.  A block of size <= 1 is
    # already triangular and its Schur factor is the identity; rotating by
    # that identity still turns each -0.0 into +0.0, as Schur's factor did.
    QJ = (scipy.linalg.schur(S[:d] @ A @ V, output="real")[1] if d > 1
          else np.eye(d))
    QN = (scipy.linalg.schur(S[d:] @ E @ W, output="real")[1] if a > 1
          else np.eye(a))
    V = V @ QJ
    W = W @ QN
    T = np.hstack([V, W])
    S = np.vstack([QJ.T @ S[:d], QN.T @ S[d:]])
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
    regular, samples = _regularity(p, tol)
    return PencilReport(regular, samples, tol,
                        _decompose(p, tol) if regular else None)
