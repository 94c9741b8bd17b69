"""Linear time-invariant descriptor subsystems and their delay coupling.

Subsystems E z' = A z + B u + f with output y = C z are coupled back to
back (u1 = y2, u2 = y1).  Feeding the second subsystem's output through a
pure delay and shifting its equations by the delay yields a linear DDAE
E z'(t) = A0 z(t) + A1 z(t - tau) + f(t) whose current-time pencil
(E, A0) is block lower triangular, so its regularity reduces to the
subsystem pencils.
"""

import numpy as np

from .errors import ShapeError
from .forcing import SymbolicSignal
from .pencil import DEFAULT_TOL, MatrixPencil, is_regular, weierstrass
from .sfdae import Classification, SfDdaeModel


def _as_matrix(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ShapeError(f"{name} must be a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ShapeError(f"{name} contains non-finite entries")
    return M


class LtiDescriptor:
    """Control DAE  E z' = A z + B u + f,  y = C z.

    Regularity of (E, A) is not required at construction; singular
    subsystems are legal inputs to the analysis routines.
    """

    def __init__(self, E, A, B=None, C=None, f=None):
        self.E = _as_matrix(E, "E")
        self.A = _as_matrix(A, "A")
        n = self.E.shape[0]
        if self.E.shape != (n, n) or self.A.shape != (n, n):
            raise ShapeError("E and A must be square of equal size")
        self.n = n
        self.B = _as_matrix(B if B is not None else np.zeros((n, 0)), "B")
        self.C = _as_matrix(C if C is not None else np.zeros((0, n)), "C")
        if self.B.shape[0] != n:
            raise ShapeError(f"B must have {n} rows")
        if self.C.shape[1] != n:
            raise ShapeError(f"C must have {n} columns")
        self.m = self.B.shape[1]
        self.p = self.C.shape[0]
        self.f = f if f is not None else SymbolicSignal.zero(n)
        if self.f.dim != n:
            raise ShapeError(f"forcing dimension {self.f.dim} != state dim {n}")

    @property
    def pencil(self):
        return MatrixPencil(self.E, self.A)

    def to_json(self):
        return {"E": self.E.tolist(), "A": self.A.tolist(),
                "B": self.B.tolist(), "C": self.C.tolist(),
                "f": self.f.to_json()}

    @classmethod
    def from_json(cls, data):
        f = SymbolicSignal.from_json(data["f"]) if "f" in data else None
        return cls(data["E"], data["A"], data.get("B"), data.get("C"), f)

    def __repr__(self):
        return f"LtiDescriptor(n={self.n}, m={self.m}, p={self.p})"


class LinearDdae:
    """Linear delay system  E z'(t) = A0 z(t) + A1 z(t - tau) + f(t)."""

    def __init__(self, E, A0, A1, tau, f=None):
        self.E = _as_matrix(E, "E")
        n = self.E.shape[0]
        self.A0 = _as_matrix(A0, "A0")
        self.A1 = _as_matrix(A1, "A1")
        for name, M in (("E", self.E), ("A0", self.A0), ("A1", self.A1)):
            if M.shape != (n, n):
                raise ShapeError(f"{name} must be {n}x{n}")
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.n = n
        self.tau = float(tau)
        self.f = f if f is not None else SymbolicSignal.zero(n)
        if self.f.dim != n:
            raise ShapeError("forcing dimension mismatch")

    @property
    def pencil(self):
        return MatrixPencil(self.E, self.A0)

    def to_json(self):
        return {"E": self.E.tolist(), "A0": self.A0.tolist(),
                "A1": self.A1.tolist(), "tau": self.tau,
                "f": self.f.to_json()}

    @classmethod
    def from_json(cls, data):
        f = SymbolicSignal.from_json(data["f"]) if "f" in data else None
        return cls(data["E"], data["A0"], data["A1"], data["tau"], f)

    def __repr__(self):
        return f"LinearDdae(n={self.n}, tau={self.tau})"


def _check_coupling_dims(s1, s2):
    if s1.m != s2.p or s2.m != s1.p:
        raise ShapeError(
            f"coupling requires m1=p2 and m2=p1, got m1={s1.m}, p2={s2.p}, "
            f"m2={s2.m}, p1={s1.p}")


def couple(s1, s2):
    """Close the loop u1 = y2, u2 = y1 without any delay.

    The result is the block system with E = diag(E1, E2) and
    A = [[A1, B1 C2], [B2 C1, A2]]; external inputs are consumed by the
    interconnection, so B and C of the result are empty.
    """
    _check_coupling_dims(s1, s2)
    n = s1.n + s2.n
    E = np.zeros((n, n))
    E[:s1.n, :s1.n] = s1.E
    E[s1.n:, s1.n:] = s2.E
    A = np.zeros((n, n))
    A[:s1.n, :s1.n] = s1.A
    A[:s1.n, s1.n:] = s1.B @ s2.C
    A[s1.n:, :s1.n] = s2.B @ s1.C
    A[s1.n:, s1.n:] = s2.A
    return LtiDescriptor(E, A, f=s1.f.stack(s2.f))


def hybrid_shifted(s1, s2, tau):
    """Delay-coupled system after shifting the second block by tau.

    The delay sits in the transfer path feeding subsystem 1, so only the
    top-right coupling block is delayed:
    E = diag(E1, E2), A0 = [[A1, 0], [B2 C1, A2]], A1 = [[0, B1 C2], [0, 0]].
    """
    _check_coupling_dims(s1, s2)
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = s1.n + s2.n
    E = np.zeros((n, n))
    E[:s1.n, :s1.n] = s1.E
    E[s1.n:, s1.n:] = s2.E
    A0 = np.zeros((n, n))
    A0[:s1.n, :s1.n] = s1.A
    A0[s1.n:, :s1.n] = s2.B @ s1.C
    A0[s1.n:, s1.n:] = s2.A
    A1 = np.zeros((n, n))
    A1[:s1.n, s1.n:] = s1.B @ s2.C
    return LinearDdae(E, A0, A1, tau, f=s1.f.stack(s2.f))


def algebraic_solution(w, Ba, u, fa, t):
    """Algebraic variables forced by u and fa:  -sum_j N^j (Ba u^(j) + fa^(j)).

    ``w`` is the WeierstrassForm of the pencil; the sum runs over
    j = 0 .. nu-1, so u and fa must be differentiable to order nu - 1
    (symbolic signals always are).
    """
    a = w.a
    Ba = np.asarray(Ba, dtype=float).reshape(a, -1)
    acc = np.zeros(a)
    Npow = np.eye(a)
    for j in range(w.nu):
        acc += Npow @ (Ba @ u.eval(t, j) + fa.eval(t, j))
        Npow = w.N @ Npow
    return -acc


def is_consistent(sys, z0, u, t0, tol=1e-8):
    """Check that z0 lies in the consistency set of E z' = A z + B u + f.

    Transforms z0 into Weierstrass coordinates and compares the algebraic
    block against the forced algebraic solution at t0.
    """
    w = weierstrass(sys.pencil)
    z0 = np.asarray(z0, dtype=float)
    wz = np.linalg.solve(w.T, z0)
    za = wz[w.d:]
    if w.a == 0:
        return True
    Ba = (w.S @ sys.B)[w.d:]
    fa = sys.f.transform(w.S[w.d:])
    target = algebraic_solution(w, Ba, u, fa, t0)
    return bool(np.linalg.norm(za - target) <= tol * (1.0 + np.linalg.norm(z0)))


def classify_linear(d, tol=DEFAULT_TOL):
    """Retarded / neutral / advanced type of a linear DDAE.

    Uses the Weierstrass form of (E, A0): with At = S A1 T and Aa its
    algebraic row block, K = max { j < nu : N^j Aa != 0 }.  Aa = 0 means the
    delay enters only differential rows (retarded); K = 0 means the
    algebraic part sees z(t - tau) itself (neutral); K >= 1 means the
    underlying delay equation needs derivative order K + 1 (advanced).
    """
    w = weierstrass(d.pencil, tol)
    thresh = tol * (1.0 + float(np.abs(d.A1).max(initial=0.0)))
    At = w.S @ d.A1 @ w.T
    Aa = At[w.d:]
    if w.a == 0 or np.abs(Aa).max(initial=0.0) <= thresh:
        return Classification.retarded()
    K = 0
    Npow = np.eye(w.a)
    for j in range(1, w.nu):
        Npow = w.N @ Npow
        if np.abs(Npow @ Aa).max(initial=0.0) > thresh:
            K = j
    if K == 0:
        return Classification.neutral()
    return Classification.advanced(K + 1)


def regularity_theorem_check(s1, s2, tau=1.0, tol=DEFAULT_TOL):
    """Property harness: shifted-hybrid pencil regular iff both subsystem
    pencils are regular.  Expected to return True on every input."""
    hd = hybrid_shifted(s1, s2, tau)
    lhs = is_regular(hd.pencil, tol)
    rhs = is_regular(s1.pencil, tol) and is_regular(s2.pencil, tol)
    return lhs == rhs


def sf_model_from_linear(ld, tol=DEFAULT_TOL):
    """Wrap a linear DDAE as a strangeness-free model.

    The Weierstrass form of (E, A0) splits the state into differential and
    algebraic blocks; differentiating the algebraic recursion nu - 1 times
    produces the explicit algebraic part, whose delayed-derivative order
    fixes the declared classification.  Raises SingularPencil when (E, A0)
    is singular.
    """
    w = weierstrass(ld.pencil, tol)
    n, d, a, nu = ld.n, w.d, w.a, w.nu
    E, A0, A1 = ld.E, ld.A0, ld.A1
    Sd = w.S[:d]
    Sa = w.S[d:]
    T_inv = np.linalg.solve(w.T, np.eye(n))
    Pa = T_inv[d:]

    thresh = tol * (1.0 + float(np.abs(A1).max(initial=0.0)))
    terms = []          # (N^j Sa A1) for the delayed part of the recursion
    fa_derivative_mats = []     # N^j Sa, applied to f^(j)
    Npow = np.eye(a)
    SaA1 = Sa @ A1
    K = -1
    for j in range(nu):
        M = Npow @ SaA1
        terms.append(M)
        if np.abs(M).max(initial=0.0) > thresh:
            K = j
        fa_derivative_mats.append(Npow @ Sa)
        Npow = w.N @ Npow
    s_decl = K + 1

    def D(t, z, zdot, ztau):
        return Sd @ (E @ zdot - A0 @ z - A1 @ ztau) - Sd @ ld.f.eval(t)

    def A_fn(t, z, zlags):
        acc = Pa @ z
        for j in range(s_decl):
            acc += terms[j] @ zlags[j]
        for j in range(nu):
            acc += fa_derivative_mats[j] @ ld.f.eval(t, j)
        return acc

    JD_z = -(Sd @ A0)
    JD_zdot = Sd @ E

    return SfDdaeModel(
        n=n, d=d, a=a, tau=ld.tau, s_decl=s_decl,
        D=D, A=A_fn,
        JD_z=lambda t, z, zdot, ztau: JD_z,
        JD_zdot=lambda t, z, zdot, ztau: JD_zdot,
        JA_z=lambda t, z, zlags: Pa,
        name="wrapped-linear-ddae")
