"""Linear time-invariant descriptor subsystems and their delay coupling.

Subsystems E z' = A z + B u + f with output y = C z are coupled back to
back (u1 = y2, u2 = y1).  Feeding the second subsystem's output through a
pure delay and shifting its equations by the delay yields a linear DDAE
E z'(t) = A0 z(t) + A1 z(t - tau) + f(t) whose current-time pencil
(E, A0) is block lower triangular, so its regularity reduces to the
subsystem pencils.
"""

import numpy as np

from .errors import ShapeError, check_positive
from .forcing import SymbolicSignal, _check_forcing_dim
from .pencil import DEFAULT_TOL, MatrixPencil, as_matrix, is_regular, weierstrass
from .sfdae import Classification, SfDdaeModel


class LtiDescriptor:
    """Control DAE  E z' = A z + B u + f,  y = C z.

    Regularity of (E, A) is not required at construction; singular
    subsystems are legal inputs to the analysis routines.  ``pencil`` is
    the pencil (E, A), built and checked once.
    """

    def __init__(self, E, A, B=None, C=None, f=None):
        self.pencil = MatrixPencil(E, A)
        self.E, self.A = self.pencil.E, self.pencil.A
        n = self.n = self.pencil.n
        self.B = as_matrix(B if B is not None else np.zeros((n, 0)), "B")
        self.C = as_matrix(C if C is not None else np.zeros((0, n)), "C")
        if self.B.shape[0] != n:
            raise ShapeError(f"B must have {n} rows")
        if self.C.shape[1] != n:
            raise ShapeError(f"C must have {n} columns")
        self.m = self.B.shape[1]
        self.p = self.C.shape[0]
        self.f = _forcing(self, f)

    def to_json(self):
        return {"E": self.E.tolist(), "A": self.A.tolist(),
                "B": self.B.tolist(), "C": self.C.tolist(),
                "f": self.f.to_json()}

    @classmethod
    def from_json(cls, data):
        return _with_json_forcing(
            cls(data["E"], data["A"], data.get("B"), data.get("C")), data)

    def __repr__(self):
        return f"LtiDescriptor(n={self.n}, m={self.m}, p={self.p})"


class LinearDdae:
    """Linear delay system  E z'(t) = A0 z(t) + A1 z(t - tau) + f(t);
    ``pencil`` is its current-time pencil (E, A0), built and checked once."""

    def __init__(self, E, A0, A1, tau, f=None):
        self.pencil = MatrixPencil(E, A0, ("E", "A0"))
        self.E, self.A0 = self.pencil.E, self.pencil.A
        n = self.n = self.pencil.n
        self.A1 = as_matrix(A1, "A1")
        if self.A1.shape != (n, n):
            raise ShapeError(f"A1 must be {n}x{n}")
        self.tau = check_positive("tau", tau)
        self.f = _forcing(self, f)

    def to_json(self):
        return {"E": self.E.tolist(), "A0": self.A0.tolist(),
                "A1": self.A1.tolist(), "tau": self.tau,
                "f": self.f.to_json()}

    @classmethod
    def from_json(cls, data):
        return _with_json_forcing(
            cls(data["E"], data["A0"], data["A1"], data["tau"]), data)

    def __repr__(self):
        return f"LinearDdae(n={self.n}, tau={self.tau})"


def _forcing(system, f):
    """``f``, or the zero signal of the system's size when None; ShapeError
    for another dimension."""
    f = f if f is not None else SymbolicSignal.zero(system.n)
    _check_forcing_dim(f.dim, system.n)
    return f


def _with_json_forcing(system, data):
    """``system`` with the forcing of its JSON ``data``, if any, one of
    another dimension refused before it is built."""
    if "f" in data:
        system.f = SymbolicSignal.from_json(data["f"], system.n)
    return system


def _interconnection(s1, s2):
    """Blocks of the loop u1 = y2, u2 = y1: E = diag(E1, E2), the
    current-time part A0 = [[A1, 0], [B2 C1, A2]] and the transfer path
    feeding subsystem 1, A1 = [[0, B1 C2], [0, 0]]."""
    if s1.m != s2.p or s2.m != s1.p:
        raise ShapeError(
            f"coupling requires m1=p2 and m2=p1, got m1={s1.m}, p2={s2.p}, "
            f"m2={s2.m}, p1={s1.p}")
    n1 = s1.n
    n = n1 + s2.n
    E = np.zeros((n, n))
    E[:n1, :n1] = s1.E
    E[n1:, n1:] = s2.E
    A0 = np.zeros((n, n))
    A0[:n1, :n1] = s1.A
    A0[n1:, :n1] = s2.B @ s1.C
    A0[n1:, n1:] = s2.A
    A1 = np.zeros((n, n))
    A1[:n1, n1:] = s1.B @ s2.C
    return E, A0, A1


def couple(s1, s2):
    """Close the loop u1 = y2, u2 = y1 without any delay: E = diag(E1, E2),
    A = [[A1, B1 C2], [B2 C1, A2]].  External inputs are consumed by the
    interconnection, so B and C of the result are empty."""
    E, A0, A1 = _interconnection(s1, s2)
    return LtiDescriptor(E, A0 + A1, f=s1.f.stack(s2.f))


def hybrid_shifted(s1, s2, tau):
    """Delay-coupled system after shifting the second block by tau.

    The delay sits in the transfer path feeding subsystem 1, so only the
    top-right coupling block B1 C2 is delayed (see ``_interconnection``).
    """
    E, A0, A1 = _interconnection(s1, s2)
    return LinearDdae(E, A0, A1, tau, f=s1.f.stack(s2.f))


def _powers(N, count):
    """N^0, ..., N^(count - 1), each formed as N @ (previous power)."""
    Npow = np.eye(N.shape[0])
    for _ in range(count):
        yield Npow
        Npow = N @ Npow


def delay_terms(w, A1, tol):
    """Delayed terms of the algebraic recursion and the delay order s.

    ``w`` is the Weierstrass form of (E, A0).  Solving the algebraic block
    N za' = za + Sa A1 z(t - tau) + ... for za gives the terms
    N^j Sa A1 (j < nu), each applied to the j-th derivative of z(t - tau).
    s = K + 1 with K the largest j whose term is nonzero at the tolerance,
    and s = 0 when none is: 0 is retarded, 1 neutral, >= 2 advanced.
    """
    thresh = tol * (1.0 + float(np.abs(A1).max(initial=0.0)))
    SaA1 = w.S[w.d:] @ A1
    terms = [Npow @ SaA1 for Npow in _powers(w.N, w.nu)]
    s = max((j + 1 for j, M in enumerate(terms)
             if np.abs(M).max(initial=0.0) > thresh), default=0)
    return terms, s


def classify_linear(d, tol=DEFAULT_TOL):
    """Retarded / neutral / advanced type of a linear DDAE: the delay order
    of ``delay_terms``, which ``sf_model_from_linear`` also declares."""
    _, s = delay_terms(weierstrass(d.pencil, tol), d.A1, tol)
    return Classification(s)


def regularity_theorem_check(s1, s2, tau=1.0, tol=DEFAULT_TOL):
    """Property harness: shifted-hybrid pencil regular iff both subsystem
    pencils are regular.  Expected to return True on every input."""
    hd = hybrid_shifted(s1, s2, tau)
    lhs = is_regular(hd.pencil, tol)
    rhs = is_regular(s1.pencil, tol) and is_regular(s2.pencil, tol)
    return lhs == rhs


def sf_model_from_linear(ld, tol=DEFAULT_TOL):
    """Wrap a linear DDAE as an affine strangeness-free model.

    The Weierstrass form of (E, A0) splits the state into differential and
    algebraic blocks; differentiating the algebraic recursion nu - 1 times
    produces the explicit algebraic part, whose delayed-derivative order
    fixes the declared classification.  The model keeps its matrices and
    two forcing signals, ``-Sd f`` for D and ``sum_{j<nu} N^j Sa f^(j)``
    for A (``SymbolicSignal.linear_map``), so each callback reads its
    forcing once.  Raises SingularPencil when (E, A0) is singular.
    """
    w = weierstrass(ld.pencil, tol)
    n, d = ld.n, w.d
    Sd = w.S[:d]
    Pa = np.linalg.solve(w.T, np.eye(n))[d:]
    SdE, SdA0, SdA1 = Sd @ ld.E, Sd @ ld.A0, Sd @ ld.A1
    terms, s_decl = delay_terms(w, ld.A1, tol)
    terms = terms[:s_decl]
    f_d = ld.f.linear_map([(-Sd, 0)])
    # N^j Sa applied to f^(j); the j = 0 term also sizes the signal when
    # there is no algebraic block (nu = 0, Sa without rows)
    f_a = ld.f.linear_map([(Npow @ w.S[d:], j) for j, Npow in
                           enumerate(_powers(w.N, max(w.nu, 1)))])

    def D(t, z, zdot, ztau):
        return SdE @ zdot - SdA0 @ z - SdA1 @ ztau + f_d.eval(t)

    def A_fn(t, z, zlags):
        acc = Pa @ z + f_a.eval(t)
        for M, lag in zip(terms, zlags):
            acc += M @ lag
        return acc

    JD_z = -SdA0
    return SfDdaeModel(
        n=n, d=d, a=w.a, tau=ld.tau, s_decl=s_decl,
        D=D, A=A_fn,
        JD_z=lambda t, z, zdot, ztau: JD_z,
        JD_zdot=lambda t, z, zdot, ztau: SdE,
        JA_z=lambda t, z, zlags: Pa,
        name="wrapped-linear-ddae", affine=True)
