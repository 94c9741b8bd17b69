"""Strangeness-free delay DAE models.

A model supplies its own split into d differential equations
D(t, z, z', z_tau) and a algebraic equations A(t, z, z_tau, z_tau', ...),
including all hidden constraints.  The split is part of the model
definition: computing it automatically for a black-box residual would need
symbolic derivative arrays, so built-in models ship hand-derived
constraints instead.

The declared delay-derivative order of A (``s_decl``) classifies the
system: 0 retarded, 1 neutral, >= 2 advanced.  Advanced systems lose one
derivative of smoothness per delay interval and generically break down
under the method of steps.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_count, check_positive
from .radau import SegmentProblem, start_consistency

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Classification:
    """Delay type of a DDAE, derived from its delay-derivative order s:
    0 retarded, 1 neutral, >= 2 advanced."""

    RETARDED = "retarded"
    NEUTRAL = "neutral"
    ADVANCED = "advanced"

    s: int

    def __post_init__(self):
        check_count("delay-derivative order", self.s, 0)

    @property
    def tag(self):
        return (self.RETARDED if self.s == 0 else self.NEUTRAL if self.s == 1
                else self.ADVANCED)

    def __repr__(self):
        return f"Classification({self.tag}, s={self.s})"

    def to_json(self):
        return {"type": self.tag, "s": self.s}


class SfDdaeModel:
    """Strangeness-free DDAE with hand-supplied split and Jacobians.

    Parameters
    ----------
    n, d, a : state dimension and differential/algebraic equation counts,
        integers >= 0 kept as ints, with d + a = n
    tau : delay, strictly positive
    s_decl : highest delayed-derivative order + 1 appearing in A; 0 means A
        is independent of all delayed quantities
    D : callable (t, z, zdot, ztau) -> (d,)
    A : callable (t, z, zlags) -> (a,) where zlags has rows
        z_tau, z_tau', ..., z_tau^(s_decl - 1)
    JD_z, JD_zdot : Jacobians of D w.r.t. z and zdot, same signature as D
    JA_z : Jacobian of A w.r.t. z, same signature as A
    name : identifier used in reports
    default_history : optional zero-argument callable building a history
    affine : declares D and A affine in (z, zdot, lags) with JD_z, JD_zdot
        and JA_z their exact, constant coefficients: the integrator then
        reads each once per run, inverts the stage matrix once per
        distinct h, and solves every step's linear stage equations
        directly (``lti.sf_model_from_linear`` sets it)
    """

    def __init__(self, n, d, a, tau, s_decl, D, A, JD_z, JD_zdot, JA_z,
                 name="model", default_history=None, affine=False):
        self.n = check_count("n", n, 0)
        self.d = check_count("d", d, 0)
        self.a = check_count("a", a, 0)
        if self.d + self.a != self.n:
            raise DataError(f"d + a must equal n, got {d} + {a} != {n}")
        self.tau = check_positive("tau", tau)
        self.s_decl = check_count("s_decl", s_decl, 0)
        self.D = D
        self.A = A
        self.JD_z = JD_z
        self.JD_zdot = JD_zdot
        self.JA_z = JA_z
        self.name = name
        self.default_history = default_history
        self.affine = affine

    @property
    def n_lags(self):
        """Number of delayed-derivative rows the model consumes."""
        return max(1, self.s_decl)

    def residual(self, t, z, zdot, zlags):
        """Stacked [D; A] residual; zlags rows are z_tau^(j).  At the m times
        of an array t, every state, lag row and result takes a trailing axis
        of length m.  An empty block's callback is never called."""
        if getattr(zlags, "ndim", 0) < 2:
            zlags = np.atleast_2d(zlags)
        out = np.empty(z.shape)
        if self.d:
            out[:self.d] = self.D(t, z, zdot, zlags[0])
        if self.a:
            out[self.d:] = self.A(t, z, zlags[:self.s_decl])
        return out

    def algebraic_residual(self, t, z, zlags):
        zlags = np.atleast_2d(zlags)
        return np.asarray(self.A(t, z, zlags[:self.s_decl]))

    def __repr__(self):
        return (f"SfDdaeModel({self.name!r}, n={self.n}, d={self.d}, "
                f"a={self.a}, tau={self.tau}, s_decl={self.s_decl})")


def admissible(m, phi):
    """Check the history endpoint against the algebraic part.

    ``phi`` is the history, a ``SymbolicSignal`` read on [-tau, 0].
    Applies ``radau.start_consistency`` to phi(0) with the lag rows
    phi(-tau), phi'(-tau), ..., phi^(s_decl-1)(-tau), read by the first
    method-of-steps segment's own ``SegmentProblem.lags``, and returns
    (consistent, r).  This is exactly that segment's start check, and an
    admissible history guarantees solvability on [0, tau).
    """
    first = SegmentProblem(m, 0.0, m.tau, phi.eval(0.0), phi)
    ok, r, _ = start_consistency(m, 0.0, first.z0, first.lags(0.0))
    return ok, r


def classify(m):
    """Declared classification of the model (pure reporting of s_decl)."""
    return Classification(m.s_decl)
