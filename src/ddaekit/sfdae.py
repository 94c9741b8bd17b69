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
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .radau import start_consistency

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
        if self.s < 0:
            raise ValueError(f"delay-derivative order must be >= 0, got "
                             f"{self.s}")

    @property
    def tag(self):
        return (self.RETARDED if self.s == 0 else self.NEUTRAL if self.s == 1
                else self.ADVANCED)

    def __repr__(self):
        return f"Classification({self.tag}, s={self.s})"

    def to_json(self):
        return {"type": self.tag, "s": self.s}


def check_delay(tau):
    """tau as a float; DataError unless it is a finite positive number (a
    zero delay makes the shifted coupling collapse)."""
    if not (isinstance(tau, numbers.Real) and math.isfinite(tau) and tau > 0):
        raise DataError(f"tau must be a finite positive number, got {tau!r}")
    return float(tau)


class SfDdaeModel:
    """Strangeness-free DDAE with hand-supplied split and Jacobians.

    Parameters
    ----------
    n, d, a : state dimension and differential/algebraic equation counts,
        with d + a = n
    tau : delay, strictly positive
    s_decl : highest delayed-derivative order + 1 appearing in A; 0 means A
        is independent of all delayed quantities
    D : callable (t, z, zdot, ztau) -> (d,)
    A : callable (t, z, zlags) -> (a,) where zlags has rows
        z_tau, z_tau', ..., z_tau^(s_decl - 1)
    JD_z, JD_zdot : Jacobians of D w.r.t. z and zdot, same signature as D
    JA_z : Jacobian of A w.r.t. z, same signature as A
    name : identifier used in reports
    state_names : informational component labels
    default_history : optional zero-argument callable building a history
    """

    def __init__(self, n, d, a, tau, s_decl, D, A, JD_z, JD_zdot, JA_z,
                 name="model", state_names=None, default_history=None):
        if d + a != n:
            raise ValueError(f"d + a must equal n, got {d} + {a} != {n}")
        if s_decl < 0:
            raise ValueError("s_decl must be non-negative")
        self.n = n
        self.d = d
        self.a = a
        self.tau = check_delay(tau)
        self.s_decl = int(s_decl)
        self.D = D
        self.A = A
        self.JD_z = JD_z
        self.JD_zdot = JD_zdot
        self.JA_z = JA_z
        self.name = name
        self.state_names = list(state_names) if state_names else [
            f"z_{i + 1}" for i in range(n)]
        self.default_history = default_history

    @property
    def n_lags(self):
        """Number of delayed-derivative rows the model consumes."""
        return max(1, self.s_decl)

    def residual(self, t, z, zdot, zlags):
        """Stacked [D; A] residual; zlags rows are z_tau^(j)."""
        zlags = np.atleast_2d(zlags)
        out = np.empty(self.n)
        out[:self.d] = self.D(t, z, zdot, zlags[0])
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
    phi(-tau), phi'(-tau), ..., phi^(s_decl-1)(-tau) and returns
    (consistent, r).  These are the values the first method-of-steps
    segment reads, so this is exactly its start check, and an admissible
    history guarantees solvability on [0, tau).
    """
    zlags = np.stack([phi.eval(-m.tau, order=j) for j in range(m.n_lags)])
    ok, r, _ = start_consistency(m, 0.0, phi.eval(0.0), zlags)
    return ok, r


def classify(m):
    """Declared classification of the model (pure reporting of s_decl)."""
    return Classification(m.s_decl)
