"""Built-in model zoo: pendulum/mass-spring-damper coupling and the small
worked pencil examples, in raw and shifted strangeness-free forms.

The pendulum hangs from the oscillator mass; in the hybrid variant the
pendulum block runs tau seconds behind, so its force enters the oscillator
through delayed arguments.  The strangeness-free split keeps the y1/x2
kinematics and the v1/v2 dynamics as differential equations and carries the
position, velocity and acceleration constraints as the algebraic part, a
selection that stays regular while the rod is not horizontal and in
particular near the hanging rest configuration.
"""

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError
from .forcing import SymbolicSignal
from .lti import LinearDdae, LtiDescriptor, couple, hybrid_shifted
from .pencil import MatrixPencil
from .sfdae import SfDdaeModel, check_delay


@dataclass
class PmsdParams:
    """Physical parameters of the pendulum-oscillator pair.

    M, C, K: numerical-substructure mass, damping, stiffness; m, L:
    pendulum mass and rod length; g: gravity; tau: actuator delay.  The
    defaults are desk-scale choices, overridable from the CLI.
    """

    M: float = 1.0
    C: float = 0.3
    K: float = 5.0
    m: float = 0.2
    L: float = 1.0
    g: float = 9.81
    tau: float = 0.05

    def __post_init__(self):
        if min(self.M, self.m, self.L) <= 0:
            raise ValueError("masses and rod length must be positive")
        if min(self.C, self.K, self.g) < 0:
            raise ValueError("damping, stiffness and gravity must be >= 0")
        self.tau = check_delay(self.tau)


PMSD_STATES = ["y1", "x2", "y2", "v1", "v2", "v3", "lambda"]


def msd_subsystem(params=None, forcing=None):
    """Mass-spring-damper in first-order descriptor form.

    States (position, velocity); the input is the external force and the
    output the position."""
    p = params or PmsdParams()
    E = np.array([[1.0, 0.0], [0.0, p.M]])
    A = np.array([[0.0, 1.0], [-p.K, -p.C]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    return LtiDescriptor(E, A, B, C, forcing)


class PendulumRecord:
    """First-order pendulum with feedthrough state, for index analysis.

    Six equations: two kinematics, the feedthrough definition, two
    dynamics, and the rod-length constraint.  The record carries the
    structural metadata (strangeness index 2; after reduction two
    differential and four algebraic equations) but is not integrated
    directly; the shifted coupled model below is.
    """

    n = 6
    mu = 2
    d = 2
    a = 4

    def __init__(self, params=None):
        self.params = params or PmsdParams()

    def residual(self, t, z, zdot, u):
        p = self.params
        return np.array([
            zdot[0] - z[3],
            zdot[1] - z[4],
            z[5] - u,
            p.m * zdot[3] + 2.0 * z[2] * z[0],
            p.m * zdot[4] + 2.0 * z[2] * (z[1] - u) + p.m * p.g,
            z[0] ** 2 + (z[1] - u) ** 2 - p.L ** 2,
        ])

    def output(self, t, z):
        p = self.params
        return -2.0 * z[2] * (z[1] - z[5]) - p.m * p.g

    def jac_z(self, t, z, zdot, u):
        p = self.params
        J = np.zeros((6, 6))
        J[0, 3] = -1.0
        J[1, 4] = -1.0
        J[2, 5] = 1.0
        J[3, 0] = 2.0 * z[2]
        J[3, 2] = 2.0 * z[0]
        J[4, 1] = 2.0 * z[2]
        J[4, 2] = 2.0 * (z[1] - u)
        J[5, 0] = 2.0 * z[0]
        J[5, 1] = 2.0 * (z[1] - u)
        return J

    def jac_zdot(self, t, z, zdot, u):
        p = self.params
        J = np.zeros((6, 6))
        J[0, 0] = 1.0
        J[1, 1] = 1.0
        J[3, 3] = p.m
        J[4, 4] = p.m
        return J


def pendulum_subsystem(params=None):
    return PendulumRecord(params)


def _pendulum_force(p, y1, y2, lam):
    return -2.0 * lam * (y2 - y1) - p.m * p.g


def rest_state(params=None, y1=0.0, theta=0.0):
    """Steady configuration at rod angle theta from the downward vertical.

    The multiplier solves the acceleration-level constraint with the
    delayed arguments frozen at the same state, so the returned point is
    consistent for both the hybrid and the delay-free coupled model."""
    p = params or PmsdParams()
    x2 = p.L * np.sin(theta)
    y2 = y1 - p.L * np.cos(theta)
    delta = y2 - y1
    denom = 4.0 * delta ** 2 / p.M - 4.0 * p.L ** 2 / p.m
    lam = 2.0 * delta * (p.g - (p.m * p.g + p.K * y1) / p.M) / denom
    return np.array([y1, x2, y2, 0.0, 0.0, 0.0, lam])


def rest_history(params=None, y1=0.0, theta=0.0):
    """Constant admissible history at a (possibly tilted) steady state."""
    p = params or PmsdParams()
    return SymbolicSignal.constant(rest_state(p, y1, theta))


def _pmsd_model(p, delayed_force, force_jac_z, s_decl, name):
    """Shared assembly of the 7-state pendulum-oscillator model.

    ``delayed_force(t, z, ztau)`` supplies the oscillator forcing;
    ``force_jac_z`` its Jacobian w.r.t. the current state (zero for the
    delayed/hybrid variant)."""
    M, C, K, m, L, g = p.M, p.C, p.K, p.m, p.L, p.g

    def D(t, z, zdot, ztau):
        return np.array([
            zdot[0] - z[3],
            zdot[1] - z[4],
            M * zdot[3] + C * z[3] + K * z[0] - delayed_force(t, z, ztau),
            m * zdot[4] + 2.0 * z[6] * z[1],
        ])

    def A(t, z, zlags):
        delta = z[2] - z[0]
        f = delayed_force(t, z, zlags[0] if len(zlags) else z)
        G = g + f / M - (C / M) * z[3] - (K / M) * z[0]
        return np.array([
            z[1] ** 2 + delta ** 2 - L ** 2,
            2.0 * z[1] * z[4] + 2.0 * delta * (z[5] - z[3]),
            2.0 * z[4] ** 2 + 2.0 * (z[5] - z[3]) ** 2
            - (4.0 / m) * z[6] * (z[1] ** 2 + delta ** 2) - 2.0 * delta * G,
        ])

    def JD_z(t, z, zdot, ztau):
        J = np.zeros((4, 7))
        J[0, 3] = -1.0
        J[1, 4] = -1.0
        J[2, 0] = K
        J[2, 3] = C
        J[2] -= force_jac_z(t, z)
        J[3, 1] = 2.0 * z[6]
        J[3, 6] = 2.0 * z[1]
        return J

    def JD_zdot(t, z, zdot, ztau):
        J = np.zeros((4, 7))
        J[0, 0] = 1.0
        J[1, 1] = 1.0
        J[2, 3] = M
        J[3, 4] = m
        return J

    def JA_z(t, z, zlags):
        delta = z[2] - z[0]
        f = delayed_force(t, z, zlags[0] if len(zlags) else z)
        G = g + f / M - (C / M) * z[3] - (K / M) * z[0]
        fj = force_jac_z(t, z)
        J = np.zeros((3, 7))
        J[0, 0] = -2.0 * delta
        J[0, 1] = 2.0 * z[1]
        J[0, 2] = 2.0 * delta
        J[1, 0] = -2.0 * (z[5] - z[3])
        J[1, 1] = 2.0 * z[4]
        J[1, 2] = 2.0 * (z[5] - z[3])
        J[1, 3] = -2.0 * delta
        J[1, 4] = 2.0 * z[1]
        J[1, 5] = 2.0 * delta
        J[2, 0] = (8.0 / m) * z[6] * delta + 2.0 * G + 2.0 * K * delta / M
        J[2, 1] = -(8.0 / m) * z[6] * z[1]
        J[2, 2] = -(8.0 / m) * z[6] * delta - 2.0 * G
        J[2, 3] = -4.0 * (z[5] - z[3]) + 2.0 * C * delta / M
        J[2, 4] = 4.0 * z[4]
        J[2, 5] = 4.0 * (z[5] - z[3])
        J[2, 6] = -(4.0 / m) * (z[1] ** 2 + delta ** 2)
        # G depends on the current state only through the force term.
        J[2] -= (2.0 * delta / M) * fj
        return J

    return SfDdaeModel(
        n=7, d=4, a=3, tau=p.tau, s_decl=s_decl,
        D=D, A=A, JD_z=JD_z, JD_zdot=JD_zdot, JA_z=JA_z,
        name=name, state_names=PMSD_STATES)


def pmsd_hybrid_shifted(params=None, theta0=0.1, y10=0.0,
                        delayed_force_const=None):
    """Shifted hybrid pendulum-oscillator model (7 states, d=4, a=3).

    The oscillator forcing is evaluated at the delayed pendulum state, so
    the algebraic part depends on delayed values but not on delayed
    derivatives (neutral, s=1).  ``delayed_force_const`` replaces the
    delayed force by a constant, which removes the pendulum-to-oscillator
    path entirely (used as a decoupled reference in tests)."""
    p = params or PmsdParams()
    if delayed_force_const is not None:
        const = float(delayed_force_const)

        def delayed_force(t, z, ztau):
            return const
        s_decl = 0
    else:
        def delayed_force(t, z, ztau):
            return _pendulum_force(p, ztau[0], ztau[2], ztau[6])
        s_decl = 1

    def force_jac_z(t, z):
        return np.zeros(7)

    model = _pmsd_model(p, delayed_force, force_jac_z, s_decl,
                        "pmsd-hybrid")
    model.default_history = lambda: rest_history(p, y1=y10, theta=theta0)
    return model


def pmsd_coupled(params=None, theta0=0.1, y10=0.0):
    """Delay-free coupled reference (same states, force at current time).

    tau is kept from the parameters purely as a segmentation length for the
    integrator; no delayed quantity is referenced."""
    p = params or PmsdParams()

    def current_force(t, z, ztau):
        return _pendulum_force(p, z[0], z[2], z[6])

    def force_jac_z(t, z):
        fj = np.zeros(7)
        fj[0] = 2.0 * z[6]
        fj[2] = -2.0 * z[6]
        fj[6] = -2.0 * (z[2] - z[0])
        return fj

    model = _pmsd_model(p, current_force, force_jac_z, 0, "pmsd-coupled")
    model.default_history = lambda: rest_history(p, y1=y10, theta=theta0)
    return model


# -- small worked pencil examples -------------------------------------------

def ex_split_full(c=1.0):
    """3x3 closed system whose index is one for every coupling value c."""
    E = np.diag([1.0, 0.0, 0.0])
    A = np.array([[0.0, c, 0.0], [c, 0.0, 1.0], [0.0, 1.0, -1.0]])
    return MatrixPencil(E, A)


def ex_split_subsystem1(c=1.0, f=None):
    """First split block; singular for c = 0, index two otherwise."""
    E = np.diag([1.0, 0.0])
    A = np.array([[0.0, c], [c, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[0.0, 1.0]])
    return LtiDescriptor(E, A, B, C, f)


def ex_split_subsystem2(f=None):
    """Second split block: one algebraic equation, index one."""
    E = np.zeros((1, 1))
    A = np.array([[-1.0]])
    B = np.array([[1.0]])
    C = np.array([[1.0]])
    return LtiDescriptor(E, A, B, C, f)


def ex_coupled_subsystems(a1=0.0, a2=0.0, b11=0.0, b12=0.0, c11=0.0,
                          c12=0.0, b21=0.0, b22=0.0, c21=0.0, c22=0.0):
    """Two index-one blocks in canonical form with full state coupling."""
    def block(ai, B):
        E = np.diag([1.0, 0.0])
        A = np.diag([ai, 1.0])
        return LtiDescriptor(E, A, np.asarray(B, dtype=float), np.eye(2))

    s1 = block(a1, [[b11, b12], [c11, c12]])
    s2 = block(a2, [[b21, b22], [c21, c22]])
    return s1, s2


def ex_coupled_pencil(**kwargs):
    s1, s2 = ex_coupled_subsystems(**kwargs)
    return couple(s1, s2).pencil


def ex_shifted_subsystems(a=0.0, b=0.0, c=0.0, d=0.0):
    """Two nilpotent blocks whose shifted coupling raises the index with c."""
    N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    s1 = LtiDescriptor(N2, np.eye(2), np.eye(2), np.eye(2))
    s2 = LtiDescriptor(N2, np.eye(2),
                       np.array([[a, b], [c, d]], dtype=float), np.eye(2))
    return s1, s2


def ex_shifted_pencil(a=0.0, b=0.0, c=0.0, d=0.0, tau=1.0):
    s1, s2 = ex_shifted_subsystems(a, b, c, d)
    return hybrid_shifted(s1, s2, tau).pencil


def _default_shift_signals():
    f = SymbolicSignal(poly=[[0.5, 0.25]])
    g = SymbolicSignal(poly=[[1.0, -0.5, 0.125]])
    return f, g


def ex_shift_model(tau=0.5, f=None, g=None, phi1=None):
    """Shifted form of the solution-space example.

    x1' = x2(t - tau) + f(t) with the already-shifted algebraic equation
    x2(t) = g(t + tau); retarded, and x2 is pinned independently of the
    history, so the closed form is available for testing."""
    fdef, gdef = _default_shift_signals()
    f = f if f is not None else fdef
    g = g if g is not None else gdef
    gshift = g.shift(tau)

    model = SfDdaeModel(
        n=2, d=1, a=1, tau=tau, s_decl=0,
        D=lambda t, z, zdot, ztau: np.array(
            [zdot[0] - ztau[1] - f.eval(t)[0]]),
        A=lambda t, z, zlags: np.array([z[1] - gshift.eval(t)[0]]),
        JD_z=lambda t, z, zdot, ztau: np.zeros((1, 2)),
        JD_zdot=lambda t, z, zdot, ztau: np.array([[1.0, 0.0]]),
        JA_z=lambda t, z, zlags: np.array([[0.0, 1.0]]),
        name="ex-shift", state_names=["x1", "x2"])
    phi1 = phi1 if phi1 is not None else SymbolicSignal(poly=[[0.3, 0.2]])
    history = phi1.stack(gshift)
    model.default_history = lambda: history
    model.f_signal = f
    model.g_signal = g
    return model


def ex_shift_linear(tau=0.5, f=None, g=None):
    """Linear-DDAE form of the shifted solution-space example."""
    fdef, gdef = _default_shift_signals()
    f = f if f is not None else fdef
    g = g if g is not None else gdef
    E = np.diag([1.0, 0.0])
    A0 = np.array([[0.0, 0.0], [0.0, -1.0]])
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    forcing = f.stack(g.shift(tau))
    return LinearDdae(E, A0, A1, tau, forcing)


def ex_advanced_model(tau=1.0):
    """Advanced example: x' = y, 0 = x(t) - y(t - tau).

    Strangeness-free form is purely algebraic: x(t) = y(t - tau) and
    y(t) = y'(t - tau), so the algebraic part consumes a delayed
    derivative (s = 2) and the solution generically dies at the first
    breakpoint.  The default history x = 1 - tau, y = 1 + t is admissible
    at every tau: x(0) = y(-tau) and y(0) = y'(-tau)."""
    model = SfDdaeModel(
        n=2, d=0, a=2, tau=tau, s_decl=2,
        D=lambda t, z, zdot, ztau: np.zeros(0),
        A=lambda t, z, zlags: np.array(
            [z[0] - zlags[0][1], z[1] - zlags[1][1]]),
        JD_z=lambda t, z, zdot, ztau: np.zeros((0, 2)),
        JD_zdot=lambda t, z, zdot, ztau: np.zeros((0, 2)),
        JA_z=lambda t, z, zlags: np.eye(2),
        name="ex-advanced", state_names=["x", "y"])
    model.default_history = lambda: SymbolicSignal(
        poly=[[1.0 - model.tau], [1.0, 1.0]])
    return model


def ex_advanced_linear(tau=1.0):
    E = np.diag([1.0, 0.0])
    A0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    A1 = np.array([[0.0, 0.0], [0.0, -1.0]])
    return LinearDdae(E, A0, A1, tau)


# -- registry ----------------------------------------------------------------

@dataclass
class RegistryEntry:
    """Named constructor with default parameters.

    ``reference`` names the entry that serves as the delay-free reference
    of a delay-parameterised model (its ``tau`` parameter); entries that
    name one can be swept over delays.  The README's model table describes
    each entry.
    """

    name: str
    build: Callable
    defaults: dict
    reference: str | None = None

    def make(self, overrides=None):
        params = dict(self.defaults)
        unknown = set(overrides or {}) - set(params)
        if unknown:
            raise ShapeError(
                f"unknown parameter(s) for {self.name}: {sorted(unknown)}")
        params.update(overrides or {})
        return self.build(**params)


def _pmsd_defaults():
    return {**asdict(PmsdParams()), "theta0": 0.1, "y10": 0.0}


def _build_pmsd_hybrid(theta0, y10, **kw):
    return pmsd_hybrid_shifted(PmsdParams(**kw), theta0=theta0, y10=y10)


def _build_pmsd_coupled(theta0, y10, **kw):
    return pmsd_coupled(PmsdParams(**kw), theta0=theta0, y10=y10)


def worked_examples():
    """Registry of every worked example, addressable by name."""
    entries = [
        RegistryEntry(
            "msd",
            lambda M, C, K: msd_subsystem(PmsdParams(M=M, C=C, K=K)),
            {"M": 1.0, "C": 0.3, "K": 5.0}),
        RegistryEntry("pmsd-hybrid", _build_pmsd_hybrid, _pmsd_defaults(),
                      reference="pmsd-coupled"),
        RegistryEntry("pmsd-coupled", _build_pmsd_coupled, _pmsd_defaults()),
        RegistryEntry("ex-split-index", ex_split_full, {"c": 1.0}),
        RegistryEntry(
            "ex-coupled-index", ex_coupled_pencil,
            {"a1": 0.0, "a2": 0.0, "b11": 0.0, "b12": 0.0, "c11": 0.0,
             "c12": 0.0, "b21": 0.0, "b22": 0.0, "c21": 0.0, "c22": 0.0}),
        RegistryEntry("ex-shifted-index", ex_shifted_pencil,
                      {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0, "tau": 1.0}),
        RegistryEntry("ex-shift", ex_shift_model, {"tau": 0.5}),
        RegistryEntry("ex-advanced", ex_advanced_model, {"tau": 1.0}),
    ]
    return {e.name: e for e in entries}


REGISTRY = worked_examples()
