"""Every number a user gives goes through one of two rules: a finite
positive real (``errors.check_positive``) or an integral count in a range
(``errors.check_count``)."""

import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddaekit.errors import DataError
from ddaekit.forcing import SymbolicSignal
from ddaekit.lti import LinearDdae
from ddaekit.models import PmsdParams
from ddaekit.pencil import MatrixPencil, analyze
from ddaekit.radau import MAX_AUDIT_POINTS, IntegrationOptions
from ddaekit.sfdae import SfDdaeModel
from ddaekit.steps import audit, plan_run, solve_itp


def _model(tau=1.0, s_decl=0):
    """A scalar delayed ODE z' = -z(t - tau) with the given tau and s_decl."""
    return SfDdaeModel(
        n=1, d=1, a=0, tau=tau, s_decl=s_decl,
        D=lambda t, z, zdot, ztau: zdot + ztau,
        A=lambda t, z, zlags: np.zeros(0),
        JD_z=lambda t, z, zdot, ztau: np.zeros((1, 1)),
        JD_zdot=lambda t, z, zdot, ztau: np.eye(1),
        JA_z=lambda t, z, zlags: np.zeros((0, 1)))


def _sized(n, d, a):
    """A model of n states split into d differential and a algebraic rows;
    nothing here calls its callbacks."""
    return SfDdaeModel(n=n, d=d, a=a, tau=1.0, s_decl=0, D=None, A=None,
                       JD_z=None, JD_zdot=None, JA_z=None)


def _rest(v):
    """20 - v where v is one of 0, 1, ..., 20, and 0 otherwise: a count
    whatever v is, so that d + a = 20 wherever v is a valid count."""
    return 20 - v if v in range(21) else 0


class Entry(NamedTuple):
    """One number input: the name its errors give it, a call that passes it
    a value and returns what was kept (the value itself where nothing is),
    whether the entry stores the value, and for a count its range (``low``
    None for a positive real)."""
    name: str
    read: Callable
    stores: bool = True
    low: int | None = None
    high: int | None = None


_ENTRIES = {
    "options-h": Entry("h", lambda v: IntegrationOptions(h=v).h),
    "options-newton_tol": Entry(
        "newton_tol", lambda v: IntegrationOptions(newton_tol=v).newton_tol),
    "options-res_tol": Entry(
        "res_tol", lambda v: IntegrationOptions(res_tol=v).res_tol),
    "pmsd-M": Entry("M", lambda v: PmsdParams(M=v).M),
    "pmsd-m": Entry("m", lambda v: PmsdParams(m=v).m),
    "pmsd-L": Entry("L", lambda v: PmsdParams(L=v).L),
    "pmsd-tau": Entry("tau", lambda v: PmsdParams(tau=v).tau),
    "sfdae-tau": Entry("tau", lambda v: _model(tau=v).tau),
    "linear-tau": Entry("tau", lambda v: LinearDdae(
        np.eye(1), np.eye(1), np.eye(1), v).tau),
    "plan_run-T": Entry("horizon T", lambda v: plan_run(v, 1.0) and v,
                        stores=False),
    "analyze-tol": Entry("tol", lambda v: analyze(
        MatrixPencil(np.eye(2), np.zeros((2, 2))), v).tol, stores=False),
    "options-max_newton": Entry(
        "max_newton", lambda v: IntegrationOptions(max_newton=v).max_newton,
        low=1),
    "options-audit_points": Entry(
        "audit_points",
        lambda v: IntegrationOptions(audit_points=v).audit_points,
        low=2, high=MAX_AUDIT_POINTS),
    "sfdae-s_decl": Entry("s_decl", lambda v: _model(s_decl=v).s_decl,
                          low=0),
    # n, d and a are checked in that order, each before their sum
    "sfdae-n": Entry("n", lambda v: _sized(v, v, 0).n, low=0),
    "sfdae-d": Entry("d", lambda v: _sized(20, v, _rest(v)).d, low=0),
    "sfdae-a": Entry("a", lambda v: _sized(20, _rest(v), v).a, low=0),
    "signal-dim": Entry("signal dim", lambda v: SymbolicSignal(dim=v).dim,
                        low=0),
    "signal-json-dim": Entry(
        "signal dim", lambda v: SymbolicSignal.from_json({"dim": v}).dim,
        low=0),
}


def _refuses(entry, value):
    with pytest.raises(DataError, match=f"^{re.escape(entry.name)} must be"):
        entry.read(value)


def _bad_values():
    for key, entry in _ENTRIES.items():
        bad = [math.nan, math.inf, -math.inf, np.float64(math.nan), True,
               False, "1", 1j, 10 ** 400]
        if entry.low is None:
            bad += [0, 0.0, -1, -1.0]
        else:
            bad += [2.5, entry.low - 1]
            if entry.high is not None:
                bad += [entry.high + 1, 10 ** 20]
        for value in bad:
            shown = (f"10**{len(str(value)) - 1}" if isinstance(value, int)
                     and value > 10 ** 7 else repr(value))
            yield pytest.param(entry, value, id=f"{key}-{shown}")


@pytest.mark.parametrize("entry, value", _bad_values())
def test_every_number_input_refuses_what_its_rule_refuses(entry, value):
    # never an OverflowError or a TypeError, whatever the value
    _refuses(entry, value)


def _values(entry):
    """Finite reals around what ``entry`` accepts, as Python and numpy
    numbers."""
    if entry.low is None:
        reals = st.one_of(st.floats(-5.0, 50.0), st.integers(-5, 50))
    else:
        top = entry.low + 20
        reals = st.one_of(st.integers(entry.low - 5, top),
                          st.floats(entry.low - 5, top),
                          st.integers(entry.low - 5, top).map(float))
        if entry.high is not None:
            reals |= st.sampled_from([entry.high - 1, entry.high,
                                      entry.high + 1])
    return st.one_of(reals, reals.map(np.float64),
                     reals.filter(lambda v: v == int(v)).map(np.int64))


@pytest.mark.parametrize("key", _ENTRIES)
@settings(max_examples=40)
@given(data=st.data())
def test_a_number_input_keeps_a_valid_value_and_names_a_bad_one(key, data):
    entry = _ENTRIES[key]
    value = data.draw(_values(entry))
    if entry.low is None:
        valid, kind = value > 0, float
    else:
        valid, kind = (value == int(value) and entry.low <= value
                       and (entry.high is None or value <= entry.high)), int
    if not valid:
        _refuses(entry, value)
        return
    kept = entry.read(value)
    # the value a caller gave, now of one type wherever it is kept
    assert kept == value
    if entry.stores:
        assert type(kept) is kind


@pytest.mark.parametrize("n, d, a", [(2, 1, 0), (0, 1, 0), (1.0, 1.0, 1.0)],
                         ids=repr)
def test_a_model_whose_split_does_not_add_up_to_n_is_refused(n, d, a):
    with pytest.raises(DataError, match=r"^d \+ a must equal n, got "):
        _sized(n, d, a)


_NOT_NON_NEGATIVE = [math.nan, math.inf, -math.inf, np.float64(math.nan), True,
                     False, "1", 1j, 10 ** 400, -1, -1.0, -1e-300]


@pytest.mark.parametrize("field", ["C", "K", "g"])
@pytest.mark.parametrize("value", _NOT_NON_NEGATIVE, ids=repr)
def test_damping_stiffness_and_gravity_refuse_all_but_a_finite_real_at_least_0(
        field, value):
    # the pendulum's C, K and g may be 0, so they take neither rule; they
    # still refuse what both refuse, never with a TypeError
    with pytest.raises(DataError, match=f"^{field} must be finite and >= 0"):
        PmsdParams(**{field: value})


@pytest.mark.parametrize("field", ["C", "K", "g"])
@pytest.mark.parametrize("value", [0, 0.0, 3, 2.5, np.float64(0.5),
                                   np.int64(7)], ids=repr)
def test_damping_stiffness_and_gravity_keep_a_valid_value_as_a_float(
        field, value):
    kept = getattr(PmsdParams(**{field: value}), field)
    assert kept == value and type(kept) is float


@pytest.fixture(scope="module")
def solved():
    """A short solved trajectory of ``_model``."""
    return solve_itp(_model(), SymbolicSignal.constant([1.0]), 2.0)


@pytest.mark.parametrize("value", [2.5, True, 1, 10 ** 20, math.nan, "2"],
                         ids=repr)
def test_audit_takes_its_point_count_by_the_count_rule(solved, value):
    with pytest.raises(DataError, match=(
            f"^audit_points must be an integer from 2 to {MAX_AUDIT_POINTS}, "
            f"got {re.escape(repr(value))}$")):
        audit(solved, value)


@pytest.mark.parametrize("value", [2, 7.0, np.int64(5)], ids=repr)
def test_audit_reads_a_valid_point_count(solved, value):
    grid, full, alg, states = audit(solved, value)
    assert len(grid) == len(full) == len(states) == value
