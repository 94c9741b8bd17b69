import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and are not timed, so
# a Tier-1 result does not depend on the seed or on the host's speed.
settings.register_profile("ddaekit", derandomize=True, deadline=None)
settings.load_profile("ddaekit")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fd_jacobian(func, x, eps=1e-6):
    """Central finite-difference Jacobian of func at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(func(x))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        step = eps * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (np.atleast_1d(func(xp)) - np.atleast_1d(func(xm))) / (2 * step)
    return J


def well_conditioned(rng, n, spread=2.0):
    """Random invertible matrix with singular values in [1/spread, spread]."""
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.exp(rng.uniform(-np.log(spread), np.log(spread), n))
    return Q1 @ np.diag(sigma) @ Q2


def signal_term_scale(s, t, order):
    """Per component of the signal ``s``, the sum of the magnitudes of the
    terms ``s.eval(t, order)`` adds up, which rounding scales."""
    return np.array([
        sum(abs(c) * math.perm(j, order) * abs(t) ** (j - order)
            for j, c in enumerate(poly) if j >= order)
        + sum(abs(a) * w ** order for a, w, _ in sin)
        for poly, sin in zip(s.poly, s.sin)])
