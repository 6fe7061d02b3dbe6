"""Shared test helpers and expensive session-scoped Monte Carlo runs."""

import numpy as np
import pytest
from hypothesis import settings

from cpjoint import cov_stat_curve, mean_stat_curve

# Property tests draw the same examples on every run, with no example
# database to replay earlier failures from.
settings.register_profile(
    "cpjoint", derandomize=True, database=None, max_examples=50, deadline=None
)
settings.load_profile("cpjoint")


def rel_err(a, b, floor=1e-12):
    """Relative error with an absolute floor for near-zero comparisons."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / scale)


def random_orthogonal(p, rng):
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diagonal(r))


@pytest.fixture(scope="session")
def null_mc_curves():
    """Aggregates of both statistics over 2000 i.i.d. null replications.

    Design shared by the mean- and covariance-side null checks:
    n = 50, p = 20, standard normal entries.
    """
    n, p, reps = 50, 20, 2000
    rng = np.random.default_rng(8675309)
    m_vals = np.empty(reps)
    v_vals = np.empty(reps)
    for r in range(reps):
        x = rng.standard_normal((n, p))
        m_vals[r] = mean_stat_curve(x).aggregate
        v_vals[r] = cov_stat_curve(x).aggregate
    return m_vals, v_vals
