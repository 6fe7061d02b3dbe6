"""Mean-shift statistics over all candidate splits of an ordered sample.

For a split tau, the two-sample statistic averages the inner products
(x_i1 - x_j1) . (x_i2 - x_j2) over distinct pre-split indices i1 != i2 and
distinct post-split indices j1 != j2.  That removes the within-group
variance terms, so its expectation is exactly the squared distance between
the pre- and post-split mean vectors (0 when nothing changed).  The curve
over every split and its weighted aggregate are computed in O(np) overall
through running prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StatCurve, as_matrix
from .errors import SampleTooSmallError


@dataclass(frozen=True)
class MeanStatResult:
    """Per-split mean-shift curve (splits 2 .. n-2) and its aggregate."""

    per_tau: StatCurve
    aggregate: float


def mean_stat_curve(data) -> MeanStatResult:
    """Mean-shift statistic at every split, plus the weighted aggregate.

    The aggregate sums tau * (n - tau) / n times the per-split value over
    the full range tau = 2 .. n-2.

    Parameters
    ----------
    data : Dataset or (n, p) array-like
        Time-ordered observations, n >= 4.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if n < 4:
        raise SampleTooSmallError(f"mean-shift curve needs n >= 4, got {n}")

    prefix = np.cumsum(x, axis=0)
    sq_norms = np.cumsum(np.einsum("ij,ij->i", x, x))
    total = prefix[-1]
    total_sq = sq_norms[-1]

    taus = np.arange(2, n - 1)
    s1 = prefix[1 : n - 2]          # row t-1 holds the sum of the first t rows
    q1 = sq_norms[1 : n - 2]
    n1 = taus.astype(np.float64)
    n2 = n - n1

    s2 = total - s1
    within1 = np.einsum("ij,ij->i", s1, s1) - q1
    within2 = np.einsum("ij,ij->i", s2, s2) - (total_sq - q1)
    cross = np.einsum("ij,ij->i", s1, s2)
    per_tau = (
        within1 / (n1 * (n1 - 1.0))
        + within2 / (n2 * (n2 - 1.0))
        - 2.0 * cross / (n1 * n2)
    )

    aggregate = float(np.dot(n1 * n2 / n, per_tau))
    return MeanStatResult(StatCurve(2, n - 2, per_tau), aggregate)

