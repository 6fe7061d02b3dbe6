"""Mean-shift statistics over all candidate splits of an ordered sample.

For a split tau, the two-sample statistic averages the inner products
(x_i1 - x_j1) . (x_i2 - x_j2) over distinct pre-split indices i1 != i2 and
distinct post-split indices j1 != j2.  That removes the within-group
variance terms, so its expectation is exactly the squared distance between
the pre- and post-split mean vectors (0 when nothing changed).

The curve needs three inner-product sums per split: within the prefix,
within the suffix and across the split.  They are three of the ten sums
of the covariance sweep over the centered rows, so this module runs no
pass of its own: :func:`mean_stat_curve` reads the curve off the same
sweep that ``detect`` uses (``cov_shift._curves``) and gives the same
bits.  Alone it pays for the whole sweep, the covariance curve formed and
dropped: on a 2-core box, best of 15, 0.87 ms at n = 200, p = 100 (0.31
ms for the column-block pass it replaced), 8.4 ms at 2000 x 50 (1.1 ms)
and 5.9 ms at 200 x 5000 (8.7 ms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cov_shift import _curves
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
    # The covariance sums, quartic in the data, overflow long before the
    # mean curve's quadratic ones, and that curve is dropped; StatCurve
    # still refuses a mean curve that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        per_tau = _curves(x)[1]
    return _mean_result(per_tau, n)


def _mean_result(per_tau: np.ndarray, n: int) -> MeanStatResult:
    """The curve at the splits 2 .. n-2 with its aggregate."""
    n1 = np.arange(2, n - 1, dtype=np.float64)
    aggregate = float(np.dot(n1 * (n - n1) / n, per_tau))
    return MeanStatResult(StatCurve(2, n - 2, per_tau), aggregate)
