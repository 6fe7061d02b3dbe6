"""Mean-shift statistics over all candidate splits of an ordered sample.

For a split tau, the two-sample statistic averages the inner products
(x_i1 - x_j1) . (x_i2 - x_j2) over distinct pre-split indices i1 != i2 and
distinct post-split indices j1 != j2.  That removes the within-group
variance terms, so its expectation is exactly the squared distance between
the pre- and post-split mean vectors (0 when nothing changed).  The curve
over every split and its weighted aggregate are computed through running
prefix sums of centered columns, b = _BLOCK columns at a time, and the
suffix sums left of the totals: O(np) time and O(n b) memory beyond the
input.  Centering keeps the prefix sums small for data far from the
origin, where the statistic, translation invariant in exact arithmetic,
would otherwise lose its digits to cancellation.

The three pair sums per split are also sums the covariance sweep needs,
so the sweep forms the curve from them, one range of splits at a time,
through :func:`_mean_values`, and the pipeline runs no pass of its own
for it; :func:`mean_stat_curve` is the cheaper route for callers who
want the mean curve alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StatCurve, as_matrix
from .errors import SampleTooSmallError

#: Columns per block of the prefix-sum sweep.
_BLOCK = 128


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
    n, p = x.shape
    if n < 4:
        raise SampleTooSmallError(f"mean-shift curve needs n >= 4, got {n}")

    # With s1 the sum of the first t rows and s2 = total - s1 that of the
    # others, the curve needs per split |s1|^2, s1 . total and |s2|^2,
    # summed over the column blocks.
    s1_sq = np.zeros(n - 3)
    s1_total = np.zeros(n - 3)
    s2_sq = np.zeros(n - 3)
    q = np.zeros(n)
    means = x.mean(axis=0)
    buf = np.empty((n, min(p, _BLOCK)))
    for lo in range(0, p, _BLOCK):
        cols = x[:, lo : lo + _BLOCK]
        block = np.subtract(cols, means[lo : lo + _BLOCK], out=buf[:, : cols.shape[1]])
        q += np.einsum("ij,ij->i", block, block)
        np.cumsum(block, axis=0, out=block)
        s = block[1 : n - 2]        # row t-1 holds the sum of the first t rows
        total = block[-1]
        s1_sq += np.einsum("ij,ij->i", s, s)
        s1_total += np.einsum("ij,j->i", s, total)
        # s2 in place of s1.  total - s1 carries only the cumsum's rounding
        # past row t-1, on centered partial sums of about the suffix's size,
        # so a short suffix keeps its digits.
        np.subtract(total, s, out=s)
        s2_sq += np.einsum("ij,ij->i", s, s)

    # The within sums drop each side's |x_i|^2, summed from its own end.
    q1 = np.cumsum(q)[1 : n - 2]
    q2 = np.cumsum(q[::-1])[::-1][2 : n - 1]
    return _mean_result(
        _mean_values(s1_sq - q1, s2_sq - q2, s1_total - s1_sq, _side_sizes(2, n - 3, n)),
        n,
    )


def _side_sizes(first: int, count: int, n: int, step: int = 1) -> np.ndarray:
    """[m1, m2], the sizes of the two sides at the splits after first, first + step, ... rows."""
    m1 = np.arange(first, first + step * count, step, dtype=np.float64)
    return np.array((m1, n - m1))


def _mean_values(within1, within2, cross, m: np.ndarray) -> np.ndarray:
    """The curve at a range of splits, from three inner-product sums there.

    within1 and within2 sum x_i . x_j over distinct i, j before and after
    the split, cross over i before it and j after it; m = [m1, m2] holds
    the sizes of the two sides (:func:`_side_sizes`).  Elementwise, so the
    curve can be formed one range of splits at a time.
    """
    n1, n2 = m
    out = within1 / (n1 * (n1 - 1.0))
    out += within2 / (n2 * (n2 - 1.0))
    out -= 2.0 * cross / (n1 * n2)
    return out


def _mean_result(per_tau: np.ndarray, n: int) -> MeanStatResult:
    """The curve at the splits 2 .. n-2 with its aggregate."""
    n1 = np.arange(2, n - 1, dtype=np.float64)
    aggregate = float(np.dot(n1 * (n - n1) / n, per_tau))
    return MeanStatResult(StatCurve(2, n - 2, per_tau), aggregate)
