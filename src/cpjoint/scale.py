"""Noise-scale estimation and null-variance calibration of the aggregates.

Both aggregate statistics have null variances proportional to powers of
tr(Sigma^2), the squared Frobenius norm of the common covariance.  That
trace is estimated from consecutive observation quadruples, which keeps
the estimator unbiased under the null without ever forming Sigma.

The finite-sample calibration also needs the null skewness of the mean
aggregate, which is proportional to tr(Sigma^3) / tr(Sigma^2)^{3/2}; tr(Sigma^3)
is estimated from consecutive differences in the same way.  Both
estimators difference a few rows at a time, in a block of at most
_TRACE_BYTES and about an eighth of the data, so no n x p array is formed
beside the data.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import as_matrix
from .errors import DegenerateScaleError, SampleTooSmallError

# Null-variance constants: Var(mean aggregate) = MEAN_VAR_COEFF * n^2 * tr(Sigma^2)
# and Var(cov aggregate) = COV_VAR_COEFF * n^2 * tr(Sigma^2)^2, to leading order.
MEAN_VAR_COEFF = (2.0 * math.pi**2 - 18.0) / 3.0
COV_VAR_COEFF = (4.0 * math.pi**2 - 36.0) / 3.0

#: Most bytes of differenced rows the trace estimators hold at a time.  On
#: smaller data they hold about an eighth of the data: at n = 2000, p = 50
#: a 0.5 MB block would be the largest array of ``detect`` beside the
#: stored copy.  At n = 200, p = 5000 the block keeps its 13 rows: with
#: 128 KB ones ``trace_sigma2_hat`` took 1.8 ms instead of 1.2 (medians
#: of 31 on a 2-core Xeon).
_TRACE_BYTES = 1 << 19


@dataclass(frozen=True)
class Calibration:
    """Estimated tr(Sigma^2) and the plug-in null variances built from it."""

    trace_hat: float
    sigma1_sq: float
    sigma2_sq: float


def _difference_blocks(x: np.ndarray, overlap: int):
    """Consecutive differences of x, a block of rows at a time.

    For a sum whose term i reads the differences d_i .. d_{i+overlap},
    d_i = x_{i+1} - x_i, yields (lo, hi, d) with d[k] = d_{lo+k}: all the
    differences the terms lo .. hi-1 read.  The blocks share one buffer of
    about _TRACE_BYTES or an eighth of x, whichever is smaller, and each
    term is formed from the same differences as in an unblocked pass.
    """
    n, p = x.shape
    terms = n - 1 - overlap
    rows = min(max(1, min(_TRACE_BYTES, x.nbytes // 8) // (8 * max(p, 1))), terms)
    buf = np.empty((rows + overlap, p))
    for lo in range(0, terms, rows):
        hi = min(lo + rows, terms)
        d = buf[: hi - lo + overlap]
        yield lo, hi, np.subtract(x[lo + 1 : hi + overlap + 1], x[lo : hi + overlap], out=d)


def trace_sigma2_hat(data) -> float:
    """Difference-based estimator of tr(Sigma^2).

    Averages ((x_i - x_{i+1}) . (x_{i+2} - x_{i+3}))^2 / 4 over the n - 3
    consecutive quadruples.  Differencing cancels the mean, so the result
    is unbiased for tr(Sigma^2) when the distribution never changes.
    O(np) cost.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if n < 4:
        raise SampleTooSmallError(f"trace estimator needs n >= 4, got {n}")
    prods = np.empty(n - 3)
    for lo, hi, d in _difference_blocks(x, 2):
        prods[lo:hi] = np.einsum("ij,ij->i", d[:-2], d[2:])
    return float(np.sum(prods * prods) / (4.0 * (n - 3)))


def trace_sigma3_hat(data) -> float:
    """Difference-based estimator of tr(Sigma^3).

    With d_i = x_{i+1} - x_i, averages
    (d_i . d_{i+2}) (d_{i+2} . d_{i+4}) (d_{i+4} . d_i) / 8 over the n - 5
    available triples.  The three differences involve disjoint
    observations, each with covariance 2 Sigma when the distribution never
    changes, so every term has expectation tr((2 Sigma)^3) / 8 = tr(Sigma^3).
    O(np) cost.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if n < 6:
        raise SampleTooSmallError(f"tr(Sigma^3) estimator needs n >= 6, got {n}")
    prods = np.empty(n - 5)
    for lo, hi, d in _difference_blocks(x, 4):
        first, mid, last = d[:-4], d[2:-2], d[4:]
        prods[lo:hi] = (
            np.einsum("ij,ij->i", first, mid)
            * np.einsum("ij,ij->i", mid, last)
            * np.einsum("ij,ij->i", last, first)
        )
    return float(np.sum(prods) / (8.0 * (n - 5)))


@functools.lru_cache(maxsize=16)
def _mean_kernel_skew(n: int) -> float:
    """tr(S^3) / (tr(S^2) / 2)^{3/2}, S the symmetric mean-aggregate kernel.

    The aggregate is sum_{i<k} a_ik x_i . x_k with a_ik = P_i + Q_k,
    P = c1 L + c0 and Q = c1 R, and S = a + a^T has a zero diagonal.  So
    tr(S^2) = 2 sum_{i<k} (P_i + Q_k)^2 and
    tr(S^3) = 6 sum_{i<j<k} (P_i + Q_j)(P_j + Q_k)(P_i + Q_k).  Summing
    over i first leaves prefix sums of 1, P and P^2 at each j, and summing
    over j < k then leaves prefix sums at each k: O(n) time and memory.
    """
    taus = np.arange(2, n - 1, dtype=np.float64)
    # left[i] sums 1 / (n - tau - 1) over the splits tau <= i, which put
    # observation i after the split; right[k] sums 1 / (tau - 1) over the
    # splits tau > k, which put observation k before it.
    left = np.zeros(n)
    left[2 : n - 1] = np.cumsum(1.0 / (n - taus - 1.0))
    right = np.zeros(n)
    right[1 : n - 2] = np.cumsum((1.0 / (taus - 1.0))[::-1])[::-1]
    c1 = 2.0 * (1.0 - 1.0 / n)
    c0 = 6.0 / n - 2.0
    p, q = c1 * left + c0, c1 * right

    # Sums over i < j of 1, P_i and P_i^2, for j = 1 .. n - 1.
    s0 = np.arange(1.0, n)
    s1 = np.cumsum(p)[:-1]
    s2 = np.cumsum(p * p)[:-1]
    pj, qj, qk = p[1:], q[1:], q[2:]
    tr2 = 2.0 * (np.sum(s2) + 2.0 * (s1 @ qj) + s0 @ (qj * qj))
    # sum_{i<j} (P_i + Q_j)(P_i + Q_k) = u_j + v_j Q_k; times (P_j + Q_k),
    # summed over j < k.
    u = s2 + s1 * qj
    v = s1 + s0 * qj
    tr3 = 6.0 * (
        np.sum(np.cumsum(pj * u)[:-1])
        + np.cumsum(u + pj * v)[:-1] @ qk
        + np.cumsum(v)[:-1] @ (qk * qk)
    )
    return tr3 / (0.5 * tr2) ** 1.5


def mean_skewness(trace_hat: float, trace3_hat: float, n: int) -> float:
    """Plug-in null skewness of the mean aggregate.

    The aggregate is the Gaussian quadratic form sum_{i<k} a_ik x_i . x_k,
    whose second and third cumulants are tr(S^2) tr(Sigma^2) / 2 and
    tr(S^3) tr(Sigma^3), S = a + a^T.  Its skewness is therefore the
    kernel factor tr(S^3) / (tr(S^2) / 2)^{3/2} (2.31 at n = 200, about
    2.36 for large n) times tr(Sigma^3) / tr(Sigma^2)^{3/2}, with both
    traces replaced by their estimates.
    """
    return _mean_kernel_skew(n) * trace3_hat / trace_hat**1.5


def calibrate(trace_hat: float, n: int) -> Calibration:
    """Plug-in null variances for the two aggregate statistics.

    Raises DegenerateScaleError when trace_hat is not strictly positive:
    with no usable variation the z-scores would be fabricated, so the
    pipeline refuses instead of clamping.  It raises the same error when
    the covariance side's null variance, which grows with the eighth power
    of the data scale, leaves the range of normal doubles.
    """
    if trace_hat <= 0.0:
        raise DegenerateScaleError(
            f"estimated tr(Sigma^2) = {trace_hat}; data carry no usable variation "
            "(constant rows, or a data scale whose fourth powers underflow)"
        )
    n_sq = float(n) * float(n)
    sigma2_sq = COV_VAR_COEFF * n_sq * trace_hat * trace_hat
    # Also refuses a NaN or infinite trace_hat, which only overflow produces.
    if not sys.float_info.min <= sigma2_sq <= sys.float_info.max:
        raise DegenerateScaleError(
            f"data scale out of range: estimated tr(Sigma^2) = {trace_hat:.3g} "
            f"gives a covariance null variance of {sigma2_sq:.3g}; rescale the data"
        )
    return Calibration(
        trace_hat=trace_hat,
        sigma1_sq=MEAN_VAR_COEFF * n_sq * trace_hat,
        sigma2_sq=sigma2_sq,
    )
