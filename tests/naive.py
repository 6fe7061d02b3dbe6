"""Deliberately naive reference statistics, used only by tests.

Each function evaluates its defining sum by direct enumeration of index
tuples, sharing no code with the fast implementations.  Hard caps on n
keep them from ever being run at experiment scale.
"""

from __future__ import annotations

import numpy as np

from cpjoint.data import as_matrix
from cpjoint.errors import NotSymmetricError, TauRangeError

_MAX_N_MEAN = 24
_MAX_N_COV = 16


def naive_mean_stat(data, tau: int) -> float:
    """Mean-shift statistic at one split by full tuple enumeration."""
    x = as_matrix(data)
    n = x.shape[0]
    if n > _MAX_N_MEAN:
        raise ValueError(f"reference implementation capped at n <= {_MAX_N_MEAN}")
    if not 2 <= tau <= n - 2:
        raise TauRangeError(f"tau={tau} outside [2, {n - 2}]")
    total = 0.0
    for i1 in range(tau):
        for i2 in range(tau):
            if i2 == i1:
                continue
            for j1 in range(tau, n):
                for j2 in range(tau, n):
                    if j2 == j1:
                        continue
                    total += float(np.dot(x[i1] - x[j1], x[i2] - x[j2]))
    return total / (tau * (tau - 1) * (n - tau) * (n - tau - 1))


def _kernel(a, b, c, d) -> float:
    # Squared form, so it is symmetric in (a, b) and in (c, d).
    return float(np.dot(a - b, c - d)) ** 2 / 4.0


def _falling(m: int, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= m - i
    return out


def naive_cov_stat(data, tau: int) -> float:
    """Covariance-shift statistic at one split by direct kernel sums.

    The ordered-tuple sums are folded by the kernel's (a, b) and (c, d)
    symmetries: each unordered pair is enumerated once and counted 4 times.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if n > _MAX_N_COV:
        raise ValueError(f"reference implementation capped at n <= {_MAX_N_COV}")
    if not 4 <= tau <= n - 4:
        raise TauRangeError(f"tau={tau} outside [4, {n - 4}]")

    def within(group) -> float:
        total = 0.0
        for i in group:
            for j in group:
                if j <= i:
                    continue
                for k in group:
                    if k in (i, j):
                        continue
                    for l in group:
                        if l <= k or l in (i, j):
                            continue
                        total += 4.0 * _kernel(x[i], x[j], x[k], x[l])
        return total

    pre = range(tau)
    suf = range(tau, n)
    m1, m2 = tau, n - tau
    cross = 0.0
    for i in pre:
        for j in pre:
            if j <= i:
                continue
            for k in suf:
                for l in suf:
                    if l <= k:
                        continue
                    cross += 4.0 * _kernel(x[i], x[j], x[k], x[l])
    return (
        within(pre) / _falling(m1, 4)
        + within(suf) / _falling(m2, 4)
        - 2.0 * cross / (_falling(m1, 2) * _falling(m2, 2))
    )


def naive_trace_sq(sigma) -> float:
    """Sum of squared entries of a symmetric matrix, i.e. tr(Sigma^2)."""
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {s.shape}")
    if not np.array_equal(s, s.T):
        raise NotSymmetricError("matrix is not symmetric")
    total = 0.0
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            total += float(s[i, j]) ** 2
    return total
