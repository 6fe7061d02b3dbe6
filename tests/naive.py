"""Deliberately naive reference statistics, used only by tests.

Each function evaluates its defining sum by direct enumeration of index
tuples, sharing no code with the fast implementations.  Hard caps on n
keep them from ever being run at experiment scale.  The exception is the
pair of unblocked trace estimators: single-pass forms over all n - 1
differences, which the row-blocked estimators must match bit for bit, and
the CSV reader that builds one Python float per cell.

``_sweep_terms``, ``_feature_terms`` and ``_curve`` are not oracles: they
are thin wrappers that run the package's covariance kernels on a whole
Gram matrix or return all ten sums at once, forms the package never
needs but the tests check against brute force.  ``direct_sweep_terms``
is their extended-precision reference.  The three- and four-index sums
that the curve derives from the ten are checked through the curve, against
``naive_cov_stat``.

The p-value forms of the tails (``normal_sf``, ``fisher_combine`` and
``chi2_4_quantile``) are oracles for the log-space functions the package
ships; the package itself never needs them.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from cpjoint import cov_shift
from cpjoint.cli import CsvFormatError
from cpjoint.cov_shift import CovStatResult, _SweepTerms, _side_sizes
from cpjoint.data import as_matrix
from cpjoint.errors import (
    AlphaRangeError,
    CpjointError,
    NotSymmetricError,
    PValueRangeError,
    SampleTooSmallError,
)
from cpjoint.tails import BELOW_ONE, TINY, _erfc, _validate_finite

_MAX_N_MEAN = 24
_MAX_N_COV = 16


class TauRangeError(CpjointError, ValueError):
    """A candidate split index lies outside its valid range."""


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


def centered_gram(x: np.ndarray) -> np.ndarray:
    """The whole Gram matrix of the column-centered rows, as one array.

    With m the column means and a = x m, the raw Gram matrix g is
    centered entry by entry: g_ij - ((a_i + a_j) - |m|^2), while |m| is
    at most the rows' spread; data farther out are centered in a copy
    first.  x @ x.T of a C-contiguous matrix is numpy's symmetric syrk.
    """
    x = np.require(as_matrix(x), requirements=("C", "A"))
    n = x.shape[0]
    m = x.mean(axis=0)
    mm = float(m @ m)
    if n * mm > 0.5 * float(np.vdot(x, x)):
        xc = x - m
        return xc @ xc.T
    g = x @ x.T
    a = x @ m
    shift = a[:, None] + a
    shift -= mm
    g -= shift
    return g


def _sweep_terms(g: np.ndarray) -> _SweepTerms:
    """The ten sums from a whole float64 Gram matrix, by the package's blocked sweep.

    The sweep consumes g: on return it holds no Gram entries.
    """
    n = len(g)
    panels = [(blocks, g) for blocks in cov_shift._panel_blocks(n, n)]
    return _SweepTerms(*cov_shift._sweep(n, panels))


def _feature_terms(x: np.ndarray, center: np.ndarray | float = 0.0) -> _SweepTerms:
    """The ten sums of the rows x_i - center at t = 0 .. n-1, by the package's feature passes.

    Entry t is the split after t + 1 rows.  Each chunk's sums are copied
    out before the package overwrites them with the next chunk's.
    """
    terms = np.empty((len(_SweepTerms._fields), x.shape[0]))
    for first, step, base, rows in cov_shift._feature_passes(x, center):
        if step < 0:        # columns after first, first - 1, ... rows
            first, base = first - base.shape[1] + 1, base[:, ::-1]
        if first == 0:      # the split after no rows has no entry
            first, base = 1, base[:, 1:]
        terms[:, first - 1 : first - 1 + base.shape[1]] = base[list(rows)]
    return _SweepTerms(*terms)


def _curve(terms: _SweepTerms, n: int) -> CovStatResult:
    """Per-split values and aggregate from the sums, which it leaves as they are.

    The curve is formed in the sums' own dtype and rounded only at the end.
    """
    k = slice(3, n - 4)                     # a prefix of tau rows ends at row tau - 1
    split = np.array([f[k] for f in terms])
    m = _side_sizes(4, n - 7, n)
    return cov_shift._cov_result(cov_shift._split_values(split, cov_shift._FIELDS, m), n)


def direct_sweep_terms(g: np.ndarray) -> _SweepTerms:
    """The ten sums of :func:`_sweep_terms`, summed directly in g's own dtype.

    An oracle for the float64 kernels when g is in extended precision
    (``np.longdouble``).  With C[t, j] the sum of g_ij over i <= t and
    S[t, j] the sum over i > t, both for i != j, a forward pass runs C on
    row by row and a backward pass S, so no sum is a difference of longer
    ones.  O(n^2) time, O(n) memory beside g.
    """
    n = len(g)
    out = np.zeros((len(_SweepTerms._fields), n), dtype=g.dtype)
    terms = _SweepTerms(*out)
    run = np.zeros(n, dtype=g.dtype)        # C[t] forward, then S[t] backward
    run2 = np.zeros(n, dtype=g.dtype)       # the same sums of g_ij^2

    def add_row(t):
        row = g[t].copy()
        row[t] = 0.0
        np.add(run, row, out=run)
        np.add(run2, row * row, out=run2)

    for t in range(n):
        add_row(t)
        pre, suf = run[: t + 1], run[t + 1 :]
        terms.pre1[t], terms.pre2[t] = pre.sum(), run2[: t + 1].sum()
        terms.pre_cc[t] = (pre * pre).sum()
        terms.cross1[t], terms.cross2[t] = suf.sum(), run2[t + 1 :].sum()
        terms.cross_cc[t] = (suf * suf).sum()
    run[:] = run2[:] = 0.0
    for t in range(n - 1, -1, -1):
        pre, suf = run[: t + 1], run[t + 1 :]
        terms.suf1[t], terms.suf2[t] = suf.sum(), run2[t + 1 :].sum()
        terms.suf_ss[t] = (suf * suf).sum()
        terms.cross_ss[t] = (pre * pre).sum()
        add_row(t)
    return terms


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


def unblocked_trace_sigma2(data) -> float:
    """tr(Sigma^2) estimate from all n - 1 consecutive differences at once."""
    x = as_matrix(data)
    steps = x[:-1] - x[1:]
    prods = np.einsum("ij,ij->i", steps[:-2], steps[2:])
    return float(np.sum(prods * prods) / (4.0 * (x.shape[0] - 3)))


def unblocked_trace_sigma3(data) -> float:
    """tr(Sigma^3) estimate from all n - 1 consecutive differences at once."""
    x = as_matrix(data)
    d = np.diff(x, axis=0)
    first, mid, last = d[:-4], d[2:-2], d[4:]
    prods = (
        np.einsum("ij,ij->i", first, mid)
        * np.einsum("ij,ij->i", mid, last)
        * np.einsum("ij,ij->i", last, first)
    )
    return float(np.sum(prods) / (8.0 * (x.shape[0] - 5)))


def mean_coefficients(n: int) -> np.ndarray:
    """Coefficients of the aggregate statistic as a pairwise expansion.

    Returns an n x n array ``a`` with the strict upper triangle filled so
    that the aggregate equals sum over i < k of a[i, k] * (x_i . x_k)
    (0-based observation indices); the remaining entries are zero.  Every
    row sum of the symmetric extension of ``a`` is zero, which is what
    makes the aggregate translation invariant.

    Used as an independent cross-check of :func:`cpjoint.mean_stat_curve`
    and of the kernel factor of the finite-sample calibration.
    """
    if n < 4:
        raise SampleTooSmallError(f"coefficient table needs n >= 4, got {n}")

    taus = np.arange(2, n - 1, dtype=np.float64)
    # left[i] = sum over tau < i+1 of 1 / (n - tau - 1): both observations
    # fall after the split; right[k] mirrors it for both before the split.
    left = np.zeros(n + 1)
    left[3:n] = np.cumsum(1.0 / (n - taus - 1.0))
    right = np.zeros(n + 1)
    right[2 : n - 1] = np.cumsum((1.0 / (taus - 1.0))[::-1])[::-1]

    scale = 2.0 * (1.0 - 1.0 / n)
    const = 6.0 / n - 2.0
    one_based = scale * np.add.outer(left, right) + const
    return np.triu(one_based[1:, 1:], k=1)


def normal_sf(x):
    """Upper tail 1 - Phi(x) of the standard normal, always inside (0, 1).

    erfc(x / sqrt(2)) / 2 from the standard library's ``math.erfc``,
    clamped away from exact 0 and 1.  The rounding of x / sqrt(2) makes
    the relative error grow like x^2 * 2^-53: about 1e-13 near x = 37.
    From about 38.5 on erfc underflows and the result is the smallest
    positive double.  Accepts scalars or arrays.
    """
    out = np.clip(0.5 * _erfc(_validate_finite(x) * math.sqrt(0.5)), TINY, BELOW_ONE)
    return float(out) if out.ndim == 0 else out


def fisher_combine(p_mean: float, p_cov: float) -> float:
    """Fisher combination -2 log(p_mean) - 2 log(p_cov) of two p-values."""
    for name, p in (("p_mean", p_mean), ("p_cov", p_cov)):
        if not (0.0 < p < 1.0):
            raise PValueRangeError(f"{name}={p} not strictly inside (0, 1)")
    return -2.0 * (math.log(p_mean) + math.log(p_cov))


def chi2_4_quantile(alpha: float) -> float:
    """The t with chi2_4_sf(t) = alpha, from scipy's ``chdtri``."""
    if not (0.0 < alpha < 1.0):
        raise AlphaRangeError(f"alpha={alpha} not strictly inside (0, 1)")
    from scipy.special import chdtri

    return float(chdtri(4, alpha))


def naive_read_matrix_csv(path: str) -> np.ndarray:
    """Parse a numeric CSV cell by cell with ``csv.reader`` and ``float``.

    Line 1 is skipped as a header when one of its cells is not numeric;
    blank lines are skipped; a UTF-8 byte-order mark is dropped.  Every
    other row must be numeric and as wide as the first data row.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for line_no, record in enumerate(csv.reader(handle), start=1):
            if not record:
                continue
            try:
                values = [float(cell) for cell in record]
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise CsvFormatError(
                    f"row {line_no}: non-numeric value in {record!r}"
                ) from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvFormatError(
                    f"row {line_no} has {len(values)} fields, expected {width}"
                )
            rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no numeric rows found")
    return np.array(rows, dtype=np.float64)
