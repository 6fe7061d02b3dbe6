"""Covariance-shift statistics over all candidate splits.

The per-split statistic compares the second-moment structure of the two
segments through the kernel ((x_i - x_j) . (x_k - x_l))^2 / 4 averaged
over distinct index tuples: once within the pre-split segment, once within
the post-split segment, and once across.  Its expectation is the squared
Frobenius distance between the two segment covariance matrices.

Evaluated literally the kernel sums are quartic in n.  Expanding them into
sums of Gram entries g_ij and their squares turns every piece into one of
thirteen running index-tuple sums, which two paths compute:

- the Gram path (:func:`_sweep_terms`, n < 4p) sweeps the n x n Gram
  matrix in blocks of b columns: O(n^2) on top of the O(n^2 p) Gram build,
  holding g plus O(n b) memory;
- the feature path (:func:`_feature_terms`, n >= 4p) writes every sum as
  a polynomial in prefix moments s_t = sum x_i, A_t = sum x_i x_i',
  q_i = |x_i|^2 and u_t = sum q_i x_i, e.g. the sum of g_ij^2 over the
  prefix is |A_t|_F^2 - sum q_i^2.  O(n p^2) time and O(np + p^2) memory.

Both paths compute the sums of the centered rows: the statistic is
translation invariant, the sums are not, and on raw data far from the
origin they cancel away the digits of the curve.  A Gram matrix the
caller passes in is used as given.  Three of the sums, pre1, suf1 and
cross1, are also the pair sums of the mean-shift curve, which the
pipeline reads off this sweep.

The sums are exposed for testing because the cancellation-heavy
four-index identities deserve direct verification against brute force.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import StatCurve, as_matrix
from .errors import SampleTooSmallError

#: The feature path runs when n >= _FEATURE_ROWS_PER_COLUMN * p.  Curve
#: time (median of 9) and traced peak of each path on a 2-core Xeon:
#:
#:     p    n      Gram ms  feature ms   Gram MB  feature MB
#:     50   2p       0.3       0.8        0.31      0.45
#:     50   3p       0.8       1.7        0.62      0.54
#:     50   4p       1.1       2.1        1.04      0.60
#:     50   6p       2.8       3.3        1.77      0.73
#:     50   8p       3.4       3.2        2.65      0.86
#:     100  2p       1.3       3.9        1.04      1.12
#:     100  3p       1.8       4.8        1.77      1.38
#:     100  4p       4.3       7.2        2.65      1.62
#:     100  6p       8.8      10.8        5.29      2.12
#:     100  8p      15.6      12.8        8.17      2.62
#:     200  2p       2.9      12.1        2.65      3.43
#:     200  3p       5.9      20.1        5.29      4.41
#:     200  4p      22.4      32.8        8.17      5.42
#:     200  6p      28.3      44.3       16.27      7.51
#:     200  8p      55.2      59.0       26.97      9.31
#:
#: The Gram path is faster up to about 6p and the feature path lighter
#: from 3p on, so no other switch point wins on both.
_FEATURE_ROWS_PER_COLUMN = 4
#: Columns per block of the Gram sweep, rows per block of the Gram centering.
_BLOCK = 128
#: Rows per block of the feature-space sweep.  Its per-block temporaries
#: grow with the square of the block: at n = 2000, p = 50 the kernel's
#: traced peak is 2.14 MB with 64 rows and 2.83 MB with 128, at equal time.
_FEATURE_BLOCK = 64


@dataclass(frozen=True)
class CovStatResult:
    """Per-split covariance-shift curve (splits 4 .. n-4) and its aggregate."""

    per_tau: StatCurve
    aggregate: float


class _SweepTerms(NamedTuple):
    """Raw index-tuple sums for prefixes of size t+1, t = 0 .. n-1.

    pre1/pre2: sums of g_ij / g_ij^2 over distinct i, j in the prefix;
    suf1/suf2: the same over the suffix; pre3/suf3: sums of g_ij * g_jk
    over three distinct indices; pre4/suf4: sums of g_ij * g_kl over four
    distinct indices; cross1/cross2: plain sums of g_ij / g_ij^2 with i in
    the prefix and j in the suffix; cross3_mid_suf: three-index sums whose
    shared index j sits in the suffix (i, k distinct in the prefix);
    cross3_mid_pre: the mirror image; cross4: i != k in the prefix, j != l
    in the suffix.
    """

    pre1: np.ndarray
    pre2: np.ndarray
    pre3: np.ndarray
    pre4: np.ndarray
    suf1: np.ndarray
    suf2: np.ndarray
    suf3: np.ndarray
    suf4: np.ndarray
    cross1: np.ndarray
    cross2: np.ndarray
    cross3_mid_suf: np.ndarray
    cross3_mid_pre: np.ndarray
    cross4: np.ndarray


def _tail_sums(v: np.ndarray) -> np.ndarray:
    """Sums of v[..., t+1:] for every t, accumulated from the end."""
    out = np.zeros_like(v)
    out[..., :-1] = np.cumsum(v[..., :0:-1], axis=-1)[..., ::-1]
    return out


@functools.lru_cache(maxsize=8)
def _block_masks(width: int, dtype: np.dtype) -> np.ndarray:
    """0/1 masks [j <= t, j > t] over a width x width diagonal block."""
    low = np.tri(width, dtype=dtype)
    masks = np.stack((low, 1.0 - low))
    masks.setflags(write=False)
    return masks


@functools.lru_cache(maxsize=8)
def _feature_masks(width: int, dtype: np.dtype) -> np.ndarray:
    """0/1 masks [i < t, i <= t, i <= t] at [t, i] over a width x width block."""
    low = np.tri(width, dtype=dtype)
    masks = np.stack((np.tri(width, k=-1, dtype=dtype), low, low))
    masks.setflags(write=False)
    return masks


def _sweep_terms(g: np.ndarray) -> _SweepTerms:
    """The thirteen sums from the Gram matrix, swept in blocks of columns.

    The two-index sums follow from the column sums of g and g^2 above and
    below the diagonal, each side accumulated from its own end, so that a
    short prefix or suffix never comes out as a difference of long ones.
    With C[t, j] the sum of g[i, j] over i <= t, i != j and S[t, j] the sum
    over i > t, i != j, the three-index sums need per row t the sums of C^2
    and S^2 over j <= t and over j > t.  C and S are built for one block of
    about _BLOCK columns at a time, with one cumsum: O(n^2) time and O(n b)
    memory beside g.
    """
    n = g.shape[0]
    # edge[side, power, t]: sums of g[i, t]^power over i < t (side 0) and
    # over i > t (side 1).  rows[side, half, t]: sums of C[t, j]^2 (side 0)
    # and S[t, j]^2 (side 1) over j <= t (half 0) and over j > t (half 1).
    edge = np.empty((2, 2, n), dtype=g.dtype)
    rows = np.zeros((2, 2, n), dtype=g.dtype)
    # Equal widths of at most _BLOCK columns, so that no block is a thin tail.
    n_blocks = -(-n // _BLOCK)
    bounds = [n * k // n_blocks for k in range(n_blocks + 1)]
    width = -(-n // n_blocks)
    masks = _block_masks(width, g.dtype)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # Columns j = lo .. hi-1.  Rows above the block have only j > t, rows
        # below it only j <= t; the square diagonal block takes the masks.
        b = hi - lo
        gj = g[:, lo:hi]
        top = gj[:lo]
        # In the diagonal block, masks[1] also marks the rows i < j.
        edge[0, 1, lo:hi] = (np.einsum("ij,ij->j", top, top)
                             + np.einsum("ij,ij,ij->j", gj[lo:hi], gj[lo:hi], masks[1, :b, :b]))
        cs = np.empty((2, n, b), dtype=g.dtype)      # C, S
        c = cs[0]
        c[...] = gj
        np.fill_diagonal(c[lo:hi], 0.0)
        np.cumsum(c, axis=0, out=c)
        np.subtract(c[-1], c, out=cs[1])
        edge[:, 0, lo:hi] = np.diagonal(cs[:, lo:hi], axis1=1, axis2=2)
        rows[:, 1, :lo] += np.einsum("kij,kij->ki", cs[:, :lo], cs[:, :lo])
        rows[:, 0, hi:] += np.einsum("kij,kij->ki", cs[:, hi:], cs[:, hi:])
        block = np.square(cs[:, lo:hi], out=cs[:, lo:hi])
        rows[:, :, lo:hi] += np.einsum("sij,kij->ski", block, masks[:, :b, :b])

    # Below the diagonal by difference, column by column.
    edge[1, 1] = np.einsum("ij,ij->j", g, g) - edge[0, 1] - np.diagonal(g) ** 2
    head = np.cumsum(edge, axis=2)      # over the columns 0 .. t
    tail = _tail_sums(edge)             # over the columns t+1 .. n-1
    pre1, pre2 = 2.0 * head[0]
    suf1, suf2 = 2.0 * tail[1]
    # Each row's partners after it, minus its partners before it, summed over
    # the prefix; or the mirror image over the suffix, whichever is shorter.
    cross1, cross2 = np.where(np.arange(n) < n // 2, head[1] - head[0], tail[0] - tail[1])
    # Three distinct indices sharing the middle one j: the partners i, k of
    # each j contribute C^2 or S^2 minus the i == k terms, which sum to
    # pre2 or cross2 (partners in the prefix) and cross2 or suf2 (suffix).
    (c_low, c_up), (s_low, s_up) = rows
    return _complete(
        pre1, pre2, c_low - pre2, suf1, suf2, s_up - suf2,
        cross1, cross2, c_up - cross2, s_low - cross2,
    )


def _complete(pre1, pre2, pre3, suf1, suf2, suf3,
              cross1, cross2, cross3_mid_suf, cross3_mid_pre) -> _SweepTerms:
    """Add the four-index sums, which follow from the two- and three-index ones."""
    # Subtract every coincidence pattern from the square of the two-index sum.
    pre4 = pre1**2 - 2.0 * pre2 - 4.0 * pre3
    suf4 = suf1**2 - 2.0 * suf2 - 4.0 * suf3
    cross4 = cross1**2 - cross3_mid_suf - cross3_mid_pre - cross2
    return _SweepTerms(
        pre1, pre2, pre3, pre4, suf1, suf2, suf3, suf4,
        cross1, cross2, cross3_mid_suf, cross3_mid_pre, cross4,
    )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


class _PrefixMoments(NamedTuple):
    """Index-tuple sums over the prefixes of one row order; row t covers rows 0 .. t.

    With A_t = sum x_i x_i' and s_t = sum x_i over the prefix: pair1/pair2
    are the sums of g_ij / g_ij^2 over distinct i, j in the prefix, path3 the
    sum of g_ij * g_jk over three distinct indices, cross2 the sum of g_ij^2
    with i in the prefix and j outside it, and rest_quad = r_t' A_t r_t with
    r_t = s_n - s_t the sum of the rows outside the prefix.  tot_quad holds
    x_t' A_n x_t, which depends on the row alone.
    """

    s: np.ndarray
    pair1: np.ndarray
    pair2: np.ndarray
    path3: np.ndarray
    cross2: np.ndarray
    rest_quad: np.ndarray
    tot_quad: np.ndarray


def _prefix_moments(x: np.ndarray, a_tot: np.ndarray,
                    tot_quad: np.ndarray | None = None) -> _PrefixMoments:
    """The sums of :class:`_PrefixMoments`; ``tot_quad`` is computed unless given."""
    n, p = x.shape
    if tot_quad is None:
        # Before s exists: the n x p product is then no larger than the
        # backward pass, which holds both passes' s.
        tot_quad = _row_dots(x @ a_tot, x)
    s = np.cumsum(x, axis=0)
    q = _row_dots(x, x)
    frob = np.empty(n)          # ||A_t||_F^2
    quads = np.empty((2, n))    # s_t' A_t s_t, r_t' A_t r_t
    u_s = np.empty(n)           # u_t' s_t with u_t = sum of q_i x_i
    a = np.zeros((p, p))        # A_t and u_t at the start of the block
    u = np.zeros(p)
    frob_start = 0.0
    masks = _feature_masks(min(_FEATURE_BLOCK, n), x.dtype)
    w = np.empty((3, min(_FEATURE_BLOCK, n), p))
    for lo in range(0, n, _FEATURE_BLOCK):
        rows = slice(lo, min(lo + _FEATURE_BLOCK, n))
        xb, sb, qb = x[rows], s[rows], q[rows]
        b = xb.shape[0]
        # Rows t of the block as x_t, s_t and r_t = s_n - s_t: v' a v for
        # each, plus the squared products with the block's rows j < t (for
        # x_t) or j <= t (for s_t and r_t).
        v = w[:, :b]
        v[0], v[1] = xb, sb
        np.subtract(s[-1], sb, out=v[2])
        flat = v.reshape(3 * b, p)
        vx = (flat @ xb.T).reshape(3, b, b)
        quad = (np.einsum("ki,ki->k", flat @ a, flat).reshape(3, b)
                + np.einsum("kti,kti,kti->kt", vx, vx, masks[:, :b, :b]))
        # ||A_t||^2 - ||A_{t-1}||^2 = 2 x_t' A_{t-1} x_t + q_t^2, where
        # A_{t-1} is a plus the block's rows before t: nonnegative steps.
        frob[rows] = frob_start + np.cumsum(2.0 * quad[0] + qb * qb)
        frob_start = frob[rows][-1]
        quads[:, rows] = quad[1:]
        ub = u + np.cumsum(qb[:, None] * xb, axis=0)
        u_s[rows] = _row_dots(ub, sb)
        u = ub[-1]
        a += xb.T @ xb
    s_quad, rest_quad = quads
    q2 = np.cumsum(q * q)
    pair1 = _row_dots(s, s) - np.cumsum(q)
    pair2 = frob - q2
    path3 = s_quad - 2.0 * u_s - frob + 2.0 * q2
    cross2 = np.cumsum(tot_quad) - frob
    return _PrefixMoments(s, pair1, pair2, path3, cross2, rest_quad, tot_quad)


def _feature_terms(x: np.ndarray) -> _SweepTerms:
    """The sums of :func:`_sweep_terms` from p x p moments, without the Gram matrix.

    O(n p^2 + n b p) time and O(n p + p^2 + b^2) memory for row blocks of
    b = _FEATURE_BLOCK.  The suffix sums come from the same prefix pass over
    the reversed rows rather than as total minus prefix, which would cancel.
    Accurate for centered x; the sums themselves are not translation invariant.
    """
    n = x.shape[0]
    a_tot = x.T @ x
    fwd = _prefix_moments(x, a_tot)
    bwd = _prefix_moments(x[::-1], a_tot, fwd.tot_quad[::-1])

    def after(v: np.ndarray) -> np.ndarray:
        # Row t of the result belongs to rows t+1 .. n-1: row n-2-t of bwd.
        out = np.zeros(n)
        out[:-1] = v[-2::-1]
        return out

    # cross2 is a difference of two sums that both grow with the prefix, so
    # each pass supplies it where its own prefix is the shorter side.
    cross2 = np.where(np.arange(n) < n // 2, fwd.cross2, after(bwd.cross2))
    cross1 = np.zeros(n)
    cross1[:-1] = _row_dots(fwd.s[:-1], bwd.s[-2::-1])
    return _complete(
        fwd.pair1, fwd.pair2, fwd.path3,
        after(bwd.pair1), after(bwd.pair2), after(bwd.path3),
        cross1, cross2, after(bwd.rest_quad) - cross2, fwd.rest_quad - cross2,
    )


def _curve(terms: _SweepTerms, n: int) -> CovStatResult:
    """Per-split values and aggregate from the index-tuple sums."""
    taus = np.arange(4, n - 3)
    k = taus - 1                           # prefix of tau rows ends at row tau-1
    m1 = taus.astype(np.float64)
    m2 = n - m1
    perm2_pre = m1 * (m1 - 1.0)
    perm3_pre = perm2_pre * (m1 - 2.0)
    perm4_pre = perm3_pre * (m1 - 3.0)
    perm2_suf = m2 * (m2 - 1.0)
    perm3_suf = perm2_suf * (m2 - 2.0)
    perm4_suf = perm3_suf * (m2 - 3.0)

    within_pre = (
        terms.pre2[k] / perm2_pre
        - 2.0 * terms.pre3[k] / perm3_pre
        + terms.pre4[k] / perm4_pre
    )
    within_suf = (
        terms.suf2[k] / perm2_suf
        - 2.0 * terms.suf3[k] / perm3_suf
        + terms.suf4[k] / perm4_suf
    )
    across = (
        terms.cross2[k] / (m1 * m2)
        - terms.cross3_mid_suf[k] / (perm2_pre * m2)
        - terms.cross3_mid_pre[k] / (m1 * perm2_suf)
        + terms.cross4[k] / (perm2_pre * perm2_suf)
    )
    per_tau = within_pre + within_suf - 2.0 * across

    aggregate = float(np.dot(m1 * m2 / n, per_tau))
    return CovStatResult(StatCurve(4, n - 4, per_tau), aggregate)


def _centered_gram(x: np.ndarray) -> np.ndarray:
    """The Gram matrix of the column-centered rows, exactly symmetric like ``gram``.

    With m the column means and a = x m, the raw Gram matrix g is centered
    in place: (x_i - m) . (x_j - m) = g_ij - a_i - a_j + |m|^2.  That form
    rounds like g, whose entries grow by 1 + |m|^2 / s^2 against the
    centered ones for s^2 the mean squared norm of the centered rows, so
    it is taken while |m| <= s: at most one bit lost, and no copy of the
    data.  Data farther from the origin are centered in one n x p copy.
    """
    n = x.shape[0]
    m = x.mean(axis=0)
    mm = float(m @ m)
    # The mean squared row norm is s^2 + |m|^2.
    if n * mm > 0.5 * float(np.einsum("ij,ij->", x, x)):
        xc = x - m
        return xc @ xc.T
    # Contiguous and aligned, so that x @ x.T is a symmetric syrk (see gram).
    x = np.require(x, requirements=("C", "A"))
    g = x @ x.T
    a = x @ m
    for lo in range(0, n, _BLOCK):
        # a_i + a_j == a_j + a_i bitwise, so g stays exactly symmetric.
        g[lo : lo + _BLOCK] -= (a[lo : lo + _BLOCK, None] + a) - mm
    return g


def _terms(x: np.ndarray, g: np.ndarray | None = None) -> _SweepTerms:
    """The thirteen sums on the path the shape picks, from centered data unless g is given."""
    n, p = x.shape
    if n >= _FEATURE_ROWS_PER_COLUMN * p:
        return _feature_terms(x - x.mean(axis=0))
    return _sweep_terms(_centered_gram(x) if g is None else g)


def cov_stat_curve(data, g: np.ndarray | None = None) -> CovStatResult:
    """Covariance-shift statistic at every split, plus the weighted aggregate.

    The aggregate sums tau * (n - tau) / n times the per-split value over
    the full range tau = 4 .. n-4.

    Parameters
    ----------
    data : Dataset or (n, p) array-like
        Time-ordered observations, n >= 8.
    g : ndarray, optional
        Precomputed ``gram(data)``, used only on the Gram path (n < 4p).
        It is taken as given, on the raw data, so it yields the uncentered
        statistic: equal in exact arithmetic, but it loses digits to
        cancellation for data far from the origin.  Without it the Gram
        matrix is built from the centered columns.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if n < 8:
        raise SampleTooSmallError(f"covariance-shift curve needs n >= 8, got {n}")
    return _curve(_terms(x, g), n)
