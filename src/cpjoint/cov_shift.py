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
  prefix is |A_t|_F^2 - sum q_i^2.  O(n p^2) time.  It reads the data
  one block of rows at a time, so beside them it holds the thirteen
  O(n) sums and O(b p + b^2 + p^2) per block: a traced peak of 0.57 MB
  at n = 2000, p = 50, whose data take 0.8 MB.

Each split has a shorter and a longer side.  Both paths sum the shorter
side directly: as the totals minus the longer side it would be a small
difference of large sums and lose its digits (Chan, Golub & LeVeque,
1983).  The feature path, which sweeps each row once, takes the longer
side as the totals minus the shorter one.  That stays accurate: the
longer side holds at least half of the rows, so on rows of like size its
sums are a fixed share of the totals; where the shorter side holds far
larger rows, the longer side keeps the totals' absolute accuracy, and
the totals are then the scale of the curve at that split.

Both paths compute the sums of the centered rows: the statistic is
translation invariant, the sums are not, and on raw data far from the
origin they cancel away the digits of the curve.  The feature path
centers each block as it reads it.  A Gram matrix the caller passes in
is used as given.  Three of the sums, pre1, suf1 and cross1, are also
the pair sums of the mean-shift curve, which the pipeline reads off
this sweep.

The sums are exposed for testing because the cancellation-heavy
four-index identities deserve direct verification against brute force.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import StatCurve, as_matrix
from .errors import NotAMatrixError, SampleTooSmallError

#: The feature path runs when n >= _FEATURE_ROWS_PER_COLUMN * p.  Curve
#: time (least of ten medians of 9) and traced peak of each path on a
#: 2-core Xeon:
#:
#:     p    n      Gram ms  feature ms   Gram MB  feature MB
#:     50   2p       0.4       0.8        0.31      0.20
#:     50   3p       0.7       1.2        0.62      0.27
#:     50   4p       1.6       1.3        1.04      0.28
#:     50   5p       2.0       1.5        1.58      0.29
#:     50   6p       1.9       1.9        1.77      0.29
#:     50   8p       5.0       2.5        2.65      0.31
#:     100  2p       1.0       2.6        1.04      0.59
#:     100  3p       2.0       3.6        1.77      0.60
#:     100  4p       5.0       4.9        2.65      0.62
#:     100  5p       8.0       5.6        4.10      0.64
#:     100  6p       8.5       7.9        5.29      0.65
#:     100  8p      16.0       9.6        8.17      0.68
#:     200  2p       4.5      11.6        2.65      1.65
#:     200  3p       7.3      16.2        5.29      1.68
#:     200  4p      16.3      21.6        8.17      1.72
#:     200  5p      23.8      27.1       12.13      1.75
#:     200  6p      36.6      33.0       16.27      1.78
#:     200  8p      65.5      41.5       26.97      1.84
#:
#: The Gram path is faster up to 3p and the two are about even at 4p; the
#: feature path is faster from 5p to 6p on and lighter from 2p on, so the
#: switch stays at 4p.
_FEATURE_ROWS_PER_COLUMN = 4
#: Columns per block of the Gram sweep, rows per block of the Gram centering.
_BLOCK = 128
#: Rows per block of the feature-space sweep.  Its per-block temporaries
#: grow with the square of the block: at n = 2000, p = 50 the kernel's
#: traced peak is 0.50 MB with 32 rows, 0.57 MB with 64 and 0.96 MB with
#: 128, and 32 to 128 rows take 10-12 ms, within the noise of each other.
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

    def mirrored(self) -> _SweepTerms:
        """The same sums for the reversed row order: prefix and suffix trade places."""
        return _SweepTerms(*self[4:8], *self[:4], self.cross1, self.cross2,
                           self.cross3_mid_pre, self.cross3_mid_suf, self.cross4)


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


class _Totals(NamedTuple):
    """Moments of all n rows x_i - center: s_n = sum x_i, A_n = sum x_i x_i', u_n = sum q_i x_i."""

    center: np.ndarray | float
    s: np.ndarray
    au: np.ndarray      # [A_n | u_n], p x (p + 1)
    q1: float           # sum of q_i = |x_i|^2
    q2: float           # sum of q_i^2
    frob: float         # ||A_n||_F^2


def _totals(x: np.ndarray, center: np.ndarray | float) -> _Totals:
    """The totals of the rows x_i - center, formed one block of rows at a time."""
    n, p = x.shape
    # z = [x_i - center | q_i | 1] per row: z'z holds A_n, u_n, s_n, sum q^2
    # and sum q.  A block of z holds about as many entries as one b x b
    # product of the sweep, and at least b rows.
    rows = max(_FEATURE_BLOCK, _FEATURE_BLOCK**2 // (p + 2))
    z = np.empty((min(rows, n), p + 2))
    z[:, p + 1] = 1.0
    zz = np.zeros((p + 2, p + 2))
    for lo in range(0, n, rows):
        zb = z[: min(rows, n - lo)]
        xb = np.subtract(x[lo : lo + len(zb)], center, out=zb[:, :p])
        np.einsum("ij,ij->i", xb, xb, out=zb[:, p])
        zz += zb.T @ zb
    a = zz[:p, :p]
    return _Totals(center, zz[:p, p + 1].copy(), zz[:p, : p + 1].copy(), zz[p, p + 1],
                   zz[p, p], np.einsum("ij,ij->", a, a))


def _row_sums(x: np.ndarray, tot: _Totals) -> np.ndarray:
    """The row-wise sums :func:`_side_sums` reads, at entries k = 1 .. m.

    Row t = k - 1 of x, less ``tot.center``, gives entry k of: q_t, s.s,
    r.r, s.r; v' A_n v for v = x_t, s_t, r_t; r . u_n; v' A_t v (A_{t-1}
    for x_t); u_t . s_t and u_t . r_t.  Entry 0, the empty prefix, is 0.
    Each block of b = _FEATURE_BLOCK rows forms its x_t, s_t and r_t,
    reads the sums off them and drops them: O(b p + b^2 + p^2) working
    memory beside the result, freed before :func:`_side_sums` makes its
    O(m) temporaries.
    """
    m, p = x.shape
    width = min(_FEATURE_BLOCK, m)
    masks = _feature_masks(width, x.dtype)
    buf = np.empty((3 * width, p))          # x_t, s_t and r_t of a block
    work = np.empty(3 * width * max(p + 1, width))
    a = np.zeros((p, p))                    # A_t and u_t at the start of the block
    u = np.zeros(p)
    s_end = np.zeros(p)                     # s_t at the end of the last block
    acc = np.zeros((13, m + 1))
    for lo in range(0, m, _FEATURE_BLOCK):
        hi = min(lo + _FEATURE_BLOCK, m)
        b = hi - lo
        out = slice(lo + 1, hi + 1)         # the prefixes that end in the block
        flat = buf[: 3 * b]
        v = flat.reshape(3, b, p)
        xb, sb, rb = v
        # Copied, then centered: subtracting a reversed block straight into
        # xb would buffer both operands.
        xb[...] = x[lo:hi]
        xb -= tot.center
        # Run on from the last block: the adds of one cumsum over all rows.
        sb[...] = xb
        sb[0] += s_end
        np.cumsum(sb, axis=0, out=sb)
        np.subtract(tot.s, sb, out=rb)
        np.einsum("kti,kti->kt", v, v, out=acc[:3, out])
        np.einsum("ti,ti->t", sb, rb, out=acc[3, out])
        prod = np.matmul(flat, tot.au, out=work[: 3 * b * (p + 1)].reshape(3 * b, p + 1))
        acc[4:7, out] = np.einsum("ki,ki->k", prod[:, :p], flat).reshape(3, b)
        acc[7, out] = prod[2 * b :, p]
        # v' A_t v and v . u_t with A_t and u_t at the start of the block; the
        # block's rows j < t (for x_t) or j <= t (for s_t and r_t) add
        # (v . x_j)^2 and q_j v . x_j.
        prod = np.matmul(flat, a, out=work[: 3 * b * p].reshape(3 * b, p))
        acc[8:11, out] = np.einsum("ki,ki->k", prod, flat).reshape(3, b)
        acc[11:, out] = (flat[b:] @ u).reshape(2, b)
        vx = np.matmul(flat, xb.T, out=work[: 3 * b * b].reshape(3 * b, b)).reshape(3, b, b)
        qb = acc[0, out]
        acc[11:, out] += np.einsum("kti,ti,i->kt", vx[1:], masks[1, :b, :b], qb)
        acc[8:11, out] += np.einsum("kti,kti,kti->kt", vx, vx, masks[:, :b, :b])
        a += xb.T @ xb
        u += qb @ xb
        s_end[...] = sb[-1]
    return acc


def _side_sums(x: np.ndarray, tot: _Totals) -> _SweepTerms:
    """The thirteen sums for the splits after each of the first k rows of x, k = 0 .. m.

    Entry k puts rows 0 .. t = k-1 of x in the prefix and every other row
    of the data in the suffix; the rows are taken less ``tot.center``.  The
    prefix sums are polynomials in its moments s_t, A_t, u_t and
    ||A_t||_F^2, e.g. pre2 = ||A_t||_F^2 - sum q_i^2; the suffix sums are
    the totals minus the prefix's, with r_t = s_n - s_t for the suffix's
    row sum.
    """
    q, ss, rr, sr, x_tot, s_tot, r_tot, r_u, x_quad, s_quad, rest_quad, u_s, u_r = _row_sums(x, tot)
    qq = q * q
    q1, q2 = np.cumsum(q), np.cumsum(qq)
    # ||A_t||^2 - ||A_{t-1}||^2 = 2 x_t' A_{t-1} x_t + q_t^2: nonnegative steps.
    frob = np.cumsum(2.0 * x_quad + qq)
    cross2 = np.cumsum(x_tot) - frob
    # The suffix's ||B_t||_F^2: all pairs, minus the prefix's and the crossing ones.
    suf_frob = tot.frob - frob - 2.0 * cross2
    suf_q2 = tot.q2 - q2
    return _complete(
        pre1=ss - q1,
        pre2=frob - q2,
        pre3=s_quad - 2.0 * u_s - frob + 2.0 * q2,
        suf1=rr - (tot.q1 - q1),
        suf2=suf_frob - suf_q2,
        suf3=(r_tot - rest_quad) - 2.0 * (r_u - u_r) - suf_frob + 2.0 * suf_q2,
        cross1=sr,
        cross2=cross2,
        cross3_mid_suf=s_tot - s_quad - cross2,
        cross3_mid_pre=rest_quad - cross2,
    )


def _feature_terms(x: np.ndarray, center: np.ndarray | float = 0.0) -> _SweepTerms:
    """The sums of :func:`_sweep_terms` from p x p moments, without the Gram matrix.

    The sums are those of the rows x_i - center; ``_terms`` passes the
    column means.  O(n p^2 + n b p) time for row blocks of b =
    _FEATURE_BLOCK.  Each row is swept once: a forward pass over rows
    0 .. h-1, h = n // 2, serves the splits t < h, whose prefix is the
    shorter side, and a pass over the reversed rows n-1 .. h+1 the splits
    t >= h, whose suffix is.  Each pass sums the shorter side directly and
    takes the longer one as totals minus the shorter (see the module
    docstring).  Accurate for centered rows; the sums themselves are not
    translation invariant.

    A first pass forms the totals, then each sweep reads the rows one
    block at a time, so no n x p array is formed.  Beside x it holds the
    thirteen O(n) sums, a pass's thirteen O(n / 2) row-wise sums and
    O(b p + b^2 + p^2) per block.  Traced peaks: 0.57 MB at n = 2000,
    p = 50 (x takes 0.8 MB) and 23 MB at n = 10^5, p = 20 (x takes 16 MB).
    """
    n = x.shape[0]
    h = n // 2
    tot = _totals(x, center)
    terms = np.empty((len(_SweepTerms._fields), n))
    for row, f in zip(terms, _side_sums(x[:h], tot)):              # split t at entry t + 1
        row[:h] = f[1:]
    for row, b in zip(terms, _side_sums(x[:h:-1], tot).mirrored()):  # at entry n - 1 - t
        row[h:] = b[::-1]
    return _SweepTerms(*terms)


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
        return _feature_terms(x, x.mean(axis=0))
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
    if g is not None and np.shape(g) != (n, n):
        raise NotAMatrixError(
            f"g must be the {n} x {n} Gram matrix of the data, got shape {np.shape(g)}"
        )
    return _curve(_terms(x, g), n)
