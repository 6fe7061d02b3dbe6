"""Covariance-shift statistics over all candidate splits.

The per-split statistic compares the second-moment structure of the two
segments through the kernel ((x_i - x_j) . (x_k - x_l))^2 / 4 averaged
over distinct index tuples: once within the pre-split segment, once within
the post-split segment, and once across.  Its expectation is the squared
Frobenius distance between the two segment covariance matrices.

Evaluated literally the kernel sums are quartic in n.  Expanding them into
sums of Gram entries g_ij and their squares turns every piece into fixed
algebra over ten running sums: the six sums of g_ij and g_ij^2 within the
prefix, within the suffix and across the split, and four sums of squared
partial column sums (:class:`_SweepTerms`).  Two paths compute the ten;
:func:`_split_values` forms the three- and four-index sums from them where
it divides them:

- the Gram path (:func:`_sweep`, n < 4p) sweeps the n x n Gram matrix
  in blocks of b columns: O(n^2) on top of the O(n^2 p) Gram build.
  :func:`_centered_panels` forms the matrix one panel of whole blocks,
  at most max(p, b) columns, at a time, and the sweep turns each block
  in place into its column prefix sums and then its suffix sums.  So it
  holds one panel of at most n max(p, b) entries and O(n), and the whole
  matrix only where one panel covers it: a traced peak of 0.37 MB for
  ``detect`` at n = 200, p = 100, whose data take 0.16 MB and g would
  take 0.32 MB.  Where p < n the panels cost up to twice the flops of
  one symmetric product;
- the feature path (:func:`_feature_passes`, n >= 4p) writes every sum as
  a polynomial in prefix moments s_t = sum x_i, A_t = sum x_i x_i',
  q_i = |x_i|^2 and u_t = sum q_i x_i and in the totals, e.g. the sum of
  g_ij^2 over the prefix is |A_t|_F^2 - sum q_i^2.  The suffix's row sum
  r_t = s_n - s_t enters only expanded in s_t and s_n, e.g. r' A r =
  s' A s - 2 s . A s_n + s_n' A s_n, so that each block of b rows stacks
  just its rows x_t and their running sums s_t.  O(n p^2) time.  It
  reads the data one block of rows at a time in two passes, and each
  pass yields its sums one chunk of 256 rows (or about 1/16 of the pass)
  at a time, the running sums carried from chunk to chunk; :func:`_curves`
  writes both curves on a chunk's splits as soon as the chunk ends.  So
  beside the data it holds the two curves, one chunk's sums and
  O(b p + b^2 + p^2) per block: a traced peak of 0.28 MB at n = 2000,
  p = 50, whose data take 0.8 MB, and 2.3 MB at n = 10^5, p = 20 (16 MB
  of data).

Each split has a shorter and a longer side.  Both paths sum the shorter
side directly: as the totals minus the longer side it would be a small
difference of large sums and lose its digits (Chan, Golub & LeVeque,
1983).  The Gram path sums both sides of every split directly, down to
each column's entries above and below the diagonal.  The feature path,
which sweeps each row once, takes the longer side as the totals minus
the shorter one.  That stays accurate: the longer side holds at least
half of the rows, so on rows of like size its sums are a fixed share of
the totals; where the shorter side holds far larger rows, the longer
side keeps the totals' absolute accuracy, and the totals are then the
scale of the curve at that split.

Both paths compute the sums of the centered rows: the statistic is
translation invariant, the sums are not, and on raw data far from the
origin they cancel away the digits of the curve.  The feature path
centers each block as it reads it, the Gram path each panel.

Three of the sums, pre1, suf1 and cross1, are also the pair sums of the
mean-shift curve, which :func:`_curves` forms from them beside the
covariance curve (:func:`_mean_values`).  It is the package's one
mean-curve path: ``detect`` and :func:`cpjoint.mean_stat_curve` both read
the mean curve off this sweep, so the two give the same bits.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import StatCurve, as_matrix
from .errors import NotAMatrixError, SampleTooSmallError

#: The feature path runs when n >= _FEATURE_ROWS_PER_COLUMN * p: the two
#: paths' time and traced peak cross near 5p (table in README.md).
_FEATURE_ROWS_PER_COLUMN = 4
#: Columns per block of the Gram sweep.
_BLOCK = 128
#: Rows per chunk of the Gram centering, whose shifts so take O(n) memory.
_CENTER_ROWS = 16
#: Elements per operand of numpy's ufunc iteration buffers in the kernels.
#: With numpy's default of 8192, numpy 2.4 allocates up to 64 KB per
#: operand of a strided or broadcast ufunc: 196 KB for S = C[-1] - C on a
#: 1000 x 125 panel of g, 1 KB with 256, where it also ran in 126 us
#: instead of 253 (2-core Xeon).
_BUFFER_SIZE = 256
#: Rows per block of the feature-space sweep.  Its per-block temporaries
#: grow with the square of the block: at n = 2000, p = 50 the curves'
#: traced peak is 0.21 MB with 32 rows, 0.28 MB with 64 and 0.55 MB with
#: 128, and they take 8.6 ms with 32 rows, 7.2 with 48, 6.4 with 64, 6.7
#: with 96 and 6.2 with 128 (2-core Xeon): 64 comes within 4% of the
#: fastest at half its peak.
_FEATURE_BLOCK = 64
#: Rows per chunk of a feature pass, at least.  A chunk's sums take 16 rows
#: of its length, 33 KB with 256 rows, and each chunk costs about 85 numpy
#: calls, about 0.1 ms on a 2-core Xeon.
_CHUNK_ROWS = 256
#: Longer passes are cut into about this many chunks.
_CHUNKS_PER_PASS = 16


@dataclass(frozen=True)
class CovStatResult:
    """Per-split covariance-shift curve (splits 4 .. n-4) and its aggregate."""

    per_tau: StatCurve
    aggregate: float


class _SweepTerms(NamedTuple):
    """Raw index-tuple sums for prefixes of size t+1, t = 0 .. n-1.

    pre1/pre2: sums of g_ij / g_ij^2 over distinct i, j in the prefix;
    suf1/suf2: the same over the suffix; cross1/cross2: plain sums of
    g_ij / g_ij^2 with i in the prefix and j in the suffix.  With C_j the
    sum of g_ij over i != j in the prefix and S_j the same over the
    suffix: pre_cc and cross_cc sum C_j^2 over j in the prefix and over j
    in the suffix, cross_ss and suf_ss sum S_j^2 likewise.  The kernels
    keep the sums as rows of one array, and a _SweepTerms of row numbers
    names them there.
    """

    pre1: np.ndarray
    pre2: np.ndarray
    suf1: np.ndarray
    suf2: np.ndarray
    cross1: np.ndarray
    cross2: np.ndarray
    pre_cc: np.ndarray
    cross_cc: np.ndarray
    cross_ss: np.ndarray
    suf_ss: np.ndarray

    def mirrored(self) -> _SweepTerms:
        """The same sums for the reversed row order: prefix and suffix trade places."""
        return _SweepTerms(*self[2:4], *self[:2], *self[4:6], *self[:5:-1])


#: The sums' rows in an array that holds them in the order of _SweepTerms.
_FIELDS = _SweepTerms(*range(len(_SweepTerms._fields)))


@contextlib.contextmanager
def _small_buffers():
    """Run with ufunc iteration buffers of _BUFFER_SIZE elements, then restore the caller's size.

    Inside run elementwise ufuncs, running sums, einsum and matrix
    products, whose results do not depend on the buffer size; ufunc
    reductions, whose pairwise blocks might, stay outside.
    """
    old = np.setbufsize(_BUFFER_SIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _tail_sums(v: np.ndarray) -> np.ndarray:
    """Sums of v[..., t+1:] for every t, accumulated from the end."""
    out = np.zeros_like(v)
    out[..., :-1] = np.cumsum(v[..., :0:-1], axis=-1)[..., ::-1]
    return out


@functools.lru_cache(maxsize=8)
def _block_masks(width: int) -> np.ndarray:
    """0/1 masks [j <= t, j > t, j < t] over a width x width diagonal block."""
    low = np.tri(width)
    masks = np.stack((low, 1.0 - low, np.tri(width, k=-1)))
    masks.setflags(write=False)
    return masks


@functools.lru_cache(maxsize=8)
def _feature_masks(width: int) -> np.ndarray:
    """0/1 masks [i < t, i <= t] at [t, i] over a width x width block."""
    masks = np.stack((np.tri(width, k=-1), np.tri(width)))
    masks.setflags(write=False)
    return masks


def _panel_blocks(n: int, span: int) -> list[list[tuple[int, int]]]:
    """The Gram sweep's column blocks as (lo, hi), grouped into panels of at most span columns.

    The blocks have equal widths of at most _BLOCK columns, so that no
    block is a thin tail.  A panel is a run of whole blocks, at least one.
    """
    n_blocks = -(-n // _BLOCK)
    bounds = [n * k // n_blocks for k in range(n_blocks + 1)]
    panels: list[list[tuple[int, int]]] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if panels and hi - panels[-1][0][0] <= span:
            panels[-1].append((lo, hi))
        else:
            panels.append([(lo, hi)])
    return panels


@_small_buffers()
def _sweep(n: int, panels) -> np.ndarray:
    """The ten sums from column panels of the Gram matrix g, swept in blocks of columns.

    Returns them as the rows of one 10 x n array, in the order of
    :class:`_SweepTerms`.

    ``panels`` yields (blocks, cols) in the order of :func:`_panel_blocks`:
    cols holds the columns of g from the first block's lo to the last
    block's hi, all n rows of them, and the sweep consumes it before it
    draws the next panel.

    The two-index sums follow from each column's sums of g and g^2 above
    and below the diagonal, each side summed directly and accumulated over
    the columns from its own end, so that a short prefix or suffix never
    comes out as a difference of long ones.  With C[t, j] the sum of
    g[i, j] over i <= t, i != j and S[t, j] the sum over i > t, i != j, the
    last four sums are per row t the sums of C^2 and S^2 over j <= t and
    over j > t, added up in place in their rows of the result.  One block
    of about _BLOCK columns at a time gives its edge sums from the raw
    columns, then becomes C in place, by one cumsum, and S = C[-1] - C in
    turn: O(n^2) time and O(n) memory beside the panel.
    """
    # edge[side, power, t]: sums of g[i, t]^power over i < t (side 0) and
    # over i > t (side 1).  rows[side, half, t]: sums of C[t, j]^2 (side 0)
    # and S[t, j]^2 (side 1) over j <= t (half 0) and over j > t (half 1),
    # which are pre_cc, cross_cc, cross_ss and suf_ss.
    edge = np.empty((2, 2, n))
    n_blocks = -(-n // _BLOCK)
    masks = _block_masks(-(-n // n_blocks))     # for the widest block
    out = np.empty((len(_SweepTerms._fields), n))
    rows = out[6:].reshape(2, 2, n)
    rows[...] = 0.0
    for blocks, cols in panels:
        for lo, hi in blocks:
            # Columns j = lo .. hi-1.  Rows above the block have only j > t,
            # rows below it only j <= t; the square diagonal block takes the
            # masks, where masks[1] also marks the rows i < j and masks[2]
            # the rows i > j.  The first block has no rows above it, the
            # last none below it.
            c = cols[:, lo - blocks[0][0] : hi - blocks[0][0]]
            block = c[lo:hi]
            diagonal = masks[:, : hi - lo, : hi - lo]
            for side, outside in ((0, c[:lo]), (1, c[hi:])):
                col = np.einsum("ij,ij,ij->j", block, block, diagonal[side + 1],
                                out=edge[side, 1, lo:hi])
                if len(outside):
                    col += np.einsum("ij,ij->j", outside, outside)
            on_diagonal = np.einsum("ii->i", block)     # a writable view
            on_diagonal[...] = 0.0
            np.cumsum(c, axis=0, out=c)                 # C
            last = c[-1].copy()
            # C and S at [t, t - lo] for the rows t of the block.
            edge[0, 0, lo:hi] = on_diagonal
            np.subtract(last, on_diagonal, out=edge[1, 0, lo:hi])
            for side in (0, 1):
                if side:
                    np.subtract(last, c, out=c)         # S
                if lo:
                    rows[side, 1, :lo] += np.einsum("ij,ij->i", c[:lo], c[:lo])
                if hi < n:
                    rows[side, 0, hi:] += np.einsum("ij,ij->i", c[hi:], c[hi:])
                rows[side, :, lo:hi] += np.einsum("ij,ij,kij->ki", block, block, diagonal[:2])

    head = np.cumsum(edge, axis=2)      # over the columns 0 .. t
    tail = _tail_sums(edge)             # over the columns t+1 .. n-1
    np.multiply(head[0], 2.0, out=out[0:2])     # pre1, pre2
    np.multiply(tail[1], 2.0, out=out[2:4])     # suf1, suf2
    # Each row's partners after it, minus its partners before it, summed over
    # the prefix; or the mirror image over the suffix, whichever is shorter.
    h = n // 2
    np.subtract(head[1, :, :h], head[0, :, :h], out=out[4:6, :h])     # cross1, cross2
    np.subtract(tail[0, :, h:], tail[1, :, h:], out=out[4:6, h:])
    return out


class _Totals(NamedTuple):
    """Moments of all n rows x_i - center: s_n = sum x_i, A_n = sum x_i x_i', u_n = sum q_i x_i."""

    center: np.ndarray | float
    s: np.ndarray
    au: np.ndarray      # [A_n | u_n | s_n | A_n s_n], p x (p + 3)
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
    au = np.empty((p, p + 3))
    au[:, : p + 2] = zz[:p, : p + 2]
    np.matmul(a, au[:, p + 1], out=au[:, p + 2])
    return _Totals(center, au[:, p + 1], au, zz[p, p + 1], zz[p, p], np.einsum("ij,ij->", a, a))


def _chunk_rows(m: int) -> int:
    """Rows per chunk of a feature pass over m rows: whole blocks, _CHUNK_ROWS or about m / 16.

    Read at the call, so that it follows _FEATURE_BLOCK.  Any multiple of
    _FEATURE_BLOCK, or m itself, gives the same bits.
    """
    blocks = max(1, _CHUNK_ROWS // _FEATURE_BLOCK, -(-m // (_CHUNKS_PER_PASS * _FEATURE_BLOCK)))
    return blocks * _FEATURE_BLOCK


# The rows of a chunk of :func:`_side_sums`: x_t's row-wise terms, the
# first six of which become running sums, then s_t's, six rows apart from
# x_t's where the two share a product, and the ten sums made of them in place.
(_Q, _X_TOT, _X_QUAD, _QQ, _Q_XC, _XC, _SS, _S_TOT, _S_QUAD, _S_U, _S_C, _S_ANC,
 _U_S, _S_ATC, _SUF_FROB, _SUF_Q2) = range(16)
_SIDE_ROWS = _SweepTerms(_SS, _X_QUAD, _Q_XC, _SUF_FROB, _S_C, _X_TOT,
                         _S_QUAD, _S_TOT, _S_ATC, _S_ANC)


def _side_sums(x: np.ndarray, tot: _Totals):
    """The ten sums for the splits after each of the first k rows of x, one chunk at a time.

    Entry k puts rows 0 .. t = k-1 of x in the prefix and every other row
    of the data in the suffix; the rows are taken less ``tot.center``, and
    entry 0 is the split after no rows.  The prefix sums are polynomials in
    its moments s_t, A_t, u_t and ||A_t||_F^2, e.g. pre2 = ||A_t||_F^2 -
    sum q_i^2 and pre_cc = s_t' A_t s_t - 2 u_t . s_t + sum q_i^2; the
    suffix sums are the totals minus the prefix's, with r_t = c - s_t for
    the suffix's row sum, c = s_n.  Every r_t term is expanded in s_t and
    c, e.g. r' A r = s' A s - 2 s . A c + c' A c, so that no r_t is formed.

    Yields (k, acc) per chunk of :func:`_chunk_rows` rows, with column j of
    acc at entry k + j for the entries of the chunk's rows; the first chunk
    leads with entry 0.  acc has 16 rows, and _SIDE_ROWS names the sums'
    rows among them; the next chunk overwrites it.  Each block of
    b = _FEATURE_BLOCK rows stacks its x_t and s_t and reads off them, per
    row, q_t, s.s, v' A_n v for v = x_t, s_t, x.c, s.u_n, s.c, s.A_n c
    (one product with the columns [A_n | u_n | c | A_n c]), v' A_t v
    (A_{t-1} for x_t), u_t . s_t and s . A_t c (one product with the
    running [A_t | u_t | A_t c]).  The running sums of q_t, x' A_n x,
    ||A_t||_F^2, q_t^2, q_t x.c and (x.c)^2 give the rest, among them
    u_t . c and c' A_t c; the chunk's formulas then turn these into the
    sums in place.  A_t, u_t, s_t and the running sums go on from chunk to
    chunk: O(b p + b^2 + p^2) working memory beside one chunk's sums.
    """
    m, p = x.shape
    width = min(_FEATURE_BLOCK, m)
    masks = _feature_masks(width)
    c = tot.s
    cc, c_u, c_ac = c @ c, c @ tot.au[:, p], c @ tot.au[:, p + 2]
    buf = np.empty((2 * width, p))          # x_t and s_t of a block
    # Also holds x_b' x_b, which would otherwise be a p x p temporary.
    work = np.empty(max(2 * width * max(p + 3, width), p * p))
    a = np.zeros((p, p + 2))                # [A_t | u_t | A_t c] at the start of the block
    s_end = np.zeros(p)                     # s_t at the end of the last block
    # The running sums at the entry before the chunk, those of rows _Q .. _XC.
    carry = np.zeros(6)
    rows = min(_chunk_rows(m), m)
    chunk = np.zeros((16, rows + 1))
    for c0 in range(0, m, rows):
        c1 = min(c0 + rows, m)
        k = c0 + 1 if c0 else 0
        acc = chunk[:, : c1 + 1 - k]
        for lo in range(c0, c1, _FEATURE_BLOCK):
            hi = min(lo + _FEATURE_BLOCK, c1)
            b = hi - lo
            out = slice(lo + 1 - k, hi + 1 - k)     # the prefixes that end in the block
            flat = buf[: 2 * b]
            v = flat.reshape(2, b, p)
            xb, sb = v
            # Copied, then centered: subtracting a reversed block straight into
            # xb would buffer both operands.
            xb[...] = x[lo:hi]
            xb -= tot.center
            # Run on from the last block: the adds of one cumsum over all rows.
            sb[...] = xb
            sb[0] += s_end
            np.cumsum(sb, axis=0, out=sb)
            np.einsum("kti,kti->kt", v, v, out=acc[_Q : _SS + 1 : _SS, out])
            prod = np.matmul(flat, tot.au, out=work[: 2 * b * (p + 3)].reshape(2 * b, p + 3))
            np.einsum("kti,kti->kt", prod[:, :p].reshape(2, b, p), v,
                      out=acc[_X_TOT : _S_TOT + 1 : _SS, out])
            acc[_XC, out] = prod[:b, p + 1]
            acc[_S_U : _S_ANC + 1, out] = prod[b:, p:].T
            # v' A_t v, s . u_t and s . A_t c with A_t and u_t at the start of
            # the block; the block's rows j < t (for x_t) or j <= t (for s_t)
            # add (v . x_j)^2, q_j s . x_j and (x_j . c) s . x_j.
            prod = np.matmul(flat, a, out=work[: 2 * b * (p + 2)].reshape(2 * b, p + 2))
            quad = acc[_X_QUAD : _S_QUAD + 1 : _SS, out]
            np.einsum("kti,kti->kt", prod[:, :p].reshape(2, b, p), v, out=quad)
            acc[_U_S : _S_ATC + 1, out] = prod[b:, p:].T
            vx = np.matmul(flat, xb.T, out=work[: 2 * b * b].reshape(2 * b, b)).reshape(2, b, b)
            vx *= masks[:, :b, :b]
            quad += np.einsum("kti,kti->kt", vx, vx)
            weights = acc[_Q : _XC + 1 : _XC, out]      # q_j and x_j . c
            acc[_U_S : _S_ATC + 1, out] += weights @ vx[1].T
            a[:, :p] += np.matmul(xb.T, xb, out=work[: p * p].reshape(p, p))
            a[:, p:] += (weights @ xb).T
            s_end[...] = sb[-1]

        (q, x_tot, x_quad, qq, q_xc, xc, ss, s_tot, s_quad, s_u, s_c, s_anc, u_s, s_atc,
         suf_frob, suf_q2) = acc
        np.square(q, out=qq)
        # ||A_t||^2 - ||A_{t-1}||^2 = 2 x_t' A_{t-1} x_t + q_t^2: nonnegative steps.
        x_quad *= 2.0
        x_quad += qq
        np.multiply(q, xc, out=q_xc)
        np.square(xc, out=xc)
        # Each running sum goes on from the last chunk's: adding its last
        # entry to this chunk's first makes the adds of one cumsum.
        run = acc[_Q : _XC + 1]
        run[:, 0] += carry
        np.cumsum(run, axis=1, out=run)
        carry[...] = run[:, -1]
        q1, cross2, frob, q2, u_c, c_quad = run     # u_c = u_t . c, c_quad = c' A_t c
        cross2 -= frob
        # The suffix's ||B_t||_F^2: all pairs, minus the prefix's and the crossing ones.
        np.subtract(tot.frob, frob, out=suf_frob)
        suf_frob -= 2.0 * cross2
        np.subtract(tot.q2, q2, out=suf_q2)
        # Each row below becomes the sum _SIDE_ROWS names it by; a row is
        # overwritten only after its last read.  r = c - s throughout.
        cross_ss = s_atc                # r' A_t r
        cross_ss *= -2.0
        cross_ss += s_quad
        cross_ss += c_quad
        suf_ss = s_anc                  # r' A_n r, then less the rest
        suf_ss *= -2.0
        suf_ss += s_tot
        suf_ss += c_ac
        suf_ss -= cross_ss
        cross_cc = s_tot
        cross_cc -= s_quad
        u_r = s_u                       # u_t . r - r . u_n
        u_r -= u_s
        u_r += u_c
        u_r -= c_u
        suf_ss += 2.0 * u_r
        suf_ss += suf_q2
        pre_cc = s_quad
        pre_cc -= 2.0 * u_s
        pre_cc += q2
        pre2 = frob
        pre2 -= q2
        suf2 = suf_frob
        suf2 -= suf_q2
        suf1 = np.multiply(s_c, -2.0, out=u_c)      # r . r
        suf1 += ss
        suf1 += cc
        cross1 = s_c                    # s . r
        cross1 -= ss
        pre1 = ss
        pre1 -= q1
        suf1 -= np.subtract(tot.q1, q1, out=q1)
        yield k, acc


def _feature_passes(x: np.ndarray, center: np.ndarray | float):
    """The ten sums of the feature path's two passes, one chunk at a time.

    Yields (first, step, base, rows): column j of base is the split after
    first + step * j rows, and ``rows`` names the row of base that holds
    each sum.  The forward pass over rows 0 .. h-1, h = n // 2, serves the
    splits after 0 .. h rows, whose prefix is the shorter side, and a pass
    over the reversed rows n-1 .. h+1 the splits after n .. h+1 rows,
    whose suffix is, so that there step = -1.  The next chunk overwrites
    base, so a consumer is done with it before it asks for the next, and
    drops it before the second pass.
    """
    n = x.shape[0]
    h = n // 2
    tot = _totals(x, center)
    # In the reversed pass prefix and suffix trade places.
    for start, step, rows, part in ((0, 1, _SIDE_ROWS, x[:h]),
                                    (n, -1, _SIDE_ROWS.mirrored(), x[:h:-1])):
        for k, acc in _side_sums(part, tot):
            yield start + step * k, step, acc, rows
        del acc     # freed before the second pass's chunk is formed


def _side_sizes(first: int, count: int, n: int, step: int = 1) -> np.ndarray:
    """[m1, m2], the sizes of the two sides at the splits after first, first + step, ... rows."""
    m1 = np.arange(first, first + step * count, step, dtype=np.float64)
    return np.array((m1, n - m1))


def _mean_values(within1, within2, cross, m: np.ndarray) -> np.ndarray:
    """The mean-shift curve at a range of splits, from three inner-product sums there.

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


def _split_values(base: np.ndarray, rows: _SweepTerms, m: np.ndarray) -> np.ndarray:
    """The curve at a range of splits, from the sums there and the sizes of the two sides.

    Column j of base and of m = [m1, m2] (:func:`_side_sizes`) is one
    split, and ``rows`` names the row of base that holds each sum.  The
    three- and four-index sums are formed here, each where it is divided.
    Runs in place: it overwrites every sum but pre1, suf1 and cross1, and
    holds about eight more rows of their length.
    """
    t = _SweepTerms(*(base[i] for i in rows))
    m1, m2 = m
    perm2_pre = m1 * (m1 - 1.0)
    perm2_suf = m2 * (m2 - 1.0)
    four = np.empty_like(t.cross1)      # each four-index sum in turn
    for s1, s2, s3, mm, perm2 in (
        (t.pre1, t.pre2, t.pre_cc, m1, perm2_pre),
        (t.suf1, t.suf2, t.suf_ss, m2, perm2_suf),
    ):
        # Three distinct indices sharing the middle one j, the partners i, k
        # of each j on the same side: C_j^2 or S_j^2 less the i == k terms.
        s3 -= s2
        # Four distinct indices: the square of the two-index sum less every
        # coincidence pattern.
        s4 = np.square(s1, out=four)
        s4 -= 2.0 * s2
        s4 -= 4.0 * s3
        # s2 / perm2 - 2 s3 / perm3 + s4 / perm4, into s2.
        s2 /= perm2
        perm = perm2 * (mm - 2.0)
        s3 *= 2.0
        s3 /= perm
        s2 -= s3
        perm *= mm - 3.0
        s4 /= perm
        s2 += s4
    # Across the split, the shared index j in the suffix (mid_suf) or in the
    # prefix (mid_pre), and i != k in the prefix, j != l in the suffix.
    mid_suf, mid_pre = t.cross_cc, t.cross_ss
    mid_suf -= t.cross2
    mid_pre -= t.cross2
    cross4 = np.square(t.cross1, out=four)
    cross4 -= mid_suf
    cross4 -= mid_pre
    cross4 -= t.cross2
    across = t.cross2
    across /= m1 * m2
    across -= np.divide(mid_suf, perm2_pre * m2, out=mid_suf)
    across -= np.divide(mid_pre, m1 * perm2_suf, out=mid_pre)
    across += np.divide(cross4, perm2_pre * perm2_suf, out=cross4)
    across *= 2.0
    out = np.add(t.pre2, t.suf2)
    out -= across
    return out


def _cov_result(per_tau: np.ndarray, n: int) -> CovStatResult:
    """The curve at the splits 4 .. n-4 with its aggregate."""
    m1 = np.arange(4, n - 3, dtype=np.float64)
    aggregate = float(np.dot(m1 * (n - m1) / n, per_tau))
    return CovStatResult(StatCurve(4, n - 4, per_tau), aggregate)


def _curves(x: np.ndarray, with_mean: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The covariance curve at the splits 4 .. n-4 and the mean curve at the splits 2 .. n-2.

    Both come from the sums of the centered rows, on the path the shape
    picks: the feature path's chunks or the Gram path's one sweep.  The
    mean curve needs three of them, pre1, suf1 and cross1, its pair sums.
    Both curves are written on a chunk's splits as soon as its sums are
    formed, the covariance curve in place in them (see
    :func:`_split_values`), so beside one chunk this holds the two curves.
    With ``with_mean=False`` the mean curve is not formed and comes back
    as None.  For 4 <= n < 8 the covariance curve is empty.
    """
    n, p = x.shape
    cov, mean = np.empty(max(n - 7, 0)), (np.empty(n - 3) if with_mean else None)
    if n >= _FEATURE_ROWS_PER_COLUMN * p:
        chunks = _feature_passes(x, x.mean(axis=0))
    else:
        chunks = [(1, 1, _sweep(n, _centered_panels(x)), _FIELDS)]
    for first, step, base, rows in chunks:
        # The chunk's splits after lo .. hi rows that lie in 2 .. n-2, in
        # its columns j .. j + hi - lo: ascending where step = 1, descending
        # where step = -1, and so the curves' values too.
        last = first + step * (base.shape[1] - 1)
        lo, hi = max(min(first, last), 2), min(max(first, last), n - 2)
        if lo <= hi:
            j = lo - first if step > 0 else first - hi
            base = base[:, j : j + hi - lo + 1]
            m = _side_sizes(lo if step > 0 else hi, hi - lo + 1, n, step)
            if with_mean:
                mean[lo - 2 : hi - 1] = _mean_values(
                    base[rows.pre1], base[rows.suf1], base[rows.cross1], m)[::step]
            # Among them, those after lo4 .. hi4 rows, which lie in 4 .. n-4.
            lo4, hi4 = max(lo, 4), min(hi, n - 4)
            j = lo4 - lo if step > 0 else hi - hi4
            cols = slice(j, j + max(hi4 - lo4 + 1, 0))
            cov[lo4 - 4 : hi4 - 3] = _split_values(base[:, cols], rows, m[:, cols])[::step]
        del base    # freed before the next chunk is formed
    return cov, mean


def _centered_panels(x: np.ndarray):
    """Column panels of the Gram matrix of the column-centered rows, for :func:`_sweep`.

    A panel holds the whole blocks of :func:`_panel_blocks` that fit in
    max(p, one block) columns; it is formed in one buffer, which the next
    panel overwrites, as the matrix product of the data and the panel's
    rows.  Where p >= n or n <= _BLOCK the one panel is x @ x.T, a
    symmetric syrk like ``gram``.

    With m the column means and a = x m, each raw panel is centered in
    place: (x_i - m) . (x_j - m) = g_ij - ((a_i + a_j) - |m|^2).  That
    form rounds like g, whose entries grow by 1 + |m|^2 / s^2 against the
    centered ones for s^2 the mean squared norm of the centered rows, so
    it is taken while |m| <= s: at most one bit lost, and no copy of the
    data.  The shifts are formed _CENTER_ROWS rows at a time.  Data
    farther from the origin are centered in one n x p copy.  The means
    and a are formed here, at the call; the panels as they are drawn.
    """
    n, p = x.shape
    # Contiguous and aligned, so that x @ x.T is a symmetric syrk (see gram)
    # and np.vdot, BLAS, reads x without a copy.
    given, x = x, np.require(x, requirements=("C", "A"))
    m = x.mean(axis=0)
    mm = float(m @ m)
    a = None
    # The mean squared row norm is s^2 + |m|^2.
    if n * mm > 0.5 * float(np.vdot(x, x)):
        with _small_buffers():
            # In place where x is already a copy, so that one copy is held.
            x = np.subtract(x, m, out=None if x is given else x)
    else:
        a = x @ m
    layout = _panel_blocks(n, p)
    widest = max(blocks[-1][1] - blocks[0][0] for blocks in layout)
    buf = np.empty(n * widest)
    shift = np.empty((min(_CENTER_ROWS, n), widest))

    def panels():
        for blocks in layout:
            lo, hi = blocks[0][0], blocks[-1][1]
            g = np.matmul(x, x[lo:hi].T, out=buf[: n * (hi - lo)].reshape(n, hi - lo))
            if a is not None:
                for r0 in range(0, n, _CENTER_ROWS):
                    r1 = min(r0 + _CENTER_ROWS, n)
                    # a_i + a_j == a_j + a_i bitwise, so x @ x.T stays exactly symmetric.
                    rows = np.add(a[r0:r1, None], a[lo:hi], out=shift[: r1 - r0, : hi - lo])
                    rows -= mm
                    g[r0:r1] -= rows
            yield blocks, g

    return panels()


def cov_stat_curve(data, g: np.ndarray | None = None) -> CovStatResult:
    """Covariance-shift statistic at every split, plus the weighted aggregate.

    The aggregate sums tau * (n - tau) / n times the per-split value over
    the full range tau = 4 .. n-4.

    Parameters
    ----------
    data : Dataset or (n, p) array-like
        Time-ordered observations, n >= 8.
    g : ndarray, optional
        Precomputed ``gram(data)``, kept for compatibility: only its shape
        is checked, n x n.  Both paths sum the centered rows, as
        ``detect`` does, so the result is the same with or without it.
    """
    x = as_matrix(data)
    n = x.shape[0]
    if n < 8:
        raise SampleTooSmallError(f"covariance-shift curve needs n >= 8, got {n}")
    if g is not None and np.shape(g) != (n, n):
        raise NotAMatrixError(
            f"g must be the {n} x {n} Gram matrix of the data, got shape {np.shape(g)}"
        )
    return _cov_result(_curves(x, with_mean=False)[0], n)
