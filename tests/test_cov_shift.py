"""Covariance-shift curve: sub-sum validation, oracle equivalence, invariances."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpjoint import (
    NotAMatrixError,
    SampleTooSmallError,
    cov_stat_curve,
    gram,
)
from cpjoint import cov_shift
from cpjoint.cov_shift import _FEATURE_ROWS_PER_COLUMN
from conftest import random_orthogonal, rel_err
from naive import (
    _curve,
    _feature_terms,
    _sweep_terms,
    centered_gram,
    direct_sweep_terms,
    naive_cov_stat,
)


def brute_force_terms(g, tau):
    """Every Gram sub-sum by direct index enumeration, for one prefix size."""
    n = g.shape[0]
    pre = range(tau)
    suf = range(tau, n)
    out = {}
    out["pre1"] = sum(g[i, j] for i, j in itertools.permutations(pre, 2))
    out["pre2"] = sum(g[i, j] ** 2 for i, j in itertools.permutations(pre, 2))
    out["suf1"] = sum(g[i, j] for i, j in itertools.permutations(suf, 2))
    out["suf2"] = sum(g[i, j] ** 2 for i, j in itertools.permutations(suf, 2))
    out["cross1"] = sum(g[i, j] for i in pre for j in suf)
    out["cross2"] = sum(g[i, j] ** 2 for i in pre for j in suf)
    # Squared partial column sums: C_j over the prefix, S_j over the suffix.
    col = lambda j, side: sum(g[i, j] for i in side if i != j)
    out["pre_cc"] = sum(col(j, pre) ** 2 for j in pre)
    out["cross_cc"] = sum(col(j, pre) ** 2 for j in suf)
    out["cross_ss"] = sum(col(j, suf) ** 2 for j in pre)
    out["suf_ss"] = sum(col(j, suf) ** 2 for j in suf)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_terms_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = 10
    g = gram(rng.standard_normal((n, 2)))
    terms = _sweep_terms(g.copy())
    for tau in (4, 5, 6):
        expected = brute_force_terms(g, tau)
        for name, value in expected.items():
            fast = getattr(terms, name)[tau - 1]
            assert rel_err(fast, value) <= 1e-9, f"{name} at tau={tau}"


def test_direct_sweep_terms_match_brute_force():
    # The extended-precision reference of the accuracy tests, in float64.
    n = 9
    g = gram(np.random.default_rng(9).standard_normal((n, 3)) + 0.5)
    terms = direct_sweep_terms(g)
    for tau in range(1, n):
        for name, value in brute_force_terms(g, tau).items():
            assert abs(getattr(terms, name)[tau - 1] - value) <= 1e-12 * max(abs(value), 1.0), name


@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("block", [3, 4, 128])
def test_blocked_sweep_matches_brute_force(n, block, monkeypatch):
    # Small column blocks put block edges inside every prefix and suffix.
    monkeypatch.setattr(cov_shift, "_BLOCK", block)
    rng = np.random.default_rng(10 * n + block)
    g = gram(rng.standard_normal((n, 3)) + 0.5)
    terms = _sweep_terms(g.copy())
    expected = [brute_force_terms(g, tau) for tau in range(1, n)]
    for name in expected[0]:
        want = np.array([e[name] for e in expected])
        got = getattr(terms, name)[: n - 1]
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-9 * scale, name


@pytest.mark.parametrize("block", [3, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feature_terms_match_brute_force(seed, block, monkeypatch):
    # Block size 3 puts block boundaries inside every prefix and suffix.
    monkeypatch.setattr(cov_shift, "_FEATURE_BLOCK", block)
    rng = np.random.default_rng(seed)
    n = 10
    x = rng.standard_normal((n, 2)) + 0.5
    g = gram(x)
    terms = _feature_terms(x)
    expected = [brute_force_terms(g, tau) for tau in range(1, n)]
    for name in expected[0]:
        want = np.array([e[name] for e in expected])
        got = getattr(terms, name)[: n - 1]
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-9 * scale, name


def _gram_curve(x):
    return _curve(_sweep_terms(gram(x)), x.shape[0]).per_tau.values


def _feature_curve(x):
    return _curve(_feature_terms(x), x.shape[0]).per_tau.values


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_matches_naive_oracle_across_the_path_switch(offset):
    p = 3
    n = _FEATURE_ROWS_PER_COLUMN * p + offset
    x = np.random.default_rng(300 + offset).standard_normal((n, p))
    result = cov_stat_curve(x)
    for tau in range(4, n - 3):
        assert rel_err(result.per_tau.value_at(tau), naive_cov_stat(x, tau)) <= 1e-9


@pytest.mark.parametrize("shape", [(40, 30), (120, 12), (300, 40)])
def test_both_paths_agree_on_centered_data(shape):
    x = np.random.default_rng(301).standard_normal(shape)
    x -= x.mean(axis=0)
    via_gram = _gram_curve(x)
    assert np.abs(_feature_curve(x) - via_gram).max() <= 1e-9 * np.abs(via_gram).max()


def test_feature_path_at_least_as_accurate_as_gram_path():
    n, p = 2000, 50
    x = np.random.default_rng(302).standard_normal((n, p))
    x[n // 2:] += 0.25
    xl = x.astype(np.longdouble)
    xl -= xl.mean(axis=0)
    # _curve keeps the precision of the sums and rounds only the result.
    exact = _curve(direct_sweep_terms(xl @ xl.T), n).per_tau.values
    scale = np.abs(exact).max()
    gram_err = np.abs(_gram_curve(x) - exact).max() / scale
    feature_err = np.abs(cov_stat_curve(x).per_tau.values - exact).max() / scale
    assert feature_err <= gram_err


def _heterogeneous(kind, n, p, rng):
    x = rng.standard_normal((n, p))
    if kind == "quarter_x1000":
        x[n // 4 : n // 2] *= 1000.0
    elif kind == "column_per_half":
        x[: n // 2, 0] *= 1e4
        x[n // 2 :, 1] *= 1e4
    elif kind == "random_walk":
        x = np.cumsum(x, axis=0)
    elif kind == "geometric_scale":
        x *= np.geomspace(1.0, 1e4, n)[:, None]
    elif kind == "offset_1e8":
        x += 1e8
    return x


@pytest.mark.parametrize("n", [400, 401, 600, 601])
@pytest.mark.parametrize(
    "kind", ["quarter_x1000", "column_per_half", "random_walk", "geometric_scale", "offset_1e8"]
)
def test_feature_path_accuracy_on_heterogeneous_rows(kind, n):
    # The longer side of each split is the totals minus the shorter side,
    # and each term of the suffix's row sum r_t = s_n - s_t is expanded in
    # s_t and s_n.  At n = 600 and 601 each pass has two chunks and a
    # ragged last block; with even n the reversed pass, which fills the
    # mirrored rows of the sums, is one row shorter than the forward one.
    p = 20
    x = _heterogeneous(kind, n, p, np.random.default_rng(308))
    xl = x.astype(np.longdouble)
    xl -= xl.mean(axis=0)
    exact = _curve(direct_sweep_terms(xl @ xl.T), n).per_tau.values
    err = np.abs(cov_stat_curve(x).per_tau.values - exact).max()
    assert err <= 1e-13 * np.abs(exact).max()


@pytest.mark.parametrize("n, p", [(8, 2), (9, 2), (12, 3), (13, 3), (2000, 5)])
def test_feature_path_sweeps_each_row_once(n, p, monkeypatch):
    swept = []
    side_sums = cov_shift._side_sums

    def counting(x, tot):
        swept.append(x.shape[0])
        return side_sums(x, tot)

    monkeypatch.setattr(cov_shift, "_side_sums", counting)
    x = np.random.default_rng(309).standard_normal((n, p)) + 0.5
    x -= x.mean(axis=0)
    terms = _feature_terms(x)
    assert sum(swept) <= n
    expected = _sweep_terms(x @ x.T)
    for name, want in expected._asdict().items():
        got = getattr(terms, name)
        assert got.shape == (n,), name
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name


@pytest.mark.parametrize("block", [4, 64])
@pytest.mark.parametrize(
    "shape",
    [(8, 2), (9, 2), (63, 5), (64, 5), (65, 5), (129, 10), (257, 20), (2001, 20), (2000, 50)],
)
def test_chunk_size_changes_no_bit(shape, block, monkeypatch):
    # The running sums carry over from chunk to chunk and the curves are
    # elementwise, so chunks of one block or of a whole pass give the bits
    # of the default chunks, including where a block or a chunk is ragged.
    monkeypatch.setattr(cov_shift, "_FEATURE_BLOCK", block)
    x = np.random.default_rng(shape[0]).standard_normal(shape) + 0.5
    assert shape[0] >= _FEATURE_ROWS_PER_COLUMN * shape[1]
    default = cov_shift._curves(x)
    for rows in (lambda m: block, lambda m: m):
        monkeypatch.setattr(cov_shift, "_chunk_rows", rows)
        for got, want in zip(cov_shift._curves(x), default):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(40, 30), (400, 20)])
def test_cov_stat_curve_forms_no_mean_curve(shape, monkeypatch):
    # On either path the covariance curve alone is formed, with the bits of
    # the curve that the pipeline reads beside the mean curve.
    x = np.random.default_rng(shape[0]).standard_normal(shape) + 0.5
    want = cov_shift._curves(x)[0]

    def refuse(*args):
        raise AssertionError("mean curve formed")

    monkeypatch.setattr(cov_shift, "_mean_values", refuse)
    assert np.array_equal(cov_stat_curve(x).per_tau.values, want)


@pytest.mark.parametrize("block", [3, 64])
def test_chunks_are_whole_blocks(block, monkeypatch):
    # 256 rows, or about a sixteenth of a long pass, in whole blocks.
    monkeypatch.setattr(cov_shift, "_FEATURE_BLOCK", block)
    for m in (1, 1000, 4095, 50_000):
        rows = cov_shift._chunk_rows(m)
        assert rows % block == 0
        assert 256 - block < rows <= max(256, m / 16 + block)


@pytest.mark.parametrize("shape", [(200, 100), (400, 200)])
def test_gram_path_accuracy_against_extended_precision(shape):
    n, p = shape
    x = np.random.default_rng(304).standard_normal(shape)
    x[n // 2:] *= 1.5
    x -= x.mean(axis=0)
    xl = x.astype(np.longdouble)
    xl -= xl.mean(axis=0)
    exact = _curve(direct_sweep_terms(xl @ xl.T), n).per_tau.values
    err = np.abs(_gram_curve(x) - exact).max() / np.abs(exact).max()
    assert err <= 1e-11


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", [(200, 100), (300, 1000)], ids=["200x100", "300x1000"])
def test_gram_path_sums_each_side_directly(shape, seed):
    # Each column's g^2 sum below the diagonal is summed directly: as the
    # whole column minus the upper part it lost 3e-14 to 3e-13 of the scale.
    n = shape[0]
    x = np.random.default_rng(seed).standard_normal(shape)
    xl = x.astype(np.longdouble)
    xl -= xl.mean(axis=0)
    exact = _curve(direct_sweep_terms(xl @ xl.T), n).per_tau.values
    err = np.abs(cov_stat_curve(x).per_tau.values - exact).max()
    assert err <= 1e-14 * np.abs(exact).max()


def test_large_offset_leaves_feature_path_curve_unchanged():
    x = np.random.default_rng(303).standard_normal((400, 20))
    base = cov_stat_curve(x).per_tau.values
    moved = cov_stat_curve(x + 1000.0).per_tau.values
    assert np.abs(moved - base).max() <= 1e-9 * np.abs(base).max()


def test_large_offset_leaves_gram_path_curve_unchanged():
    rng = np.random.default_rng(305)
    x = rng.standard_normal((200, 100))
    rms = np.sqrt(np.mean(x * x))
    base = cov_stat_curve(x).per_tau.values
    moved = cov_stat_curve(x + 1e6 * rms * rng.uniform(-1.0, 1.0, 100)).per_tau.values
    assert np.abs(moved - base).max() <= 1e-9 * np.abs(base).max()


def test_caller_gram_far_from_the_origin_gives_the_centered_statistic():
    # g is read only for its shape.  A sweep of the raw g would lose the
    # curve's digits to cancellation this far from the origin.
    rng = np.random.default_rng(306)
    x = rng.standard_normal((40, 30))
    x += 1e6 * rng.uniform(-1.0, 1.0, 30)
    own = cov_stat_curve(x)
    shared = cov_stat_curve(x, gram(x))
    assert np.array_equal(shared.per_tau.values, own.per_tau.values)
    assert shared.aggregate == own.aggregate


# Near the origin the raw Gram matrix is centered in place, in chunks of
# rows, also with a ragged last chunk of 7 rows; farther out, in one copy.
@pytest.mark.parametrize(
    "shape, offset, block",
    [((60, 40), 0.5, 128), ((50, 300), 0.5, 128), ((20, 45), 0.5, 7),
     ((60, 40), 5.0, 128), ((50, 300), 5.0, 128)],
    ids=["in_place", "in_place_wide", "rows_of_7", "copy", "copy_wide"],
)
def test_centered_gram_is_symmetric_and_centered(shape, offset, block, monkeypatch):
    monkeypatch.setattr(cov_shift, "_CENTER_ROWS", block)
    x = np.random.default_rng(307).standard_normal(shape) + offset
    # n <= 128: one block, so one panel holds the whole matrix.
    g = np.hstack([cols.copy() for _, cols in cov_shift._centered_panels(x)])
    xl = x.astype(np.longdouble)
    xl -= xl.mean(axis=0)
    exact = xl @ xl.T
    assert np.array_equal(g, g.T)
    assert np.abs(g - exact).max() <= 1e-12 * np.abs(exact).max()


# One panel covers g where p >= n or n <= 128 (one sweep block): it is
# x @ x.T, so the curve is the whole matrix's bit for bit.  Several panels
# are products of the data and each panel's rows, which round apart from
# a syrk; the aggregate, and so z_cov, stays within 1e-12.
@pytest.mark.parametrize(
    "shape",
    [(200, 200), (257, 300), (50, 300), (128, 100), (100, 60), (60, 30),
     (200, 100), (300, 90), (257, 100), (129, 40), (1000, 500)],
    ids=lambda shape: f"{shape[0]}x{shape[1]}",
)
@pytest.mark.parametrize("offset", [0.0, 50.0], ids=["near", "far"])
def test_gram_panels_match_the_whole_centered_gram(shape, offset):
    n, p = shape
    x = np.random.default_rng(n + p).standard_normal(shape) + offset
    got = cov_stat_curve(x)
    want = _curve(_sweep_terms(centered_gram(x)), n)
    if p >= n or n <= cov_shift._BLOCK:
        assert np.array_equal(got.per_tau.values, want.per_tau.values)
        assert got.aggregate == want.aggregate
    else:
        assert len(cov_shift._panel_blocks(n, p)) > 1
        assert abs(got.aggregate - want.aggregate) <= 1e-12 * abs(want.aggregate)


@given(
    p=st.integers(1, 6),
    extra_rows=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    offset=st.floats(-1e3, 1e3),
    k=st.integers(-30, 30),
)
def test_feature_path_invariances(p, extra_rows, seed, offset, k):
    n = max(8, _FEATURE_ROWS_PER_COLUMN * p) + extra_rows
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    base = cov_stat_curve(x).per_tau.values
    scale = np.abs(base).max()

    def within(other, tol):
        return np.abs(other.per_tau.values - base).max() <= tol * scale

    assert within(cov_stat_curve(x + offset * rng.uniform(-1.0, 1.0, p)), 1e-9)
    assert within(cov_stat_curve(x @ random_orthogonal(p, rng)), 1e-9)
    scaled = cov_stat_curve(x * 2.0**k).per_tau.values
    assert np.array_equal(scaled, base * 2.0 ** (4 * k))
    reversed_values = cov_stat_curve(x[::-1]).per_tau.values[::-1]
    assert np.abs(reversed_values - base).max() <= 1e-10 * scale


def test_constant_rows_vanish():
    x = np.tile([1.0, 2.0], (10, 1))
    result = cov_stat_curve(x)
    assert np.abs(result.per_tau.values).max() <= 1e-7
    assert abs(result.aggregate) <= 1e-6


def test_two_block_example_matches_oracle_exactly():
    # Within each half all points coincide, so every kernel term vanishes.
    x = np.array([[0.0]] * 4 + [[1.0]] * 4)
    result = cov_stat_curve(x)
    assert result.per_tau.value_at(4) == naive_cov_stat(x, 4) == 0.0


def test_minimum_sample_size():
    with pytest.raises(SampleTooSmallError):
        cov_stat_curve(np.zeros((7, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_matches_naive_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal((12, 2))
    result = cov_stat_curve(x)
    for tau in range(4, 9):
        assert rel_err(result.per_tau.value_at(tau), naive_cov_stat(x, tau)) <= 1e-9


def test_alternating_two_point_data_matches_oracle():
    x = np.array([[float(i % 2)] for i in range(12)])
    result = cov_stat_curve(x)
    for tau in range(4, 9):
        assert rel_err(result.per_tau.value_at(tau), naive_cov_stat(x, tau)) <= 1e-12


def test_aggregate_is_weighted_sum():
    rng = np.random.default_rng(55)
    x = rng.standard_normal((26, 3))
    result = cov_stat_curve(x)
    taus = result.per_tau.taus().astype(float)
    expected = float(np.dot(taus * (26 - taus) / 26, result.per_tau.values))
    assert rel_err(result.aggregate, expected) <= 1e-10


def test_shared_gram_gives_identical_results():
    rng = np.random.default_rng(56)
    x = rng.standard_normal((15, 3))
    direct = cov_stat_curve(x)
    shared = cov_stat_curve(x, gram(x))
    assert np.array_equal(direct.per_tau.values, shared.per_tau.values)


class TestInvariances:
    def setup_method(self):
        rng = np.random.default_rng(88)
        self.x = rng.standard_normal((24, 5))
        self.base = cov_stat_curve(self.x)
        self.rng = rng

    def test_translation(self):
        shift = self.rng.standard_normal(5) * 3.0
        moved = cov_stat_curve(self.x + shift)
        scale = np.abs(self.base.per_tau.values).max()
        assert np.allclose(
            moved.per_tau.values, self.base.per_tau.values,
            rtol=1e-8, atol=1e-8 * scale,
        )

    def test_rotation(self):
        q = random_orthogonal(5, self.rng)
        rotated = cov_stat_curve(self.x @ q)
        scale = np.abs(self.base.per_tau.values).max()
        assert np.allclose(
            rotated.per_tau.values, self.base.per_tau.values,
            rtol=1e-8, atol=1e-8 * scale,
        )

    def test_scale_equivariance_exact_for_dyadic_factor(self):
        scaled = cov_stat_curve(2.0 * self.x)
        assert np.array_equal(scaled.per_tau.values, 16.0 * self.base.per_tau.values)
        assert scaled.aggregate == 16.0 * self.base.aggregate

    def test_scale_equivariance_general_factor(self):
        scaled = cov_stat_curve(1.3 * self.x)
        assert np.allclose(
            scaled.per_tau.values, 1.3**4 * self.base.per_tau.values, rtol=1e-11
        )

    def test_group_swap_symmetry(self):
        flipped = cov_stat_curve(self.x[::-1])
        assert rel_err(flipped.per_tau.values, self.base.per_tau.values[::-1]) <= 1e-10


def test_null_monte_carlo_centered(null_mc_curves):
    _, v_vals = null_mc_curves
    stderr = v_vals.std(ddof=1) / np.sqrt(len(v_vals))
    assert abs(v_vals.mean()) <= 4.0 * stderr


def test_signal_expectation_matches_covariance_gap():
    # Pre covariance I, post 2I in dimension 10: the squared Frobenius gap
    # tr((I - 2I)^2) is 10, and the split-50 value is unbiased for it.
    n, p, tau_star, reps = 100, 10, 50, 500
    rng = np.random.default_rng(515151)
    vals = np.empty(reps)
    for r in range(reps):
        x = rng.standard_normal((n, p))
        x[tau_star:] *= np.sqrt(2.0)
        vals[r] = cov_stat_curve(x).per_tau.value_at(tau_star)
    stderr = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 10.0) <= 3.0 * stderr


@pytest.mark.parametrize("shape", [(40, 39), (39, 39), (40,), (40, 40, 1)])
@pytest.mark.parametrize("p", [30, 5], ids=["gram_path", "feature_path"])
def test_caller_gram_of_the_wrong_shape_named(shape, p):
    x = np.random.default_rng(310).standard_normal((40, p))
    with pytest.raises(NotAMatrixError, match=r"40 x 40 Gram matrix"):
        cov_stat_curve(x, np.zeros(shape))


def test_caller_gram_is_left_as_it_was():
    # 150 x 60 takes the Gram path, which forms its own centered panels.
    x = np.random.default_rng(311).standard_normal((150, 60))
    g = gram(x)
    kept = g.copy()
    shared = cov_stat_curve(x, g)
    assert g.tobytes() == kept.tobytes()
    assert np.array_equal(cov_stat_curve(x, g).per_tau.values, shared.per_tau.values)


def test_gram_path_leaves_the_callers_buffer_size_as_it_was(monkeypatch):
    # The Gram kernels run numpy's ufuncs with small iteration buffers and
    # restore the caller's setting on return and on error.
    x = np.random.default_rng(315).standard_normal((60, 40)) + 0.5

    def fail(v):
        raise RuntimeError("stopped inside the sweep")

    old = np.setbufsize(4096)
    try:
        cov_stat_curve(x)
        assert np.getbufsize() == 4096
        monkeypatch.setattr(cov_shift, "_tail_sums", fail)
        with pytest.raises(RuntimeError, match="stopped inside the sweep"):
            cov_stat_curve(x)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)
