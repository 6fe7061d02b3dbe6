"""Dataset validation, Gram matrices, and statistic curves."""

import numpy as np
import pytest

from cpjoint import (
    Dataset,
    NonFiniteValueError,
    StatCurve,
    TooFewObservationsError,
    dataset_from_matrix,
    gram,
)


class TestDatasetFromMatrix:
    def test_boundary_n_accepted(self):
        data = dataset_from_matrix(np.zeros((8, 1)))
        assert data.n == 8
        assert data.p == 1

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservationsError):
            dataset_from_matrix(np.zeros((7, 3)))

    def test_nan_rejected(self):
        values = np.zeros((10, 2))
        values[4, 1] = np.nan
        with pytest.raises(NonFiniteValueError):
            dataset_from_matrix(values)

    def test_inf_rejected(self):
        values = np.zeros((10, 2))
        values[0, 0] = np.inf
        with pytest.raises(NonFiniteValueError):
            dataset_from_matrix(values)

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((12, 5)) * 10.0 ** rng.integers(-200, 200, (12, 5))
        data = dataset_from_matrix(values)
        assert data.values.dtype == np.float64
        assert np.array_equal(data.values, values)

    def test_immutable(self):
        data = dataset_from_matrix(np.zeros((8, 2)))
        with pytest.raises(ValueError):
            data.values[0, 0] = 1.0

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            dataset_from_matrix(np.zeros(10))


class TestGram:
    def test_orthonormal_rows(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(gram(x), np.eye(2))

    def test_identical_rows(self):
        v = np.array([1.5, -2.0, 0.5])
        x = np.tile(v, (6, 1))
        expected = float(v @ v)
        assert np.array_equal(gram(x), np.full((6, 6), expected))

    def test_matches_per_pair_dots(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 3))
        g = gram(x)
        for i in range(6):
            for j in range(6):
                direct = float(np.dot(x[i], x[j]))
                assert abs(g[i, j] - direct) <= 1e-12 * max(abs(direct), 1e-12)

    def test_exactly_symmetric_as_stored(self):
        rng = np.random.default_rng(3)
        g = gram(rng.standard_normal((25, 7)))
        assert np.array_equal(g, g.T)

    def test_diagonal_nonnegative(self):
        rng = np.random.default_rng(4)
        g = gram(rng.standard_normal((15, 4)) * 1e-150)
        assert (np.diagonal(g) >= 0.0).all()

    def test_accepts_dataset(self):
        data = dataset_from_matrix(np.eye(8))
        assert np.array_equal(gram(data), np.eye(8))

    @pytest.mark.parametrize("shape", [(9, 3), (37, 53), (120, 250), (200, 100)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "unaligned", "Dataset"])
    def test_layout_independent_and_equal_to_mirror(self, shape, layout):
        n, p = shape
        wide = np.random.default_rng(n * p).standard_normal((n, 2 * p))
        x = _with_layout(wide, layout)
        contiguous = np.array(wide[:, ::2], order="C")
        g = gram(x)
        assert np.array_equal(g, g.T)
        assert np.array_equal(g, _mirrored_product(contiguous))
        if layout in ("C", "F", "Dataset"):
            # Contiguous inputs keep the bits of the mirror built from them.
            raw = x.values if layout == "Dataset" else x
            assert np.array_equal(g, _mirrored_product(raw))


def _mirrored_product(x):
    """Reference Gram matrix: the lower triangle of x @ x.T mirrored upward."""
    g = x @ x.T
    return np.tril(g) + np.tril(g, -1).T


def _with_layout(wide, layout):
    """The even columns of ``wide`` in the requested memory layout."""
    strided = wide[:, ::2]
    if layout == "strided":
        return strided
    if layout == "F":
        return np.asfortranarray(strided)
    if layout == "Dataset":
        return dataset_from_matrix(strided)
    if layout == "unaligned":
        raw = np.empty(strided.size * 8 + 1, dtype=np.uint8)[1:]
        x = raw.view(np.float64).reshape(strided.shape)
        x[...] = strided
        assert not x.flags.aligned and x.flags.c_contiguous
        return x
    return np.ascontiguousarray(strided)


class TestStatCurve:
    def test_indexing(self):
        curve = StatCurve(2, 5, np.array([1.0, 2.0, 3.0, 4.0]))
        assert curve.value_at(2) == 1.0
        assert curve.value_at(5) == 4.0
        assert len(curve) == 4
        assert np.array_equal(curve.taus(), [2, 3, 4, 5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StatCurve(2, 5, np.array([1.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValueError):
            StatCurve(1, 2, np.array([1.0, np.inf]))

    def test_out_of_range_lookup(self):
        curve = StatCurve(2, 4, np.zeros(3))
        with pytest.raises(IndexError):
            curve.value_at(5)

    def test_dataset_direct_construction_validates(self):
        with pytest.raises(TooFewObservationsError):
            Dataset(np.zeros((3, 3)))
