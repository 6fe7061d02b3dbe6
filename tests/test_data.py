"""Dataset validation, the copy rule, Gram matrices, and statistic curves."""

import numpy as np
import pytest

from cpjoint import (
    CovScenario,
    Dataset,
    ErrorDist,
    NonFiniteValueError,
    NotAMatrixError,
    SimulationModel,
    StatCurve,
    TooFewObservationsError,
    cli,
    data as data_module,
    dataset_from_matrix,
    detect,
    gen_dataset,
    gram,
    pipeline,
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

    def test_no_columns_named(self):
        with pytest.raises(NotAMatrixError, match=r"at least one column.*\(10, 0\)"):
            Dataset(np.empty((10, 0)))
        with pytest.raises(NotAMatrixError, match="column"):
            detect(np.empty((10, 0)))


class TestCopyRule:
    """A caller's array is copied; an array only the package can write is kept."""

    @pytest.fixture
    def converted(self, monkeypatch):
        """The arrays the finiteness scan hands back, in call order."""
        made = []
        finite_matrix = data_module._finite_matrix

        def recorded(values):
            made.append(finite_matrix(values))
            return made[-1]

        monkeypatch.setattr(data_module, "_finite_matrix", recorded)
        monkeypatch.setattr(pipeline, "_last_seen", None)
        return made

    @staticmethod
    def _stored(call, x):
        """The matrix ``call(x)`` stores: the Dataset's, or that of detect's entry."""
        out = call(x)
        return out.values if isinstance(out, Dataset) else pipeline._last_seen.dataset.values

    @pytest.mark.parametrize("call", [Dataset, detect], ids=["Dataset", "detect"])
    def test_callers_float64_array_is_copied(self, call, monkeypatch):
        monkeypatch.setattr(pipeline, "_last_seen", None)
        x = np.random.default_rng(0).standard_normal((20, 4))
        stored = self._stored(call, x)
        assert x.flags.writeable
        assert not np.may_share_memory(stored, x)
        assert np.array_equal(stored, x)
        assert not stored.flags.writeable

    @pytest.mark.parametrize("call", [Dataset, detect], ids=["Dataset", "detect"])
    @pytest.mark.parametrize(
        "layout", [np.asfortranarray, lambda x: x[::2], lambda x: x[:, ::2]],
        ids=["fortran", "row-strided", "column-strided"],
    )
    def test_non_c_ordered_input_is_stored_c_ordered(self, call, layout, monkeypatch):
        monkeypatch.setattr(pipeline, "_last_seen", None)
        x = layout(np.random.default_rng(1).standard_normal((40, 8)))
        stored = self._stored(call, x)
        assert stored.flags.c_contiguous
        assert not np.may_share_memory(stored, x)
        assert np.array_equal(stored, x)
        assert not stored.flags.writeable

    @pytest.mark.parametrize("call", [Dataset, detect], ids=["Dataset", "detect"])
    @pytest.mark.parametrize(
        "make", [lambda x: x.tolist(), lambda x: x.astype(np.float32)], ids=["list", "float32"],
    )
    def test_conversion_is_stored_without_a_copy(self, converted, call, make):
        stored = self._stored(call, make(np.random.default_rng(2).standard_normal((20, 4))))
        assert stored is converted[-1]
        assert not stored.flags.writeable

    def test_generated_matrix_is_stored_without_a_copy(self, monkeypatch):
        model = SimulationModel(
            n=30, p=4, tau_star=15, delta1=1.0, delta2=1.5,
            cov_scenario=CovScenario.AR1, error_dist=ErrorDist.NORMAL, seed=3,
        )
        gen_dataset(model)      # builds the cached covariance roots
        built = []
        empty = np.empty

        def recorded(*args, **kwargs):
            built.append(empty(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(np, "empty", recorded)
        stored = gen_dataset(model).values
        assert any(stored is b for b in built)
        assert not stored.flags.writeable

    def test_parsed_csv_is_stored_without_a_copy(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "data.csv"
        np.savetxt(path, np.random.default_rng(4).standard_normal((20, 3)), delimiter=",")
        parsed = []
        read = cli.read_matrix_csv

        def recorded(name):
            parsed.append(read(name))
            return parsed[-1]

        monkeypatch.setattr(cli, "read_matrix_csv", recorded)
        monkeypatch.setattr(pipeline, "_last_seen", None)
        assert cli.main(["detect", str(path)]) == 0
        capsys.readouterr()
        stored = pipeline._last_seen.dataset.values
        assert stored is parsed[-1]
        assert not stored.flags.writeable


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
