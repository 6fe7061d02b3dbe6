"""Covariance designs, data generation, seeding, and the experiment harness."""

import concurrent.futures
import math

import numpy as np
import pytest

from cpjoint import simulate
from cpjoint import (
    AlphaRangeError,
    BadParamError,
    CovScenario,
    ErrorDist,
    NonFiniteValueError,
    SimulationModel,
    gen_dataset,
    run_experiment,
)
from cpjoint.errors import NotPSDError, NotSymmetricError
from cpjoint.simulate import CovSpec, build_cov, cov_sqrt, mix_seed


def _model(**overrides):
    base = dict(
        n=60, p=6, tau_star=30, delta1=1.0, delta2=2.0,
        cov_scenario=CovScenario.AR1, error_dist=ErrorDist.NORMAL, seed=42,
    )
    base.update(overrides)
    return SimulationModel(**base)


class TestBuildCov:
    def test_ar1_two_by_two(self):
        spec = CovSpec(CovScenario.AR1, 0.3, 1.0)
        assert np.allclose(build_cov(spec, 2), [[1.0, 0.3], [0.3, 1.0]], rtol=0, atol=0)

    def test_ar1_decay(self):
        sigma = build_cov(CovSpec(CovScenario.AR1, 0.5, 1.0), 4)
        assert sigma[0, 3] == pytest.approx(0.125, rel=1e-15)

    def test_block5_single_block(self):
        sigma = build_cov(CovSpec(CovScenario.BLOCK5, 0.5, 1.0), 5)
        expected = np.full((5, 5), 0.5)
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(sigma, expected)

    def test_block5_remainder_columns_uncorrelated(self):
        sigma = build_cov(CovSpec(CovScenario.BLOCK5, 0.4, 1.0), 7)
        assert np.array_equal(sigma[5:, :5], np.zeros((2, 5)))
        assert np.array_equal(sigma[5:, 5:], np.eye(2))

    def test_scale_applied(self):
        sigma = build_cov(CovSpec(CovScenario.AR1, 0.3, 2.5), 3)
        assert sigma[0, 0] == 2.5

    def test_zero_scale_rejected(self):
        with pytest.raises(BadParamError):
            CovSpec(CovScenario.AR1, 0.3, 0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(BadParamError, match="scale"):
            CovSpec(CovScenario.AR1, 0.3, scale)

    @pytest.mark.parametrize("corr", [1.0, -1.0, 1.5])
    def test_correlation_range(self, corr):
        with pytest.raises(BadParamError):
            CovSpec(CovScenario.AR1, corr, 1.0)

    def test_dimension_validated(self):
        with pytest.raises(BadParamError):
            build_cov(CovSpec(CovScenario.AR1, 0.3, 1.0), 0)

    @pytest.mark.parametrize("scenario", list(CovScenario))
    def test_non_integer_dimension_rejected(self, scenario):
        # 2.5 gave a 3 x 3 AR(1) matrix and a bare TypeError for BLOCK5.
        with pytest.raises(BadParamError, match="p=2.5"):
            build_cov(CovSpec(scenario, 0.3, 1.0), 2.5)

    def test_numpy_integer_dimension_accepted(self):
        spec = CovSpec(CovScenario.BLOCK5, 0.3, 1.0)
        assert np.array_equal(build_cov(spec, np.int64(7)), build_cov(spec, 7))

    def test_string_scenario_selects_its_design(self):
        for scenario in CovScenario:
            spec = CovSpec(scenario.value, 0.3, 1.0)
            assert spec.scenario is scenario
            assert np.array_equal(
                build_cov(spec, 12), build_cov(CovSpec(scenario, 0.3, 1.0), 12)
            )
        assert np.allclose(build_cov(CovSpec("ar1", 0.3, 1.0), 6)[0], 0.3 ** np.arange(6))

    @pytest.mark.parametrize("value", ["AR1", "foo", None])
    def test_unknown_scenario_rejected(self, value):
        with pytest.raises(BadParamError, match="scenario"):
            CovSpec(value, 0.3, 1.0)


class TestCovSqrt:
    def test_identity(self):
        assert np.allclose(cov_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        root = cov_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-13)

    def test_reconstructs_ar1(self):
        sigma = build_cov(CovSpec(CovScenario.AR1, 0.3, 1.0), 10)
        root = cov_sqrt(sigma)
        err = np.linalg.norm(root @ root - sigma) / np.linalg.norm(sigma)
        assert err <= 1e-9

    def test_spectral_root_is_symmetric(self):
        sigma = build_cov(CovSpec(CovScenario.BLOCK5, 0.3, 1.0), 10)
        root = cov_sqrt(sigma)
        assert np.array_equal(root, root.T)

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            cov_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            cov_sqrt(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entries_rejected(self, value):
        # NaN read as an asymmetric matrix; Inf gave an Inf or all-NaN root.
        with pytest.raises(NonFiniteValueError):
            cov_sqrt(np.array([[value, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteValueError):
            cov_sqrt([[value]])


class TestMixSeed:
    def test_frozen_values(self):
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(0, 1) == 7960286522194355700
        assert mix_seed(12345, 0) == 2454886589211414944
        assert mix_seed(2**64 - 1, 7) == 4638043754431676516

    def test_distinct_streams(self):
        seeds = {mix_seed(7, rep) for rep in range(10_000)}
        assert len(seeds) == 10_000

    def test_stays_in_64_bits(self):
        for rep in range(100):
            assert 0 <= mix_seed(2**63, rep) < 2**64

    @pytest.mark.parametrize(
        "field, args", [("seed", (1.5, 2)), ("rep", (1, 2.0)), ("seed", ("7", 0))]
    )
    def test_non_integer_argument_named(self, field, args):
        with pytest.raises(BadParamError, match=f"{field}=.*not an integer"):
            mix_seed(*args)

    def test_numpy_integers_give_the_same_seed(self):
        assert mix_seed(np.uint64(2**64 - 1), np.int32(7)) == 4638043754431676516
        assert mix_seed(np.int64(12345), np.uint8(0)) == 2454886589211414944
        assert type(mix_seed(np.int64(0), np.int64(1))) is int


class TestSimulationModel:
    def test_tau_star_bounds(self):
        with pytest.raises(BadParamError):
            _model(tau_star=0)
        with pytest.raises(BadParamError):
            _model(tau_star=60)

    def test_null_model_allowed(self):
        assert _model(tau_star=None).tau_star is None

    def test_delta2_positive(self):
        with pytest.raises(BadParamError):
            _model(delta2=0.0)

    @pytest.mark.parametrize("field", ["delta1", "delta2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_delta_rejected(self, field, value):
        with pytest.raises(BadParamError, match=f"{field}=.*finite"):
            _model(**{field: value})
        with pytest.raises(BadParamError, match=field):
            _model(tau_star=None, **{field: value})

    @pytest.mark.parametrize("field", ["n", "p"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_nonpositive_shape_rejected(self, field, value):
        with pytest.raises(BadParamError, match=f"{field}={value}"):
            _model(tau_star=None, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("n", 20.5), ("p", 3.0), ("tau_star", 10.5), ("seed", 1.5), ("n", "60"), ("p", None)],
    )
    def test_non_integer_field_named(self, field, value):
        with pytest.raises(BadParamError, match=f"{field}=.*not an integer"):
            _model(**{field: value})

    def test_numpy_integers_accepted_as_ints(self):
        model = _model(n=np.int64(60), p=np.int32(6), tau_star=np.uint16(30), seed=np.uint64(42))
        assert model == _model()
        assert all(type(getattr(model, f)) is int for f in ("n", "p", "tau_star", "seed"))

    @pytest.mark.parametrize("tau_star", [None, 30])
    @pytest.mark.parametrize(
        "scenario, dist",
        [(CovScenario.AR1, ErrorDist.NORMAL), (CovScenario.BLOCK5, ErrorDist.T9_STANDARDIZED)],
    )
    def test_string_values_select_their_members(self, scenario, dist, tau_star):
        by_string = _model(tau_star=tau_star, cov_scenario=scenario.value, error_dist=dist.value)
        assert by_string.cov_scenario is scenario
        assert by_string.error_dist is dist
        by_member = _model(tau_star=tau_star, cov_scenario=scenario, error_dist=dist)
        assert np.array_equal(gen_dataset(by_string).values, gen_dataset(by_member).values)

    @pytest.mark.parametrize("field", ["cov_scenario", "error_dist"])
    @pytest.mark.parametrize("value", ["AR1", "T9", "foo", None])
    def test_unknown_enum_value_rejected(self, field, value):
        with pytest.raises(BadParamError, match=field):
            _model(**{field: value})


class TestGenDataset:
    def test_deterministic(self):
        a = gen_dataset(_model())
        b = gen_dataset(_model())
        assert np.array_equal(a.values, b.values)

    def test_shape(self):
        data = gen_dataset(_model(n=24, p=5, tau_star=12))
        assert (data.n, data.p) == (24, 5)

    def test_null_model_shares_prechange_rows(self):
        # With one seed, rows before the changepoint match the null draw.
        null = gen_dataset(_model(tau_star=None))
        alt = gen_dataset(_model(tau_star=30))
        assert np.array_equal(null.values[:30], alt.values[:30])
        assert not np.array_equal(null.values[30:], alt.values[30:])

    def test_mean_shift_applied(self):
        big = _model(delta1=50.0, tau_star=30, n=60, p=4)
        data = gen_dataset(big)
        assert data.values[30:].mean() > 10.0

    def test_t9_errors_standardized(self):
        model = _model(n=2000, p=50, tau_star=None, error_dist=ErrorDist.T9_STANDARDIZED,
                       cov_scenario=CovScenario.AR1)
        data = gen_dataset(model)
        # Marginal variance of each coordinate is 1 under the null design.
        assert data.values.var() == pytest.approx(1.0, abs=0.05)


class TestRootCache:
    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        simulate._cached_root.cache_clear()
        yield
        simulate._cached_root.cache_clear()

    @pytest.mark.parametrize("scenario", list(CovScenario))
    def test_same_bits_as_fresh_roots(self, scenario):
        model = _model(n=40, p=12, tau_star=20, delta1=0.5, delta2=1.5,
                       cov_scenario=scenario)
        pre = cov_sqrt(build_cov(CovSpec(scenario, 0.3, 1.0), 12))
        post = cov_sqrt(build_cov(CovSpec(scenario, 0.5, 1.5), 12))
        errors = np.random.default_rng(model.seed).standard_normal((40, 12))
        expected = np.vstack([
            errors[:20] @ pre.T,
            errors[20:] @ post.T + 0.5 / math.sqrt(12),
        ])
        for _ in range(2):  # the first call fills the cache, the second reads it
            assert np.array_equal(gen_dataset(model).values, expected)

    def test_run_experiment_computes_each_root_once(self, monkeypatch):
        calls = []

        def counting_cov_sqrt(sigma):
            calls.append(sigma.shape)
            return cov_sqrt(sigma)

        monkeypatch.setattr(simulate, "cov_sqrt", counting_cov_sqrt)
        run_experiment(_model(), reps=10)
        assert 1 <= len(calls) <= 2

    def test_cached_roots_read_only_public_roots_writeable(self):
        pre, post = simulate._roots(_model())
        for root in (pre, post):
            assert not root.flags.writeable
            with pytest.raises(ValueError):
                root[0, 0] = 0.0
        fresh = cov_sqrt(build_cov(CovSpec(CovScenario.AR1, 0.3, 1.0), 6))
        assert fresh.flags.writeable
        assert np.array_equal(fresh, pre)
        fresh[0, 0] = 0.0
        assert simulate._roots(_model())[0] is pre


class TestRunExperiment:
    def test_single_rep_degenerate(self):
        report = run_experiment(_model(), reps=1)
        assert report.rep_count == 1
        assert report.rejection_rate in (0.0, 1.0)
        assert report.mc_stderr == 0.0

    def test_rep_validation(self):
        with pytest.raises(BadParamError):
            run_experiment(_model(), reps=0)

    def test_alpha_validation(self):
        with pytest.raises(BadParamError):
            run_experiment(_model(), reps=2, alpha=1.5)

    @pytest.mark.parametrize("alpha", [1.5, "x", None, math.nan])
    def test_alpha_gets_the_error_type_of_detect(self, alpha):
        with pytest.raises(AlphaRangeError, match="alpha="):
            run_experiment(_model(), reps=2, alpha=alpha)

    @pytest.mark.parametrize("field, value", [("reps", 2.5), ("parallelism", 1.5), ("reps", "2")])
    def test_non_integer_count_named(self, field, value):
        kwargs = {"reps": 2, field: value}
        with pytest.raises(BadParamError, match=f"{field}=.*not an integer"):
            run_experiment(_model(), **kwargs)

    @pytest.mark.parametrize("lam", [0.7, 0.0, None])
    def test_lam_checked_before_a_pool_starts(self, lam, monkeypatch):
        started = []

        def record(*args, **kwargs):
            started.append(args)
            raise AssertionError("run_experiment started work before checking lam")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
        monkeypatch.setattr(simulate, "_one_rep", record)
        with pytest.raises(BadParamError, match="lambda="):
            run_experiment(_model(), reps=4, lam=lam, parallelism=2)
        assert started == []

    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_capped_at_the_usable_cpus(self, affinity, monkeypatch):
        # The pool is replaced by one that records its size and runs the
        # jobs in this process, so that no worker process starts.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        if affinity:
            monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                                raising=False)
        else:
            monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        report = run_experiment(_model(), reps=8, parallelism=500)
        assert sizes == [3 if affinity else 2]
        _assert_same_report(report, run_experiment(_model(), reps=8, parallelism=1))

    def test_numpy_integer_counts_accepted(self):
        report = run_experiment(_model(), reps=np.int64(2), parallelism=np.int32(1))
        assert report.rep_count == 2

    def test_calibration_validation(self):
        with pytest.raises(BadParamError):
            run_experiment(_model(), reps=2, calibration="exact")

    def test_plug_in_calibration_is_the_default(self):
        default = run_experiment(_model(), reps=4)
        plug = run_experiment(_model(), reps=4, calibration="plug_in")
        assert default.methods == plug.methods
        assert np.array_equal(default.t_n_samples, plug.t_n_samples)
        assert np.array_equal(default.tau_hat_samples, plug.tau_hat_samples)

    def test_stderr_formula(self):
        report = run_experiment(_model(), reps=8)
        rate = report.rejection_rate
        assert report.mc_stderr == pytest.approx(np.sqrt(rate * (1 - rate) / 8))

    def test_localization_error_only_with_changepoint(self):
        with_cp = run_experiment(_model(), reps=3)
        assert with_cp.mean_abs_error is not None
        assert with_cp.tau_hat_samples.shape == (3, 4)
        without = run_experiment(_model(tau_star=None), reps=3)
        assert without.mean_abs_error is None
        assert without.tau_hat_samples is None

    def test_method_breakdown_complete(self):
        report = run_experiment(_model(), reps=4)
        assert set(report.methods) == {"fisher", "bonferroni", "mean_only", "cov_only"}

    def test_power_nondecreasing_in_mean_shift(self):
        rates, errs = [], []
        for i, delta1 in enumerate((0.0, 1.0, 2.0)):
            model = _model(n=100, p=40, tau_star=50, delta1=delta1, delta2=1.0,
                           seed=600 + i)
            report = run_experiment(model, reps=150)
            rates.append(report.rejection_rate)
            errs.append(report.mc_stderr)
        for i in range(2):
            slack = 2.0 * float(np.hypot(errs[i], errs[i + 1]))
            assert rates[i + 1] >= rates[i] - slack

    def test_parallelism_invariance(self):
        serial = run_experiment(_model(), reps=6, parallelism=1)
        parallel = run_experiment(_model(), reps=6, parallelism=3)
        _assert_same_report(serial, parallel)

    def test_parallelism_invariance_finite_sample(self):
        kwargs = dict(reps=6, calibration="finite_sample")
        serial = run_experiment(_model(), parallelism=1, **kwargs)
        parallel = run_experiment(_model(), parallelism=2, **kwargs)
        _assert_same_report(serial, parallel)


def _assert_same_report(a, b):
    assert a.rejection_rate == b.rejection_rate
    assert np.array_equal(a.z_mean_samples, b.z_mean_samples)
    assert np.array_equal(a.z_cov_samples, b.z_cov_samples)
    assert np.array_equal(a.t_n_samples, b.t_n_samples)
    assert np.array_equal(a.tau_hat_samples, b.tau_hat_samples)
    assert a.methods == b.methods
