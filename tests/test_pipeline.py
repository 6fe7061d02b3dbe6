"""Detection and localization pipelines and the baseline decision rules."""

import dataclasses
import functools
import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpjoint import (
    AlphaRangeError,
    BadParamError,
    CovScenario,
    Dataset,
    DegenerateScaleError,
    ErrorDist,
    Method,
    NonFiniteValueError,
    NotAMatrixError,
    SimulationModel,
    TooFewObservationsError,
    baselines,
    detect,
    localize,
    mean_stat_curve,
    run_experiment,
    trace_sigma2_hat,
)
from cpjoint import data as data_module
from cpjoint import pipeline
from cpjoint.data import StatCurve
from cpjoint.pipeline import _pick_min_p, _search_grid
from cpjoint.scale import mean_skewness, trace_sigma3_hat
from cpjoint.tails import skewed_log_sf
from conftest import rel_err
from naive import chi2_4_quantile, fisher_combine


def _null_data(n=60, p=8, seed=5):
    return np.random.default_rng(seed).standard_normal((n, p))


def _shifted_data(n=80, p=10, tau=40, mean_shift=2.0, cov_scale=2.0, seed=9):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x[tau:] = x[tau:] * math.sqrt(cov_scale) + mean_shift / math.sqrt(p)
    return x


# Each bad input, with a fragment the error message must contain.
_NOT_MATRICES = {
    "1-d": (np.zeros(20), "ndim=1"),
    "3-d": (np.zeros((10, 2, 2)), "ndim=3"),
    "scalar": (3.0, "ndim=0"),
    "None": (None, "None"),
    "strings": ([["a", "b"]] * 10, "numeric"),
    "ragged": ([[1.0, 2.0], [3.0]] * 5, "numeric"),
    "complex": (np.ones((10, 2)) * (1.0 + 1.0j), "complex"),
}


@pytest.mark.parametrize("call", [detect, localize, baselines], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", list(_NOT_MATRICES))
def test_bad_input_raises_typed_error(call, name):
    data, cause = _NOT_MATRICES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAMatrixError, match=cause):
            call(data)


class TestDetect:
    def test_outcome_coherent(self):
        out = detect(_null_data(), alpha=0.05)
        assert out.z_mean == pytest.approx(out.m_n / math.sqrt(out.sigma1_sq), rel=1e-14)
        assert out.z_cov == pytest.approx(out.v_n / math.sqrt(out.sigma2_sq), rel=1e-14)
        assert 0.0 < out.p_mean < 1.0
        assert 0.0 < out.p_cov < 1.0
        assert 0.0 < out.p_combined <= 1.0
        assert out.t_n >= 0.0
        assert out.alpha == 0.05

    def test_fisher_identity_on_reported_pvalues(self):
        out = detect(_null_data(seed=6))
        recombined = fisher_combine(out.p_mean, out.p_cov)
        assert rel_err(out.t_n, recombined) <= 1e-12

    def test_reject_consistency(self):
        for seed in range(4):
            out = detect(_shifted_data(seed=seed), alpha=0.05)
            assert out.reject == (out.p_combined <= 0.05)
            assert out.reject == (out.t_n > chi2_4_quantile(0.05))

    def test_detects_strong_change(self):
        out = detect(_shifted_data(mean_shift=4.0, cov_scale=3.0))
        assert out.reject

    def test_deterministic(self):
        x = _null_data(seed=12)
        assert detect(x) == detect(x)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateScaleError):
            detect(np.ones((20, 3)))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_alpha_validation(self, alpha):
        with pytest.raises(AlphaRangeError):
            detect(_null_data(), alpha=alpha)

    @pytest.mark.parametrize("alpha", ["0.05", None, [0.05]])
    def test_non_numeric_alpha_named(self, alpha):
        with pytest.raises(AlphaRangeError, match=re.escape(f"alpha={alpha!r}")):
            detect(_null_data(), alpha=alpha)

    @pytest.mark.parametrize("alpha", [np.float64(0.05), np.float32(0.05)],
                             ids=["float64", "float32"])
    def test_numpy_alpha_gives_python_scalars(self, alpha):
        x = _shifted_data(mean_shift=4.0, cov_scale=3.0)
        out = detect(x, alpha=alpha)
        assert type(out.reject) is bool and type(out.alpha) is float
        assert out.alpha == float(alpha)
        json.dumps(dataclasses.asdict(out))
        rows = baselines(x, alpha=alpha)
        assert all(type(row.reject) is bool for row in rows)
        json.dumps([dataclasses.asdict(row) for row in rows])

    @pytest.mark.parametrize("lam", ["0.2", None])
    def test_non_numeric_lam_named(self, lam):
        with pytest.raises(BadParamError, match="lambda="):
            localize(_null_data(), lam=lam)

    @pytest.mark.parametrize("call", [localize, baselines], ids=["localize", "baselines"])
    @pytest.mark.parametrize("lam", [None, 0.7, 0.0])
    def test_lam_checked_before_the_analysis(self, call, lam, monkeypatch):
        analysed = []
        monkeypatch.setattr(pipeline, "_statistics", analysed.append)
        monkeypatch.setattr(pipeline, "_last_seen", None)
        with pytest.raises(BadParamError, match="lambda="):
            call(_null_data(seed=13), lam=lam)
        assert analysed == []
        assert pipeline._last_seen is None

    # 200 x 100 runs the Gram path of the covariance sweep, 400 x 20 the
    # feature-space path.
    @pytest.mark.parametrize("shape", [(200, 100), (400, 20)])
    @pytest.mark.parametrize("factor", [1e-80, 1e80])
    def test_extreme_data_scale_named(self, shape, factor):
        x = np.random.default_rng(21).standard_normal(shape) * factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateScaleError, match="data scale"):
                detect(x)


class TestCalibrationKeyword:
    def test_plug_in_is_the_default(self):
        x = _shifted_data(seed=13)
        assert detect(x, calibration="plug_in") == detect(x)
        assert baselines(x, calibration="plug_in") == baselines(x)

    @pytest.mark.parametrize("bad", ["finite", "PLUG_IN", ""])
    def test_unknown_value(self, bad):
        x = _null_data()
        with pytest.raises(BadParamError):
            detect(x, calibration=bad)
        with pytest.raises(BadParamError):
            baselines(x, calibration=bad)

    def test_finite_sample_changes_only_the_mean_tail(self):
        # At n=200, p=20 the estimated skew is about 0.5 with sd 0.2, so the
        # skewed tail (not its normal fallback) is exercised.
        x = _null_data(n=200, p=20, seed=14)
        plug = detect(x)
        fs = detect(x, calibration="finite_sample")
        assert (fs.m_n, fs.v_n, fs.z_mean, fs.z_cov, fs.log_p_cov) == (
            plug.m_n, plug.v_n, plug.z_mean, plug.z_cov, plug.log_p_cov,
        )
        skew = mean_skewness(trace_sigma2_hat(x), trace_sigma3_hat(x), 200)
        assert skew > 0.0
        assert fs.log_p_mean == skewed_log_sf(fs.z_mean, skew)
        assert rel_err(fs.t_n, fisher_combine(fs.p_mean, fs.p_cov)) <= 1e-12
        assert fs.reject == (fs.p_combined <= fs.alpha)

    def test_finite_sample_keeps_fused_localization(self):
        x = _shifted_data(seed=15)
        fisher = baselines(x, calibration="finite_sample")[0]
        assert fisher.tau_hat == localize(x).tau_hat


class TestSearchGrid:
    def test_standard_grid(self):
        grid = _search_grid(200, 0.2)
        assert (grid.lo, grid.hi) == (40, 160)

    def test_clamped_to_cov_range(self):
        # floor(0.05 * 10) = 0 clamps to [4, 6].
        grid = _search_grid(10, 0.05)
        assert (grid.lo, grid.hi) == (4, 6)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.7, -0.1])
    def test_lambda_validation(self, lam):
        with pytest.raises(BadParamError):
            _search_grid(100, lam)

    @settings(max_examples=200)
    @given(
        n=st.integers(8, 10**6),
        lam=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    )
    @example(n=8, lam=math.nextafter(0.5, 0.0))     # the tightest grid: [4, 4]
    def test_grid_is_never_empty(self, n, lam):
        # n >= 8 is the smallest Dataset, so no call can meet an empty grid.
        lo, hi = _search_grid(n, lam)
        assert 4 <= lo <= hi <= n - 4


class TestLocalize:
    def test_profile_shape_and_sign(self):
        out = localize(_shifted_data(), lam=0.2)
        assert out.grid_lo == 16 and out.grid_hi == 64
        assert len(out.profile) == out.grid_hi - out.grid_lo + 1
        assert (out.profile.values >= 0.0).all()
        assert out.grid_lo <= out.tau_hat <= out.grid_hi

    def test_tau_hat_is_smallest_maximizer(self):
        out = localize(_shifted_data(seed=2))
        values = out.profile.values
        best = values.max()
        first = out.grid_lo + int(np.flatnonzero(values == best)[0])
        assert out.tau_hat == first

    def test_finds_strong_changepoint(self):
        out = localize(_shifted_data(mean_shift=4.0, cov_scale=3.0), lam=0.2)
        assert abs(out.tau_hat - 40) <= 3

    @pytest.mark.parametrize("c", [0.1, 1.0, 7.0, 100.0])
    def test_scale_invariant_argmax(self, c):
        x = _shifted_data(seed=3)
        assert localize(c * x).tau_hat == localize(x).tau_hat

    def test_reversal_maps_maximizer_set(self):
        x = _shifted_data(seed=4)
        n = x.shape[0]
        fwd = localize(x)
        rev = localize(x[::-1])
        tol = 1e-8 * max(fwd.profile.values.max(), 1.0)
        fwd_set = {
            int(t) for t, v in zip(fwd.profile.taus(), fwd.profile.values)
            if v >= fwd.profile.values.max() - tol
        }
        rev_set = {
            int(t) for t, v in zip(rev.profile.taus(), rev.profile.values)
            if v >= rev.profile.values.max() - tol
        }
        assert rev_set == {n - t for t in fwd_set}

    def test_degenerate_data(self):
        with pytest.raises(DegenerateScaleError):
            localize(np.zeros((20, 2)))


class TestBaselines:
    def test_all_methods_reported(self):
        outcomes = baselines(_shifted_data(), alpha=0.05, lam=0.2)
        assert [o.method for o in outcomes] == [
            Method.FISHER, Method.BONFERRONI, Method.MEAN_ONLY, Method.COV_ONLY,
        ]
        for o in outcomes:
            assert o.tau_hat is not None

    def test_fisher_matches_detect_and_localize(self):
        x = _shifted_data(seed=7)
        fisher = baselines(x)[0]
        assert fisher.reject == detect(x).reject
        assert fisher.tau_hat == localize(x).tau_hat

    def test_bonferroni_rule(self):
        x = _shifted_data(seed=8)
        out = detect(x, alpha=0.05)
        bonf = baselines(x, alpha=0.05)[1]
        assert bonf.reject == (min(out.p_mean, out.p_cov) <= 0.025)

    def test_single_statistic_rules(self):
        x = _shifted_data(seed=9)
        out = detect(x, alpha=0.05)
        _, _, mean_only, cov_only = baselines(x, alpha=0.05)
        assert mean_only.reject == (out.p_mean <= 0.05)
        assert cov_only.reject == (out.p_cov <= 0.05)

    def test_min_p_tie_goes_to_mean_estimate(self):
        assert _pick_min_p(-2.0, -2.0, 17, 23) == 17
        assert _pick_min_p(-3.0, -2.0, 17, 23) == 17
        assert _pick_min_p(-2.0, -3.0, 17, 23) == 23

    def test_identity_null_size_in_reported_band(self):
        # 1000 i.i.d. N(0, I) datasets at n=200, p=100: the fused test's
        # rejection frequency at the 5% level.
        reps, n, p = 1000, 200, 100
        rng = np.random.default_rng(90210)
        rejects = 0
        for _ in range(reps):
            rejects += detect(rng.standard_normal((n, p)), alpha=0.05).reject
        assert 0.042 <= rejects / reps <= 0.066

    def test_pure_mean_shift_favors_mean_method(self):
        # Strong mean shift, no covariance change: over seeds the mean-only
        # method should reject at least as often as the cov-only method.
        mean_rejects = cov_rejects = 0
        for seed in range(30):
            x = _shifted_data(mean_shift=3.0, cov_scale=1.0, seed=seed)
            _, _, mean_only, cov_only = baselines(x)
            mean_rejects += mean_only.reject
            cov_rejects += cov_only.reject
        assert mean_rejects >= cov_rejects
        assert mean_rejects >= 25


class TestFarFromTheOrigin:
    """An offset of 10^6 times the data's RMS leaves scores and decisions alone."""

    @staticmethod
    def _moved(x, rng, c=1e6):
        rms = np.sqrt(np.mean(x * x))
        return x + c * rms * rng.uniform(-1.0, 1.0, x.shape[1])

    # Gram path (n < 4p) at the first three shapes, feature path at the last.
    @pytest.mark.parametrize(
        "shape", [(200, 100), (400, 200), (200, 5000), (2000, 50)],
        ids=["200x100", "400x200", "200x5000", "2000x50"],
    )
    def test_decisions_unchanged(self, shape):
        n, p = shape
        rng = np.random.default_rng(n + p)
        x = _shifted_data(n=n, p=p, tau=n // 3, seed=n + p)
        moved = self._moved(x, rng)
        base, far = detect(x), detect(moved)
        assert abs(far.z_mean - base.z_mean) <= 1e-8
        assert abs(far.z_cov - base.z_cov) <= 1e-8
        assert far.reject == base.reject
        assert localize(moved).tau_hat == localize(x).tau_hat
        assert ([(b.reject, b.tau_hat) for b in baselines(moved)]
                == [(b.reject, b.tau_hat) for b in baselines(x)])

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(3, 40),
        row_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        log_c=st.floats(0.0, 6.0),
    )
    def test_gram_path_z_scores(self, p, row_frac, seed, log_c):
        # n from 8 up to 4p - 1: always the Gram path.
        n = 8 + int(row_frac * (4 * p - 9))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        base, far = detect(x), detect(self._moved(x, rng, 10.0**log_c))
        assert abs(far.z_mean - base.z_mean) <= 1e-8
        assert abs(far.z_cov - base.z_cov) <= 1e-8


# Around the path switch at n = 4p, and a wide shape with column blocks.
@pytest.mark.parametrize(
    "shape", [(119, 30), (120, 30), (121, 30), (200, 5000)],
    ids=["4p-1", "4p", "4p+1", "200x5000"],
)
def test_fused_mean_curve_matches_mean_stat_curve(shape):
    x = _shifted_data(n=shape[0], p=shape[1], tau=shape[0] // 2, seed=shape[1])
    _, fused, _ = pipeline._statistics(Dataset(x))
    alone = mean_stat_curve(x)
    assert (fused.per_tau.tau_min, fused.per_tau.tau_max) == (2, shape[0] - 2)
    assert np.array_equal(fused.per_tau.values, alone.per_tau.values)
    assert fused.aggregate == alone.aggregate


def _bits(out):
    """A bitwise-exact image of an outcome or a list of outcomes."""
    if isinstance(out, list):
        return [_bits(o) for o in out]
    image = []
    for field in dataclasses.fields(out):
        value = getattr(out, field.name)
        if isinstance(value, StatCurve):
            value = (value.tau_min, value.tau_max, value.values.tobytes())
        elif isinstance(value, (float, np.floating)):
            value = np.float64(value).tobytes()
        image.append(value)
    return image


_CALLS = {
    "detect": detect,
    "detect_finite_sample": functools.partial(detect, calibration="finite_sample"),
    "localize": localize,
    "baselines": baselines,
}


def _cold(call, data):
    """``call(data)`` with no stored analysis to reuse."""
    pipeline._last_seen = None
    return call(data)


class TestSharedAnalysis:
    """detect, localize and baselines reuse one analysis of identical data."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        """The datasets ``pipeline._statistics`` is called on, from a cold start."""
        seen = []
        statistics = pipeline._statistics

        def counted(data):
            seen.append(data)
            return statistics(data)

        monkeypatch.setattr(pipeline, "_statistics", counted)
        monkeypatch.setattr(pipeline, "_last_seen", None)
        return seen

    def test_quickstart_sequence_analyses_once(self, analyses):
        x = _shifted_data(seed=31)
        detect(x)
        localize(x)
        baselines(x)
        assert len(analyses) == 1
        detect(x, calibration="finite_sample")
        baselines(x, calibration="finite_sample")
        assert len(analyses) == 1

    def test_quickstart_sequence_computes_profiles_once(self, analyses, monkeypatch):
        lams = []
        profiles = pipeline._profiles

        def counted(a, lam):
            lams.append(lam)
            return profiles(a, lam)

        monkeypatch.setattr(pipeline, "_profiles", counted)
        x = _shifted_data(seed=43)
        detect(x)
        localize(x)
        baselines(x)
        assert lams == [0.2]
        localize(x, lam=0.3)
        baselines(x, lam=0.3)
        assert lams == [0.2, 0.3]

    def test_quickstart_sequence_checks_finiteness_once(self, analyses, monkeypatch):
        checked = []
        finite_matrix = data_module._finite_matrix

        def counted(values):
            checked.append(values)
            return finite_matrix(values)

        monkeypatch.setattr(data_module, "_finite_matrix", counted)
        x = _shifted_data(seed=44)
        detect(x)
        localize(x)
        baselines(x)
        assert len(checked) == len(analyses) == 1

    @pytest.mark.parametrize("name", list(_CALLS))
    def test_reuse_is_bitwise_a_cold_call(self, analyses, name):
        x = _shifted_data(n=200, p=20, seed=32)
        for warm_up in _CALLS.values():
            warm_up(x)
        warm = _CALLS[name](x)
        assert len(analyses) == 1
        assert _bits(warm) == _bits(_cold(_CALLS[name], x))

    @pytest.mark.parametrize("row", [0, 57])
    def test_array_changed_in_place(self, analyses, row):
        x = _shifted_data(seed=33)
        detect(x)
        x[row, 3] += 0.5
        for call in _CALLS.values():
            assert _bits(call(x)) == _bits(_cold(call, x))
        assert len(analyses) == 1 + 1 + len(_CALLS)

    @pytest.mark.parametrize("row", [0, 57])
    def test_signed_zero_is_different_data(self, analyses, row):
        x = _shifted_data(seed=34)
        x[row, 2] = 0.0
        localize(x)
        x[row, 2] = -0.0
        warm = localize(x)
        assert len(analyses) == 2
        assert _bits(warm) == _bits(_cold(localize, x))

    def test_dataset_and_equal_array_share_the_entry(self, analyses):
        x = _shifted_data(seed=35)
        data = Dataset(x)
        detect(data)
        warm = localize(x)
        assert len(analyses) == 1
        assert analyses[0] is data
        assert _bits(warm) == _bits(_cold(localize, data))
        assert _bits(baselines(Dataset(x))) == _bits(_cold(baselines, x))
        assert len(analyses) == 3

    def test_a_miss_validates_once(self, analyses, monkeypatch):
        checked = []
        finite_matrix = data_module._finite_matrix

        def counted(values):
            checked.append(values)
            return finite_matrix(values)

        monkeypatch.setattr(data_module, "_finite_matrix", counted)
        x = _shifted_data(seed=39)
        detect(x)
        assert len(checked) == len(analyses) == 1
        with pytest.raises(TooFewObservationsError):
            detect(x[:7])
        with pytest.raises(TooFewObservationsError):
            Dataset(x[:7])

    def test_other_shape_is_analysed(self, analyses):
        x = _shifted_data(seed=36)
        detect(x)
        detect(x[:-1])
        detect(x[:, :-1])
        assert len(analyses) == 3

    def test_nan_after_a_stored_analysis(self, analyses):
        x = _shifted_data(seed=37)
        detect(x)
        x[5, 1] = math.nan
        for call in _CALLS.values():
            with pytest.raises(NonFiniteValueError):
                call(x)
        assert len(analyses) == 1

    def test_checks_run_on_a_reuse(self, analyses):
        x = _shifted_data(seed=38)
        detect(x)
        with pytest.raises(AlphaRangeError):
            detect(x, alpha=1.5)
        with pytest.raises(BadParamError):
            baselines(x, calibration="finite")
        with pytest.raises(BadParamError):
            localize(x, lam=0.7)
        assert len(analyses) == 1

    @staticmethod
    def _hammer(calls):
        """Four threads run the (call, data) pairs round robin: (calls done, wrong ones)."""
        want = [_bits(_cold(call, x)) for call, x in calls]
        done, wrong = [], []

        def work(offset):
            for i in range(200):
                k = (i + offset) % len(calls)
                call, x = calls[k]
                if _bits(call(x)) != want[k]:
                    wrong.append(k)
                done.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return len(done), wrong

    def test_threads_never_mix_entries(self):
        xs = [_shifted_data(n=40, p=4, seed=seed) for seed in (40, 41)]
        assert self._hammer([(detect, x) for x in xs]) == (800, [])

    def test_threads_never_mix_profiles(self):
        # Two datasets and two lams: a stored profile must match both.
        xs = [_shifted_data(n=40, p=4, seed=seed) for seed in (45, 46)]
        calls = [(functools.partial(localize, lam=lam), x) for x in xs for lam in (0.2, 0.3)]
        calls += [(functools.partial(baselines, lam=0.3), x) for x in xs]
        assert self._hammer(calls) == (800, [])

    def test_run_experiment_leaves_the_entry_alone(self, monkeypatch):
        class Unreadable(tuple):
            def __getitem__(self, index):
                raise AssertionError("run_experiment read the stored analysis")

        stored = Unreadable()
        monkeypatch.setattr(pipeline, "_last_seen", stored)
        model = SimulationModel(
            n=40, p=5, tau_star=20, delta1=1.0, delta2=2.0,
            cov_scenario=CovScenario.AR1, error_dist=ErrorDist.NORMAL, seed=39,
        )
        run_experiment(model, 3)
        assert pipeline._last_seen is stored
