"""Detection and localization pipelines and the baseline decision rules."""

import math
import warnings

import numpy as np
import pytest

from cpjoint import (
    AlphaRangeError,
    BadParamError,
    DegenerateScaleError,
    Method,
    NotAMatrixError,
    baselines,
    chi2_4_quantile,
    detect,
    fisher_combine,
    localize,
    skewed_log_sf,
    trace_sigma2_hat,
    trace_sigma3_hat,
)
from cpjoint.pipeline import _pick_min_p, _search_grid
from cpjoint.scale import mean_skewness
from conftest import rel_err


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
