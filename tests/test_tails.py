"""Normal tail functions, the Fisher combiner, and the chi-squared(4) laws.

Frozen reference values were computed with mpmath at 60 significant
digits through 0.5 * erfc(x / sqrt(2)) and its logarithm.
"""

import math
import warnings

import numpy as np
import pytest

from cpjoint import (
    AlphaRangeError,
    CpjointError,
    NegativeInputError,
    NonFiniteValueError,
    PValueRangeError,
    chi2_4_quantile,
    chi2_4_sf,
    fisher_combine,
    fisher_combine_log,
    normal_log_sf,
    normal_sf,
    skewed_log_sf,
)

# 0.5 * erfc(x / sqrt(2)) at 60 digits, rounded to double.
SF_1959963985 = 0.02499999997311843770082113
SF_3 = 1.349898031630094526651815e-3
LOG_SF_3 = -6.607726221510349543276077
LOG_SF_40 = -804.6084420137537881666068


class TestNormalSf:
    def test_at_zero(self):
        assert normal_sf(0.0) == 0.5

    def test_high_precision_point(self):
        assert abs(normal_sf(1.959963985) - 0.025) <= 1e-9
        assert abs(normal_sf(1.959963985) - SF_1959963985) <= 1e-12 * 0.025

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_symmetry(self, x):
        assert normal_sf(-x) == pytest.approx(1.0 - normal_sf(x), rel=1e-14)

    def test_strictly_decreasing_dense_grid(self):
        grid = np.linspace(-8.0, 8.0, 10_000)
        values = normal_sf(grid)
        # Below x ~ -7.5 consecutive exact values differ by less than one
        # ulp of 1.0, so doubles cannot be strictly ordered there.
        assert (np.diff(values) <= 0.0).all()
        resolvable = grid[:-1] >= -7.4
        assert (np.diff(values)[resolvable] < 0.0).all()

    def test_always_inside_open_interval(self):
        for x in [-500.0, -40.0, -8.0, 0.0, 8.0, 40.0, 500.0]:
            v = normal_sf(x)
            assert 0.0 < v < 1.0

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteValueError):
            normal_sf(np.nan)
        with pytest.raises(NonFiniteValueError):
            normal_sf(np.inf)

    def test_array_input(self):
        out = normal_sf(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 0.5


class TestNormalLogSf:
    def test_at_zero(self):
        assert normal_log_sf(0.0) == pytest.approx(math.log(0.5), rel=1e-15)

    def test_at_three(self):
        assert normal_log_sf(3.0) == pytest.approx(LOG_SF_3, abs=1e-9)

    def test_mills_bracket_at_ten(self):
        log_phi_over_x = -0.5 * 100.0 - math.log(10.0) - 0.5 * math.log(2 * math.pi)
        lo = log_phi_over_x + math.log(100.0 / 101.0)
        v = normal_log_sf(10.0)
        assert lo <= v <= log_phi_over_x

    @pytest.mark.parametrize("x", [8.5, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0])
    def test_mills_bracket_sweep(self, x):
        hi = -0.5 * x * x - math.log(x) - 0.5 * math.log(2 * math.pi)
        lo = hi + math.log(x * x / (1.0 + x * x))
        assert lo <= normal_log_sf(x) <= hi

    def test_finite_everywhere(self):
        for x in [-1e8, -40.0, 0.0, 8.0, 40.0, 1e4]:
            assert math.isfinite(normal_log_sf(x))
        assert normal_log_sf(40.0) == pytest.approx(LOG_SF_40, rel=1e-12)

    def test_agrees_with_log_of_sf_below_switch(self):
        grid = np.linspace(-8.0, 8.0, 2_000)
        direct = np.log(normal_sf(grid))
        # atol of one ulp of 1.0: near x = -8 the direct route rounds
        # 1 - sf(-x) before taking the log, which log_sf avoids.
        assert np.allclose(normal_log_sf(grid), direct, rtol=1e-10, atol=2.3e-16)

    def test_exp_recovers_sf(self):
        grid = np.linspace(-8.0, 8.0, 2_000)
        sf = normal_sf(grid)
        assert np.allclose(np.exp(normal_log_sf(grid)), sf, rtol=1e-10, atol=0.0)

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteValueError):
            normal_log_sf(np.nan)

    def test_huge_scores_without_warning(self):
        # -x^2 / 2 leaves the double range near x = 1.9e154: -inf is then
        # the correctly rounded value.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(normal_log_sf(1e154))
            assert normal_log_sf(1e200) == -math.inf
            assert normal_log_sf(1e300) == -math.inf


def _chi2_log_sf_oracle(z, skew):
    """log P(chi2_nu >= nu + z sqrt(2 nu)), nu = 8 / skew^2, at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(4) / mpmath.mpf(skew) ** 2
        x = a + mpmath.sqrt(a) * z
        return float(mpmath.log(mpmath.gammainc(a, x, mpmath.inf, regularized=True)))


class TestSkewedLogSf:
    @pytest.mark.parametrize("skew", [0.0, -0.3])
    def test_nonpositive_skew_is_normal(self, skew):
        grid = np.linspace(-10.0, 50.0, 601)
        assert np.array_equal(skewed_log_sf(grid, skew), normal_log_sf(grid))
        assert skewed_log_sf(1.96, skew) == normal_log_sf(1.96)

    def test_tends_to_normal_as_skew_vanishes(self):
        # The gap is first order in the skew.
        grid = np.linspace(-5.0, 5.0, 201)
        gaps = [
            np.abs(skewed_log_sf(grid, skew) - normal_log_sf(grid)).max()
            for skew in (1e-3, 1e-4, 1e-5, 1e-6)
        ]
        for skew, gap in zip((1e-3, 1e-4, 1e-5, 1e-6), gaps):
            assert gap <= 25.0 * skew
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("skew", [0.05, 0.29, 2.0])
    @pytest.mark.parametrize("z", [-1.0, 0.0, 1.96, 5.0, 40.0, 1000.0])
    def test_matches_chi2_oracle(self, skew, z):
        # z = 40 and z = 1000 reach the continued-fraction branch.
        assert skewed_log_sf(z, skew) == pytest.approx(
            _chi2_log_sf_oracle(z, skew), rel=1e-10, abs=1e-14
        )

    @pytest.mark.parametrize("skew", [0.05, 0.29, 2.0])
    def test_non_increasing(self, skew):
        grid = np.linspace(-10.0, 1000.0, 100_001)
        values = skewed_log_sf(grid, skew)
        assert (np.diff(values) <= 0.0).all()
        assert (values <= 0.0).all()

    def test_finite_at_large_scores(self):
        for z in (1000.0, 1e6):
            v = skewed_log_sf(z, 0.29)
            assert math.isfinite(v) and v < 0.0

    def test_array_and_scalar_forms(self):
        out = skewed_log_sf(np.array([0.0, 3.0]), 0.29)
        assert out.shape == (2,)
        assert out[1] == skewed_log_sf(3.0, 0.29)
        assert isinstance(skewed_log_sf(3.0, 0.29), float)

    @pytest.mark.parametrize(
        "z, skew", [(np.nan, 0.3), (np.inf, 0.3), (1.0, np.nan), (1.0, np.inf)]
    )
    def test_non_finite_input(self, z, skew):
        with pytest.raises(NonFiniteValueError) as info:
            skewed_log_sf(z, skew)
        assert isinstance(info.value, CpjointError)


class TestFisherCombine:
    def test_no_evidence_limit(self):
        eps = 1e-12
        assert fisher_combine(1.0 - eps, 1.0 - eps) == pytest.approx(0.0, abs=1e-11)

    def test_analytic_point(self):
        p = math.exp(-1.0)
        assert fisher_combine(p, p) == pytest.approx(4.0, rel=1e-14)

    def test_frozen_point(self):
        assert fisher_combine(0.05, 0.05) == pytest.approx(11.98292909421596397, abs=1e-9)

    @pytest.mark.parametrize("p", [1e-300, 1e-9, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-12])
    def test_equal_pvalues_identity(self, p):
        # -2(log p + log p) doubles exactly, so the identity is bitwise.
        assert fisher_combine(p, p) == -4.0 * math.log(p)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_range_errors(self, bad):
        with pytest.raises(PValueRangeError):
            fisher_combine(bad, 0.5)
        with pytest.raises(PValueRangeError):
            fisher_combine(0.5, bad)

    def test_log_entry_point(self):
        assert fisher_combine_log(math.log(0.05), math.log(0.2)) == pytest.approx(
            fisher_combine(0.05, 0.2), rel=1e-15
        )

    def test_log_entry_point_underflowed(self):
        # p-values around exp(-800) are not representable, their logs are.
        assert fisher_combine_log(-800.0, -1000.0) == 3600.0
        assert fisher_combine_log(-0.0, -0.0) == 0.0

    def test_log_entry_point_rejects_positive(self):
        with pytest.raises(PValueRangeError):
            fisher_combine_log(0.1, -1.0)
        with pytest.raises(PValueRangeError):
            fisher_combine_log(-np.inf, -1.0)


class TestChi2Four:
    def test_survival_at_zero(self):
        assert chi2_4_sf(0.0) == 1.0

    def test_survival_closed_form(self):
        assert chi2_4_sf(2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_survival_at_frozen_quantile(self):
        assert chi2_4_sf(9.487729036781157) == pytest.approx(0.05, abs=1e-6)

    def test_negative_input(self):
        with pytest.raises(NegativeInputError):
            chi2_4_sf(-0.5)

    def test_quantile_frozen_point(self):
        assert chi2_4_quantile(0.05) == pytest.approx(9.48773, abs=1e-4)

    def test_quantile_matches_bisection_oracle(self):
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            lo, hi = 0.0, 200.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if chi2_4_sf(mid) > alpha:
                    lo = mid
                else:
                    hi = mid
            assert chi2_4_quantile(alpha) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_quantile_near_one(self):
        assert 0.0 < chi2_4_quantile(1.0 - 1e-9) < 1e-3
        # The mpmath root of chi2_4_sf(t) = alpha at the double alpha = 1 - 1e-9.
        assert chi2_4_quantile(1.0 - 1e-9) == pytest.approx(
            8.9444051195811133e-05, rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
    def test_survival_roundtrip(self, alpha):
        assert chi2_4_sf(chi2_4_quantile(alpha)) == pytest.approx(alpha, abs=1e-10)

    def test_quantile_roundtrip_on_t_grid(self):
        for t in np.linspace(0.1, 40.0, 64):
            back = chi2_4_quantile(chi2_4_sf(float(t)))
            assert back == pytest.approx(t, abs=1e-8)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2])
    def test_quantile_range_errors(self, bad):
        with pytest.raises(AlphaRangeError):
            chi2_4_quantile(bad)
