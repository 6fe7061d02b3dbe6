"""Trace estimator and the plug-in variance calibration."""

import math
import tracemalloc

import numpy as np
import pytest

from cpjoint import (
    CovScenario,
    DegenerateScaleError,
    ErrorDist,
    SampleTooSmallError,
    SimulationModel,
    calibrate,
    gen_dataset,
    trace_sigma2_hat,
)
from cpjoint import scale
from cpjoint.mean_shift import _BLOCK
from cpjoint.scale import (
    COV_VAR_COEFF,
    MEAN_VAR_COEFF,
    _mean_kernel_skew,
    mean_skewness,
    trace_sigma3_hat,
)
from cpjoint.simulate import CovSpec, build_cov
from conftest import rel_err
from naive import mean_coefficients, unblocked_trace_sigma2, unblocked_trace_sigma3


def test_constant_rows_give_zero():
    assert trace_sigma2_hat(np.tile([3.0, 1.0], (9, 1))) == 0.0


def test_single_quadruple_hand_example():
    x = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    assert trace_sigma2_hat(x) == pytest.approx(0.25, rel=1e-15)


def test_minimum_sample_size():
    with pytest.raises(SampleTooSmallError):
        trace_sigma2_hat(np.zeros((3, 2)))


def test_monte_carlo_unbiased_identity_covariance():
    # tr(Sigma^2) = 20 for Sigma = I in dimension 20.
    n, p, reps = 2000, 20, 200
    rng = np.random.default_rng(321)
    vals = [trace_sigma2_hat(rng.standard_normal((n, p))) for _ in range(reps)]
    assert abs(np.mean(vals) - 20.0) <= 0.05 * 20.0


# Row blocks of one row, of two rows with a ragged end, and of the default
# size, which at p = 2 * _BLOCK + 3 and n = 700 gives three blocks.  Each
# term's row products see the same numbers as the unblocked pass, so the
# estimates agree bit for bit (numpy's einsum sums a row of up to 8192
# entries the same way however many rows a call has).
@pytest.mark.parametrize(
    "shape, budget",
    [((9, 4), 1), ((40, 7), 2 * 8 * 7), ((700, 2 * _BLOCK + 3), None)],
    ids=["one_row", "two_rows", "default"],
)
@pytest.mark.parametrize(
    "estimator, unblocked",
    [(trace_sigma2_hat, unblocked_trace_sigma2), (trace_sigma3_hat, unblocked_trace_sigma3)],
    ids=["sigma2", "sigma3"],
)
def test_row_blocks_match_unblocked_formula(estimator, unblocked, shape, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(scale, "_TRACE_BYTES", budget)
    x = np.random.default_rng(shape[0]).standard_normal(shape) + 0.5
    assert estimator(x) == unblocked(x)


class TestInvariances:
    def setup_method(self):
        rng = np.random.default_rng(99)
        self.x = rng.standard_normal((30, 6))
        self.base = trace_sigma2_hat(self.x)
        self.rng = rng

    def test_translation(self):
        shift = self.rng.standard_normal(6) * 5.0
        assert rel_err(trace_sigma2_hat(self.x + shift), self.base) <= 1e-8

    def test_scale_equivariance_exact_for_dyadic_factor(self):
        assert trace_sigma2_hat(2.0 * self.x) == 16.0 * self.base

    def test_reversal_invariance(self):
        assert rel_err(trace_sigma2_hat(self.x[::-1]), self.base) <= 1e-10


class TestTraceSigma3:
    def test_constant_rows_give_zero(self):
        assert trace_sigma3_hat(np.tile([3.0, 1.0], (9, 1))) == 0.0

    def test_minimum_sample_size(self):
        with pytest.raises(SampleTooSmallError):
            trace_sigma3_hat(np.zeros((5, 2)))

    def test_monte_carlo_unbiased_ar1(self):
        # In the manner of acceptance criterion 7: 200 AR(1) null datasets.
        n, p, reps = 2000, 50, 200
        sigma = build_cov(CovSpec(CovScenario.AR1, 0.3, 1.0), p)
        target = float(np.trace(sigma @ sigma @ sigma))
        vals = np.empty(reps)
        for r in range(reps):
            model = SimulationModel(
                n=n, p=p, tau_star=None, delta1=0.0, delta2=1.0,
                cov_scenario=CovScenario.AR1, error_dist=ErrorDist.NORMAL,
                seed=77107 + r,
            )
            vals[r] = trace_sigma3_hat(gen_dataset(model))
        assert abs(vals.mean() - target) <= 0.05 * target

    def test_scale_equivariance_exact_for_dyadic_factor(self):
        # Sigma scales by 4, so tr(Sigma^3) scales by 64, with no rounding.
        x = np.random.default_rng(98).standard_normal((30, 6))
        assert trace_sigma3_hat(2.0 * x) == 64.0 * trace_sigma3_hat(x)

    def test_translation(self):
        rng = np.random.default_rng(97)
        x = rng.standard_normal((30, 6))
        shift = rng.standard_normal(6) * 5.0
        assert rel_err(trace_sigma3_hat(x + shift), trace_sigma3_hat(x)) <= 1e-8


class TestMeanSkewness:
    def test_kernel_factor_matches_cumulant_ratio(self):
        # Direct third and second moments of the kernel's eigenvalues.
        a = mean_coefficients(40)
        eig = np.linalg.eigvalsh(a + a.T)
        expected = np.sum(eig**3) / (0.5 * np.sum(eig**2)) ** 1.5
        assert _mean_kernel_skew(40) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 5, 8, 9, 50, 200, 400, 1000])
    def test_kernel_factor_matches_dense_kernel(self, n):
        a = mean_coefficients(n)
        s = a + a.T
        dense = float(np.sum((s @ s) * s)) / (0.5 * float(np.sum(s * s))) ** 1.5
        assert rel_err(_mean_kernel_skew(n), dense) <= 1e-12

    def test_kernel_factor_memory(self):
        # The dense kernel S and S @ S alone would take 64 MB at n = 2000.
        tracemalloc.start()
        try:
            _mean_kernel_skew.__wrapped__(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    @pytest.mark.parametrize(
        "n, expected", [(2000, 2.3580246824634554), (5000, 2.361145204590332)]
    )
    def test_kernel_factor_matches_blocked_sum(self, n, expected):
        # Values of the former O(n^2) sum over 64-column blocks of S.
        assert rel_err(_mean_kernel_skew(n), expected) <= 1e-12

    def test_kernel_factor_memory_is_linear(self):
        # O(n) arrays: about 2 MB at n = 20000, where one n x 64 block of S
        # alone is 10 MB.
        tracemalloc.start()
        try:
            _mean_kernel_skew.__wrapped__(20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_kernel_factor_at_paper_size(self):
        assert _mean_kernel_skew(200) == pytest.approx(2.3127, abs=1e-4)

    def test_identity_covariance(self):
        # tr(I^3) / tr(I^2)^{3/2} = p^{-1/2}.
        assert mean_skewness(100.0, 100.0, 200) == pytest.approx(
            _mean_kernel_skew(200) / 10.0, rel=1e-15
        )


class TestCalibrate:
    def test_unit_plugin(self):
        calib = calibrate(1.0, 1)
        assert calib.sigma1_sq == pytest.approx((2 * math.pi**2 - 18) / 3, rel=1e-15)
        assert calib.sigma2_sq == pytest.approx((4 * math.pi**2 - 36) / 3, rel=1e-15)
        assert calib.sigma1_sq == pytest.approx(0.579736, abs=1e-6)
        assert calib.sigma2_sq == pytest.approx(1.159472, abs=1e-6)

    def test_closed_form_scaling(self):
        calib = calibrate(4.0, 10)
        assert calib.sigma2_sq == pytest.approx(16.0 * 100.0 * COV_VAR_COEFF, rel=1e-14)
        assert calib.sigma1_sq == pytest.approx(4.0 * 100.0 * MEAN_VAR_COEFF, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_degenerate_scale(self, bad):
        with pytest.raises(DegenerateScaleError):
            calibrate(bad, 10)
