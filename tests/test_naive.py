"""The reference implementations themselves: hand examples and guard rails."""

import numpy as np
import pytest

from cpjoint.errors import NotSymmetricError
from naive import TauRangeError, naive_cov_stat, naive_mean_stat, naive_trace_sq


class TestNaiveMean:
    def test_constant_data(self):
        assert naive_mean_stat(np.ones((8, 2)), 4) == 0.0

    def test_hand_enumeration(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        assert naive_mean_stat(x, 2) == pytest.approx(1.0, rel=1e-15)

    def test_tau_bounds(self):
        x = np.zeros((10, 2))
        with pytest.raises(TauRangeError):
            naive_mean_stat(x, 1)
        with pytest.raises(TauRangeError):
            naive_mean_stat(x, 9)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            naive_mean_stat(np.zeros((25, 2)), 10)


class TestNaiveCov:
    def test_constant_data(self):
        assert naive_cov_stat(np.ones((10, 2)), 5) == 0.0

    def test_tau_bounds(self):
        x = np.zeros((12, 1))
        with pytest.raises(TauRangeError):
            naive_cov_stat(x, 3)
        with pytest.raises(TauRangeError):
            naive_cov_stat(x, 9)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            naive_cov_stat(np.zeros((17, 1)), 8)


class TestNaiveTraceSq:
    def test_identity(self):
        assert naive_trace_sq(np.eye(6)) == 6.0

    def test_scaled_identity(self):
        assert naive_trace_sq(2.0 * np.eye(3)) == 12.0

    def test_ar1_matches_independent_double_loop(self):
        p, rho = 4, 0.3
        sigma = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p))).astype(float)
        total = 0.0
        for i in range(p):
            for j in range(p):
                total += sigma[i, j] * sigma[i, j]
        assert naive_trace_sq(sigma) == pytest.approx(total, rel=1e-15)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            naive_trace_sq(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetricError):
            naive_trace_sq(np.zeros((2, 3)))
