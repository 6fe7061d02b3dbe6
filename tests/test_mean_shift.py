"""Mean-shift curve: oracle equivalence, coefficient identity, invariances."""

import numpy as np
import pytest

from cpjoint import (
    SampleTooSmallError,
    mean_stat_curve,
)
from cpjoint import mean_shift
from cpjoint.mean_shift import _BLOCK
from conftest import random_orthogonal, rel_err
from naive import mean_coefficients, naive_mean_stat


def test_constant_rows_vanish():
    x = np.tile([2.0, -1.0], (10, 1))
    result = mean_stat_curve(x)
    assert np.array_equal(result.per_tau.values, np.zeros(7))
    assert result.aggregate == 0.0


def test_two_group_hand_example():
    # Split 2 of (0, 0, 1, 1): every tuple term is (0-1)*(0-1) = 1.
    result = mean_stat_curve(np.array([[0.0], [0.0], [1.0], [1.0]]))
    assert result.per_tau.value_at(2) == pytest.approx(1.0, rel=1e-12)


def test_minimum_sample_size():
    with pytest.raises(SampleTooSmallError):
        mean_stat_curve(np.zeros((3, 2)))


# p = 2 * _BLOCK + 3 sweeps two full column blocks and a ragged third;
# blocks of 2 columns put a ragged block after three full ones.
@pytest.mark.parametrize(
    "seed, p, block",
    [(seed, 3, _BLOCK) for seed in range(8)] + [(8, 2 * _BLOCK + 3, _BLOCK), (9, 7, 2)],
    ids=[str(seed) for seed in range(8)] + ["ragged_blocks", "blocks_of_2"],
)
def test_matches_naive_oracle(seed, p, block, monkeypatch):
    monkeypatch.setattr(mean_shift, "_BLOCK", block)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, p))
    result = mean_stat_curve(x)
    for tau in range(2, 11):
        expected = naive_mean_stat(x, tau)
        assert rel_err(result.per_tau.value_at(tau), expected) <= 1e-9


def _extended_mean_curve(x):
    """The curve from the prefix and suffix sums of the centered rows, in long double."""
    n = len(x)
    xl = x.astype(np.longdouble)
    xl -= xl.mean(axis=0)
    s = np.cumsum(xl, axis=0)
    q = np.einsum("ij,ij->i", xl, xl)
    s1 = s[1 : n - 2]
    s2 = s[-1] - s1
    within1 = np.einsum("ij,ij->i", s1, s1) - np.cumsum(q)[1 : n - 2]
    within2 = np.einsum("ij,ij->i", s2, s2) - np.cumsum(q[::-1])[::-1][2 : n - 1]
    cross = np.einsum("ij,ij->i", s1, s2)
    return mean_shift._mean_values(within1, within2, cross, mean_shift._side_sizes(2, n - 3, n))


@pytest.mark.parametrize("seed", range(4))
def test_accuracy_against_extended_precision(seed):
    # s2 is formed as total - s1 and the suffix's squared norms are summed
    # from the end: |s2|^2 expanded through the totals lost up to 6e-13 of
    # the scale here.
    x = np.random.default_rng(seed).standard_normal((2000, 50))
    exact = _extended_mean_curve(x)
    err = np.abs(mean_stat_curve(x).per_tau.values - exact).max()
    assert err <= 1e-14 * np.abs(exact).max()


def test_aggregate_is_weighted_sum():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 4))
    result = mean_stat_curve(x)
    taus = result.per_tau.taus().astype(float)
    expected = float(np.dot(taus * (30 - taus) / 30, result.per_tau.values))
    assert rel_err(result.aggregate, expected) <= 1e-10


class TestCoefficients:
    def test_empty_sum_convention(self):
        # For n = 4 both partial sums of the (1, 4) entry are empty.
        coeffs = mean_coefficients(4)
        assert coeffs[0, 3] == pytest.approx(-0.5, abs=1e-15)

    def test_strictly_upper_triangular(self):
        coeffs = mean_coefficients(9)
        assert np.array_equal(np.triu(coeffs, k=1), coeffs)

    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_pairwise_expansion_equals_aggregate(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3))
        coeffs = mean_coefficients(n)
        g = x @ x.T
        expansion = float((coeffs * g).sum())
        assert rel_err(expansion, mean_stat_curve(x).aggregate) <= 1e-9

    def test_symmetric_extension_rows_sum_to_zero(self):
        coeffs = mean_coefficients(10)
        sym = coeffs + coeffs.T
        assert np.abs(sym.sum(axis=1)).max() <= 1e-9

    def test_too_small(self):
        with pytest.raises(SampleTooSmallError):
            mean_coefficients(3)


class TestInvariances:
    def setup_method(self):
        rng = np.random.default_rng(77)
        self.x = rng.standard_normal((24, 5))
        self.base = mean_stat_curve(self.x)
        self.rng = rng

    def test_translation(self):
        shift = self.rng.standard_normal(5) * 3.0
        moved = mean_stat_curve(self.x + shift)
        scale = np.abs(self.base.per_tau.values).max()
        assert np.allclose(
            moved.per_tau.values, self.base.per_tau.values,
            rtol=1e-8, atol=1e-8 * scale,
        )
        assert rel_err(moved.aggregate, self.base.aggregate, floor=1e-8 * scale) <= 1e-8

    # One shape with n < 4p (several column blocks) and one with n >= 4p.
    @pytest.mark.parametrize("shape", [(200, 300), (2000, 50)], ids=["200x300", "2000x50"])
    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_translation_far_from_origin(self, shape, offset):
        rng = np.random.default_rng(shape[1])
        x = rng.standard_normal(shape)
        base = mean_stat_curve(x)
        rms = np.sqrt(np.mean(x * x))
        moved = mean_stat_curve(x + offset * rms * rng.standard_normal(shape[1]))
        scale = np.abs(base.per_tau.values).max()
        assert np.abs(moved.per_tau.values - base.per_tau.values).max() <= 1e-8 * scale
        assert rel_err(moved.aggregate, base.aggregate) <= 1e-8

    def test_rotation(self):
        q = random_orthogonal(5, self.rng)
        rotated = mean_stat_curve(self.x @ q)
        scale = np.abs(self.base.per_tau.values).max()
        assert np.allclose(
            rotated.per_tau.values, self.base.per_tau.values,
            rtol=1e-8, atol=1e-8 * scale,
        )

    def test_scale_equivariance_exact_for_dyadic_factor(self):
        scaled = mean_stat_curve(2.0 * self.x)
        assert np.array_equal(scaled.per_tau.values, 4.0 * self.base.per_tau.values)
        assert scaled.aggregate == 4.0 * self.base.aggregate

    def test_scale_equivariance_general_factor(self):
        scaled = mean_stat_curve(1.7 * self.x)
        assert np.allclose(
            scaled.per_tau.values, 1.7**2 * self.base.per_tau.values, rtol=1e-12
        )

    def test_group_swap_symmetry(self):
        flipped = mean_stat_curve(self.x[::-1])
        assert rel_err(flipped.per_tau.values, self.base.per_tau.values[::-1]) <= 1e-10


def test_null_monte_carlo_centered(null_mc_curves):
    m_vals, _ = null_mc_curves
    stderr = m_vals.std(ddof=1) / np.sqrt(len(m_vals))
    assert abs(m_vals.mean()) <= 4.0 * stderr


def test_signal_expectation_matches_shift_size():
    # Mean shift of squared length 1 at split 50: E of the split-50 value is 1.
    n, p, tau_star, reps = 100, 10, 50, 500
    rng = np.random.default_rng(424242)
    shift = 1.0 / np.sqrt(p)
    vals = np.empty(reps)
    for r in range(reps):
        x = rng.standard_normal((n, p))
        x[tau_star:] += shift
        vals[r] = mean_stat_curve(x).per_tau.value_at(tau_star)
    stderr = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 1.0) <= 3.0 * stderr
