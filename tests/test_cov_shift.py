"""Covariance-shift curve: sub-sum validation, oracle equivalence, invariances."""

import itertools

import numpy as np
import pytest

from cpjoint import (
    SampleTooSmallError,
    cov_stat_curve,
    gram,
)
from cpjoint.cov_shift import _sweep_terms
from conftest import random_orthogonal, rel_err
from naive import naive_cov_stat


def brute_force_terms(g, tau):
    """Every Gram sub-sum by direct index enumeration, for one prefix size."""
    n = g.shape[0]
    pre = range(tau)
    suf = range(tau, n)
    distinct = lambda *ix: len(set(ix)) == len(ix)
    out = {}
    out["pre1"] = sum(g[i, j] for i, j in itertools.permutations(pre, 2))
    out["pre2"] = sum(g[i, j] ** 2 for i, j in itertools.permutations(pre, 2))
    out["pre3"] = sum(g[i, j] * g[j, k] for i, j, k in itertools.permutations(pre, 3))
    out["pre4"] = sum(
        g[i, j] * g[k, l] for i, j, k, l in itertools.permutations(pre, 4)
    )
    out["suf1"] = sum(g[i, j] for i, j in itertools.permutations(suf, 2))
    out["suf2"] = sum(g[i, j] ** 2 for i, j in itertools.permutations(suf, 2))
    out["suf3"] = sum(g[i, j] * g[j, k] for i, j, k in itertools.permutations(suf, 3))
    out["suf4"] = sum(
        g[i, j] * g[k, l] for i, j, k, l in itertools.permutations(suf, 4)
    )
    out["cross1"] = sum(g[i, j] for i in pre for j in suf)
    out["cross2"] = sum(g[i, j] ** 2 for i in pre for j in suf)
    out["cross3_mid_suf"] = sum(
        g[i, j] * g[j, k] for i in pre for k in pre for j in suf if i != k
    )
    out["cross3_mid_pre"] = sum(
        g[i, j] * g[j, k] for i in suf for k in suf for j in pre if i != k
    )
    out["cross4"] = sum(
        g[i, j] * g[k, l]
        for i in pre for k in pre for j in suf for l in suf
        if i != k and j != l
    )
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_terms_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = 10
    g = gram(rng.standard_normal((n, 2)))
    terms = _sweep_terms(g)
    for tau in (4, 5, 6):
        expected = brute_force_terms(g, tau)
        for name, value in expected.items():
            fast = getattr(terms, name)[tau - 1]
            assert rel_err(fast, value) <= 1e-9, f"{name} at tau={tau}"


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
