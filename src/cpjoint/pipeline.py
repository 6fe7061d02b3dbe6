"""Detection and localization pipelines, plus the in-house baseline methods.

``detect`` answers "did anything change": it standardizes the two
aggregate statistics with their plug-in null variances, converts each to
a one-sided p-value, and fuses the pair with the Fisher combiner, whose
null distribution is chi-squared with four degrees of freedom.

``localize`` answers "where": for every candidate split it standardizes
the per-split statistics, fuses the two log p-values into a profile, and
returns the smallest maximizer.

All p-value handling happens in log space; the displayed p-values are
exponentials clamped into (0, 1).

``calibration`` chooses how the mean aggregate's score becomes a p-value.
``"plug_in"`` (the default, the paper's method) reads it off the standard
normal tail.  ``"finite_sample"`` uses the scaled chi-squared tail matched
to the aggregate's estimated null skewness, which is about 0.3 at n=200,
p=100 and makes the normal tail over-reject.  The covariance side and the
per-split profiles are the same under both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cov_shift import CovStatResult, cov_stat_curve
from .data import Dataset, StatCurve, dataset_from_matrix, gram
from .errors import AlphaRangeError, BadParamError, DegenerateScaleError, EmptyGridError
from .mean_shift import MeanStatResult, mean_stat_curve
from .scale import (
    Calibration,
    calibrate,
    mean_skewness,
    trace_sigma2_hat,
    trace_sigma3_hat,
)
from .tails import (
    TINY,
    chi2_4_sf,
    clamp_prob,
    fisher_combine_log,
    normal_log_sf,
    skewed_log_sf,
)

_CALIBRATIONS = ("plug_in", "finite_sample")


class Method(str, enum.Enum):
    """Decision rules reported by the experiment harness."""

    FISHER = "fisher"
    BONFERRONI = "bonferroni"
    MEAN_ONLY = "mean_only"
    COV_ONLY = "cov_only"


@dataclass(frozen=True)
class TestOutcome:
    """Everything produced by one run of :func:`detect`."""

    m_n: float
    v_n: float
    trace_hat: float
    sigma1_sq: float
    sigma2_sq: float
    z_mean: float
    z_cov: float
    p_mean: float
    p_cov: float
    log_p_mean: float
    log_p_cov: float
    t_n: float
    p_combined: float
    alpha: float
    reject: bool


@dataclass(frozen=True)
class LocalizationOutcome:
    """Estimated split, search-grid bounds, and the full fused profile."""

    tau_hat: int
    lam: float
    grid_lo: int
    grid_hi: int
    profile: StatCurve


@dataclass(frozen=True)
class BaselineOutcome:
    method: Method
    reject: bool
    tau_hat: Optional[int]


class _Analysis(NamedTuple):
    """Shared single-pass computation behind detect/localize/baselines."""

    n: int
    p: int
    mean_result: MeanStatResult
    cov_result: CovStatResult
    calibration: Calibration
    z_mean: float
    z_cov: float
    log_p_mean: float
    log_p_cov: float
    t_n: float
    p_combined: float


def _as_dataset(data) -> Dataset:
    return data if isinstance(data, Dataset) else dataset_from_matrix(data)


def _check_calibration(calibration: str) -> None:
    if calibration not in _CALIBRATIONS:
        raise BadParamError(
            f"calibration={calibration!r} is not one of {', '.join(_CALIBRATIONS)}"
        )


def _analyze(data: Dataset, calibration: str = "plug_in") -> _Analysis:
    _check_calibration(calibration)
    g = gram(data)
    mean_result = mean_stat_curve(data)
    cov_result = cov_stat_curve(data, g)
    calib = calibrate(trace_sigma2_hat(data), data.n)
    z_mean = mean_result.aggregate / math.sqrt(calib.sigma1_sq)
    z_cov = cov_result.aggregate / math.sqrt(calib.sigma2_sq)
    if calibration == "finite_sample":
        skew = mean_skewness(calib.trace_hat, trace_sigma3_hat(data), data.n)
        log_p_mean = skewed_log_sf(z_mean, skew)
    else:
        log_p_mean = normal_log_sf(z_mean)
    log_p_cov = normal_log_sf(z_cov)
    t_n = fisher_combine_log(log_p_mean, log_p_cov)
    # p_combined lives in (0, 1]: exactly 1 at t_n = 0, never exactly 0.
    p_combined = max(chi2_4_sf(t_n), TINY)
    return _Analysis(
        data.n, data.p, mean_result, cov_result, calib,
        z_mean, z_cov, log_p_mean, log_p_cov, t_n, p_combined,
    )


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise AlphaRangeError(f"alpha={alpha} not strictly inside (0, 1)")


def _outcome_from_analysis(a: _Analysis, alpha: float) -> TestOutcome:
    return TestOutcome(
        m_n=a.mean_result.aggregate,
        v_n=a.cov_result.aggregate,
        trace_hat=a.calibration.trace_hat,
        sigma1_sq=a.calibration.sigma1_sq,
        sigma2_sq=a.calibration.sigma2_sq,
        z_mean=a.z_mean,
        z_cov=a.z_cov,
        p_mean=clamp_prob(math.exp(a.log_p_mean)),
        p_cov=clamp_prob(math.exp(a.log_p_cov)),
        log_p_mean=a.log_p_mean,
        log_p_cov=a.log_p_cov,
        t_n=a.t_n,
        p_combined=a.p_combined,
        alpha=alpha,
        reject=a.p_combined <= alpha,
    )


def detect(data, alpha: float = 0.05, calibration: str = "plug_in") -> TestOutcome:
    """Test for a simultaneous mean/covariance change at level alpha.

    Deterministic in the data.  Raises DegenerateScaleError when the data
    carry no variation to calibrate against.  ``calibration="finite_sample"``
    takes the mean side's p-value from the skew-matched chi-squared tail
    instead of the normal one (see the module docstring).
    """
    _check_alpha(alpha)
    return _outcome_from_analysis(_analyze(_as_dataset(data), calibration), alpha)


class _Grid(NamedTuple):
    lo: int
    hi: int


def _search_grid(n: int, lam: float) -> _Grid:
    if not (0.0 < lam < 0.5):
        raise BadParamError(f"lambda={lam} not strictly inside (0, 0.5)")
    margin = int(math.floor(lam * n))
    lo = max(margin, 4)
    hi = min(n - margin, n - 4)
    if lo > hi:
        raise EmptyGridError(f"no candidate splits in [{lo}, {hi}] for n={n}")
    return _Grid(lo, hi)


class _Profiles(NamedTuple):
    grid: _Grid
    taus: np.ndarray
    mean_term: np.ndarray   # -2 log p of the standardized mean curve
    cov_term: np.ndarray
    fused: np.ndarray


def _profiles(a: _Analysis, lam: float) -> _Profiles:
    grid = _search_grid(a.n, lam)
    taus = np.arange(grid.lo, grid.hi + 1)
    weight = taus.astype(np.float64) * (a.n - taus) / a.n
    scale = a.calibration.trace_hat
    mean_std = weight * a.mean_result.per_tau.values[taus - 2] / math.sqrt(2.0 * scale)
    cov_std = weight * a.cov_result.per_tau.values[taus - 4] / (2.0 * scale)
    mean_term = -2.0 * normal_log_sf(mean_std)
    cov_term = -2.0 * normal_log_sf(cov_std)
    return _Profiles(grid, taus, mean_term, cov_term, mean_term + cov_term)


def _argmax_tau(taus: np.ndarray, values: np.ndarray) -> int:
    # np.argmax returns the first maximizer, i.e. the smallest split.
    return int(taus[int(np.argmax(values))])


def _pick_min_p(log_p_mean: float, log_p_cov: float, tau_mean: int, tau_cov: int) -> int:
    """Minimal-p localization rule; ties go to the mean-based estimate."""
    return tau_mean if log_p_mean <= log_p_cov else tau_cov


def localize(data, lam: float = 0.2) -> LocalizationOutcome:
    """Estimate the changepoint as the peak of the fused p-value profile.

    The search runs over splits in [floor(lam * n), n - floor(lam * n)]
    clamped to [4, n - 4] so both per-split statistics exist.  Ties break
    toward the smallest split.
    """
    dataset = _as_dataset(data)
    a = _analyze(dataset)
    prof = _profiles(a, lam)
    return LocalizationOutcome(
        tau_hat=_argmax_tau(prof.taus, prof.fused),
        lam=lam,
        grid_lo=prof.grid.lo,
        grid_hi=prof.grid.hi,
        profile=StatCurve(prof.grid.lo, prof.grid.hi, prof.fused),
    )


def _decide(a: _Analysis, alpha: float, lam: float) -> list[BaselineOutcome]:
    """The four decision rules of :func:`baselines`, in the order of :class:`Method`."""
    prof = _profiles(a, lam)
    log_alpha = math.log(alpha)
    tau_mean = _argmax_tau(prof.taus, prof.mean_term)
    tau_cov = _argmax_tau(prof.taus, prof.cov_term)
    return [
        BaselineOutcome(
            Method.FISHER, a.p_combined <= alpha, _argmax_tau(prof.taus, prof.fused)
        ),
        BaselineOutcome(
            Method.BONFERRONI,
            min(a.log_p_mean, a.log_p_cov) <= log_alpha - math.log(2.0),
            _pick_min_p(a.log_p_mean, a.log_p_cov, tau_mean, tau_cov),
        ),
        BaselineOutcome(Method.MEAN_ONLY, a.log_p_mean <= log_alpha, tau_mean),
        BaselineOutcome(Method.COV_ONLY, a.log_p_cov <= log_alpha, tau_cov),
    ]


def baselines(
    data, alpha: float = 0.05, lam: float = 0.2, calibration: str = "plug_in"
) -> list[BaselineOutcome]:
    """Decisions and split estimates for all four methods on one dataset.

    FISHER is the fused test and fused profile.  MEAN_ONLY and COV_ONLY
    reject on their own p-value and localize on their own profile.
    BONFERRONI rejects when min(p) <= alpha / 2 and localizes with the
    minimal-p rule, taking the mean-based estimate on ties.
    ``calibration`` is as in :func:`detect`.
    """
    _check_alpha(alpha)
    return _decide(_analyze(_as_dataset(data), calibration), alpha, lam)
