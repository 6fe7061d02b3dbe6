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

Both curves come from one pass: the covariance sweep over the centered
data also yields the pair sums that define the mean curve.

Every caller runs one chain: ``_statistics`` (the calibration and both
curves), ``_outcome`` (a :class:`TestOutcome`), ``_profiles`` (the
per-split profiles at one ``lam``) and ``_decide`` (the rules of
``baselines``).  ``detect``, ``localize`` and ``baselines`` keep the last
dataset they saw (stored under the copy rule of ``data``), its statistics
and its profiles at the last ``lam`` until a call brings different bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cov_shift import CovStatResult, _cov_result, _curves
from .data import Dataset, StatCurve, _float_matrix
from .errors import (
    AlphaRangeError,
    BadParamError,
    DegenerateScaleError,
    NonFiniteValueError,
)
from .mean_shift import MeanStatResult, _mean_result
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


def _check_calibration(calibration: str) -> None:
    if calibration not in _CALIBRATIONS:
        raise BadParamError(
            f"calibration={calibration!r} is not one of {', '.join(_CALIBRATIONS)}"
        )


class _Statistics(NamedTuple):
    """What every call derives from one dataset, whatever its calibration or alpha."""

    calibration: Calibration
    mean_result: MeanStatResult
    cov_result: CovStatResult


def _statistics(data: Dataset) -> _Statistics:
    """The calibration and both curves, with overflow reported as a data-scale error."""
    n = data.n
    try:
        # The statistics are quartic and their null variances octic in the
        # data, so extreme magnitudes overflow: name the scale, do not warn.
        # The data are finite, so a non-finite curve is an overflow too.
        with np.errstate(over="raise", invalid="raise"):
            calib = calibrate(trace_sigma2_hat(data), n)
            cov_curve, mean_curve = _curves(data.values)
            return _Statistics(calib, _mean_result(mean_curve, n), _cov_result(cov_curve, n))
    except (FloatingPointError, NonFiniteValueError):
        raise DegenerateScaleError(
            f"data scale out of range: entries up to {np.abs(data.values).max():.3g} "
            "overflow the fourth and eighth powers the statistics need; rescale the data"
        ) from None


def _outcome(data: Dataset, stats: _Statistics, calibration: str, alpha: float) -> TestOutcome:
    """The O(1) tail step on top of :func:`_statistics` (O(np) more for finite_sample)."""
    calib, mean_result, cov_result = stats
    z_mean = mean_result.aggregate / math.sqrt(calib.sigma1_sq)
    z_cov = cov_result.aggregate / math.sqrt(calib.sigma2_sq)
    # One call for both scores: the normal tail costs mostly per call.
    log_p_mean, log_p_cov = normal_log_sf(np.array([z_mean, z_cov])).tolist()
    if calibration == "finite_sample":
        skew = mean_skewness(calib.trace_hat, trace_sigma3_hat(data), data.n)
        log_p_mean = skewed_log_sf(z_mean, skew)
    t_n = fisher_combine_log(log_p_mean, log_p_cov)
    # p_combined lives in (0, 1]: exactly 1 at t_n = 0, never exactly 0.
    p_combined = max(chi2_4_sf(t_n), TINY)
    return TestOutcome(
        m_n=mean_result.aggregate,
        v_n=cov_result.aggregate,
        trace_hat=calib.trace_hat,
        sigma1_sq=calib.sigma1_sq,
        sigma2_sq=calib.sigma2_sq,
        z_mean=z_mean,
        z_cov=z_cov,
        p_mean=clamp_prob(math.exp(log_p_mean)),
        p_cov=clamp_prob(math.exp(log_p_cov)),
        log_p_mean=log_p_mean,
        log_p_cov=log_p_cov,
        t_n=t_n,
        p_combined=p_combined,
        alpha=alpha,
        reject=p_combined <= alpha,
    )


class _Entry(NamedTuple):
    """The last dataset the public calls analysed, with what they derived from it."""

    dataset: Dataset
    statistics: _Statistics
    profiles: Optional[_Profiles] = None     # for the last lam asked for


# Read once per call and replaced whole, so concurrent calls can only miss.
_last_seen: Optional[_Entry] = None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 matrices are bitwise equal (so 0.0 and -0.0 differ)."""
    if a.shape != b.shape:
        return False
    a, b = a.view(np.int64), b.view(np.int64)
    # Blocks of about 64K entries, so that no n x p bool array is formed
    # (8K-entry blocks took twice as long at 200 x 5000); the first block
    # first, as data that differ almost always differ in row 0.
    rows = max(1, (1 << 16) // a.shape[1])
    return all(
        np.array_equal(a[lo : lo + rows], b[lo : lo + rows]) for lo in range(0, len(a), rows)
    )


def _entry(data) -> _Entry:
    """The stored entry for a Dataset or matrix, replaced on a miss.

    The statistics are reused while the calls see the same matrix bits, so
    the outputs are those of a fresh analysis.  The conversion of the input
    still runs on a reuse; the scan for NaN and Inf runs only on a miss:
    bits equal to the stored, validated matrix are finite.
    """
    global _last_seen
    values = data.values if isinstance(data, Dataset) else _float_matrix(data)
    entry = _last_seen
    if entry is None or not (data is entry.dataset or _same_bits(values, entry.dataset.values)):
        dataset = data if isinstance(data, Dataset) else Dataset._over(values, data)
        entry = _last_seen = _Entry(dataset, _statistics(dataset))
    return entry


def _public_profiles(entry: _Entry, lam: float) -> _Profiles:
    """The profiles of ``entry`` at ``lam``, stored with it until another lam is asked for.

    They do not depend on the calibration.
    """
    global _last_seen
    prof = entry.profiles
    if prof is None or prof.lam != lam:
        prof = _profiles(entry.statistics, lam)
        _last_seen = entry._replace(profiles=prof)
    return prof


def _strictly_inside(value, lo: float, hi: float) -> bool:
    """Whether lo < value < hi; False for a value that does not compare as a number."""
    try:
        return bool(lo < value < hi)
    except (TypeError, ValueError):
        return False


def _check_alpha(alpha: float) -> float:
    """alpha as a Python float, so that the reports hold no numpy scalars."""
    if not _strictly_inside(alpha, 0.0, 1.0):
        raise AlphaRangeError(f"alpha={alpha!r} is not a number strictly inside (0, 1)")
    return float(alpha)


def detect(data, alpha: float = 0.05, calibration: str = "plug_in") -> TestOutcome:
    """Test for a simultaneous mean/covariance change at level alpha.

    Deterministic in the data.  Raises DegenerateScaleError when the data
    carry no variation to calibrate against, or when their scale pushes the
    statistics or null variances out of the double range (the message names
    the scale).  ``calibration="finite_sample"``
    takes the mean side's p-value from the skew-matched chi-squared tail
    instead of the normal one (see the module docstring).
    """
    alpha = _check_alpha(alpha)
    _check_calibration(calibration)
    entry = _entry(data)
    return _outcome(entry.dataset, entry.statistics, calibration, alpha)


class _Grid(NamedTuple):
    lo: int
    hi: int


def _check_lam(lam: float) -> None:
    """The one rule of :func:`_search_grid` that can fail, checked before the data are read.

    For n >= 8, the smallest dataset there is, every lam in (0, 0.5)
    gives 4 <= lo <= hi <= n - 4, so the grid is never empty.
    """
    if not _strictly_inside(lam, 0.0, 0.5):
        raise BadParamError(f"lambda={lam!r} is not a number strictly inside (0, 0.5)")


def _search_grid(n: int, lam: float) -> _Grid:
    _check_lam(lam)
    margin = int(math.floor(lam * n))
    lo = max(margin, 4)
    hi = min(n - margin, n - 4)
    return _Grid(lo, hi)


class _Profiles(NamedTuple):
    lam: float
    grid: _Grid
    mean_term: np.ndarray   # -2 log p of the standardized mean curve
    cov_term: np.ndarray
    fused: np.ndarray


def _profiles(stats: _Statistics, lam: float) -> _Profiles:
    """Both standardized curves' -2 log p and their sum over the search grid.

    The curves are read through slices: the mean curve covers the splits
    2 .. n-2, the covariance curve 4 .. n-4.
    """
    n = stats.mean_result.per_tau.tau_max + 2
    lo, hi = grid = _search_grid(n, lam)
    m1 = np.arange(lo, hi + 1, dtype=np.float64)
    weight = m1 * (n - m1) / n
    scale = stats.calibration.trace_hat
    mean_std = weight * stats.mean_result.per_tau.values[lo - 2 : hi - 1] / math.sqrt(2.0 * scale)
    cov_std = weight * stats.cov_result.per_tau.values[lo - 4 : hi - 3] / (2.0 * scale)
    mean_term, cov_term = -2.0 * normal_log_sf(np.stack([mean_std, cov_std]))
    return _Profiles(lam, grid, mean_term, cov_term, mean_term + cov_term)


def _argmax_tau(grid: _Grid, values: np.ndarray) -> int:
    # np.argmax returns the first maximizer, i.e. the smallest split.
    return grid.lo + int(np.argmax(values))


def _pick_min_p(log_p_mean: float, log_p_cov: float, tau_mean: int, tau_cov: int) -> int:
    """Minimal-p localization rule; ties go to the mean-based estimate."""
    return tau_mean if log_p_mean <= log_p_cov else tau_cov


def localize(data, lam: float = 0.2) -> LocalizationOutcome:
    """Estimate the changepoint as the peak of the fused p-value profile.

    The search runs over splits in [floor(lam * n), n - floor(lam * n)]
    clamped to [4, n - 4] so both per-split statistics exist.  Ties break
    toward the smallest split.
    """
    _check_lam(lam)
    prof = _public_profiles(_entry(data), lam)
    return LocalizationOutcome(
        tau_hat=_argmax_tau(prof.grid, prof.fused),
        lam=lam,
        grid_lo=prof.grid.lo,
        grid_hi=prof.grid.hi,
        profile=StatCurve(prof.grid.lo, prof.grid.hi, prof.fused),
    )


def _decide(a: TestOutcome, prof: _Profiles) -> list[BaselineOutcome]:
    """The four decision rules of :func:`baselines`, in the order of :class:`Method`."""
    log_alpha = math.log(a.alpha)
    tau_mean = _argmax_tau(prof.grid, prof.mean_term)
    tau_cov = _argmax_tau(prof.grid, prof.cov_term)
    return [
        BaselineOutcome(Method.FISHER, a.reject, _argmax_tau(prof.grid, prof.fused)),
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
    alpha = _check_alpha(alpha)
    _check_lam(lam)
    _check_calibration(calibration)
    entry = _entry(data)
    outcome = _outcome(entry.dataset, entry.statistics, calibration, alpha)
    return _decide(outcome, _public_profiles(entry, lam))
