"""Numerically stable normal tail evaluation and the Fisher p-value combiner.

Detection statistics can be standardized scores far beyond 38, where the
plain normal survival function underflows to 0 and its logarithm to -inf.
Everything here is therefore built so callers can stay in log space:
``normal_log_sf`` stays finite until the log tail itself leaves the
double range, and the combiner has an entry point that consumes log
p-values directly.
``skewed_log_sf`` is the finite-sample counterpart for a skewed score,
finite in the same way.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chdtri, gammainc, gammaincc, gammaln, log_ndtr, ndtr

from .errors import (
    AlphaRangeError,
    NegativeInputError,
    NonFiniteValueError,
    PValueRangeError,
)

#: The open interval (0, 1) every displayed probability is clamped into.
TINY = math.ulp(0.0)                # smallest positive double
BELOW_ONE = math.nextafter(1.0, 0.0)

# Below this upper incomplete gamma value its logarithm comes from the
# continued fraction instead, before the value loses precision to underflow.
_GAMMA_TAIL_SWITCH = 1e-300
_CF_FLOOR = 1e-300


def clamp_prob(p: float) -> float:
    """``p`` moved into the open interval (0, 1), as a Python float."""
    return min(max(float(p), TINY), BELOW_ONE)


def _validate_finite(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("input must be finite")
    return arr


def normal_sf(x):
    """Upper tail 1 - Phi(x) of the standard normal, always inside (0, 1).

    scipy's ``ndtr(-x)``, accurate to a few ulps while the value is a
    normal double, clamped away from exact 0 and 1.  From x of about 37.7
    on, where the exact tail is below 6e-311, ``ndtr`` returns 0 and the
    result is the smallest positive double; ``normal_log_sf`` stays exact
    there.  Accepts scalars or arrays.
    """
    out = np.clip(ndtr(-_validate_finite(x)), TINY, BELOW_ONE)
    return float(out) if out.ndim == 0 else out


def normal_log_sf(x):
    """log(1 - Phi(x)), from scipy's ``log_ndtr(-x)``.

    Accurate to a few ulps and finite up to x of about 1.9e154, so scores
    in the hundreds still produce a usable log tail.  Beyond that the true
    value, about -x^2 / 2, is below -DBL_MAX and the correctly rounded
    result -inf is returned, without a warning.  Accepts scalars or arrays.
    """
    out = log_ndtr(-_validate_finite(x))
    return float(out) if out.ndim == 0 else out


def _log_gammaincc_cf(a: float, x: np.ndarray) -> np.ndarray:
    """log Q(a, x) for x > a + 1, from the continued fraction of Gamma(a, x).

    Modified Lentz evaluation of the Legendre continued fraction, with the
    prefactor x^a e^{-x} / Gamma(a) taken in log space, so the result stays
    finite long after Q itself underflows.  Far in the tail, where it is
    used, it converges in a handful of terms.
    """
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _CF_FLOOR)
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _CF_FLOOR, _CF_FLOOR, d)
        c = b + an / c
        c = np.where(np.abs(c) < _CF_FLOOR, _CF_FLOOR, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if (np.abs(delta - 1.0) <= 1e-15).all():
            break
    return a * np.log(x) - x - gammaln(a) + np.log(h)


def skewed_log_sf(z, skew: float):
    """log P(Z >= z) for a standardized score Z with skewness ``skew``.

    Z is taken as the standardized scaled chi-squared law with the same
    first three cumulants, the classical approximation of a Gaussian
    quadratic form (Imhof 1961; Zhang 2005): nu = 8 / skew^2 degrees of
    freedom and P(Z >= z) = P(chi2_nu >= nu + z sqrt(2 nu)).  The raw
    Cornish-Fisher polynomial is not used because it turns over near
    z = 3 / skew.  For skew <= 0 the result is ``normal_log_sf(z)``; as
    skew -> 0 it tends to it.  Non-increasing in z and finite for every
    finite z: where the chi-squared tail underflows, its logarithm comes
    from a continued fraction evaluated in log space.  Accepts scalars or
    arrays for z.
    """
    arr = _validate_finite(z)
    if not math.isfinite(skew):
        raise NonFiniteValueError("skew must be finite")
    if skew <= 0.0:
        return normal_log_sf(arr)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # chi2_nu / 2 is Gamma(a) with a = nu / 2; the threshold halves with it.
    a = 4.0 / (skew * skew)
    x = a + math.sqrt(a) * arr
    out = np.zeros_like(arr)            # x <= 0: the whole law lies above
    pos = x > 0.0
    xp = x[pos]
    lower = gammainc(a, xp)
    upper = gammaincc(a, xp)
    near = lower < 0.5                  # log1p keeps precision close to 1
    far = ~near & (upper < _GAMMA_TAIL_SWITCH)
    mid = ~near & ~far
    vals = np.empty_like(xp)
    vals[near] = np.log1p(-lower[near])
    vals[mid] = np.log(upper[mid])
    if far.any():
        vals[far] = _log_gammaincc_cf(a, xp[far])
    out[pos] = vals
    return float(out[0]) if scalar else out


def fisher_combine(p_mean: float, p_cov: float) -> float:
    """Fisher combination -2 log(p_mean) - 2 log(p_cov) of two p-values."""
    for name, p in (("p_mean", p_mean), ("p_cov", p_cov)):
        if not (0.0 < p < 1.0):
            raise PValueRangeError(f"{name}={p} not strictly inside (0, 1)")
    return -2.0 * (math.log(p_mean) + math.log(p_cov))


def fisher_combine_log(log_p_mean: float, log_p_cov: float) -> float:
    """Fisher combination from log p-values, immune to p-value underflow.

    Accepts any finite log p <= 0 (log p == -0.0 corresponds to a p-value
    rounded up to 1).
    """
    for name, lp in (("log_p_mean", log_p_mean), ("log_p_cov", log_p_cov)):
        if not (math.isfinite(lp) and lp <= 0.0):
            raise PValueRangeError(f"{name}={lp} is not a finite log p-value")
    return -2.0 * (log_p_mean + log_p_cov)


def chi2_4_sf(t: float) -> float:
    """Survival function exp(-t/2) * (1 + t/2) of the chi-squared(4) law."""
    if not math.isfinite(t):
        raise NonFiniteValueError("t must be finite")
    if t < 0.0:
        raise NegativeInputError(f"t={t} must be nonnegative")
    # Same closed form, evaluated in log space so large t degrades gracefully.
    return math.exp(-0.5 * t + math.log1p(0.5 * t))


def chi2_4_quantile(alpha: float) -> float:
    """The t with chi2_4_sf(t) = alpha, from scipy's ``chdtri``."""
    if not (0.0 < alpha < 1.0):
        raise AlphaRangeError(f"alpha={alpha} not strictly inside (0, 1)")
    return float(chdtri(4, alpha))
