"""Numerically stable normal tail evaluation and the Fisher p-value combiner.

Detection statistics can be standardized scores far beyond 38, where the
plain normal survival function underflows to 0 and its logarithm to -inf.
Everything here is therefore built so callers can stay in log space:
``normal_log_sf`` stays finite until the log tail itself leaves the
double range, and the combiner has an entry point that consumes log
p-values directly.
``skewed_log_sf`` is the finite-sample counterpart for a skewed score,
finite in the same way.

The normal tail rests on the standard library's ``math.erfc``, so the
plug-in analyses run on numpy and the standard library alone.  scipy
loads only for the finite-sample calibration: the gamma tail of
``skewed_log_sf`` is its one user.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NegativeInputError, NonFiniteValueError, PValueRangeError

#: The open interval (0, 1) every displayed probability is clamped into.
TINY = math.ulp(0.0)                # smallest positive double
BELOW_ONE = math.nextafter(1.0, 0.0)

# Below this upper incomplete gamma value its logarithm comes from the
# continued fraction instead, before the value loses precision to underflow.
_GAMMA_TAIL_SWITCH = 1e-300
_CF_FLOOR = 1e-300
# Below this skew the normal tail is taken: the gamma threshold
# a + sqrt(a) z, a = 4 / skew^2, resolves z only to about 4e-16 / skew,
# which outgrows the skew's own effect on the tail near 5e-8, and a
# overflows from about 1e-154 on.
_SKEW_FLOOR = 1e-8

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# From here on erfc(x / sqrt(2)) / 2 nears the bottom of the normal doubles
# (5.7e-300 at 37), and the log tail comes from the asymptotic series.
_SERIES_FROM = 37.0
# (-1)^k (2k - 1)!! for k = 6 down to 1.
_MILLS_SERIES = (10395.0, -945.0, 105.0, -15.0, 3.0, -1.0)
# Elements per block of _erfc: a block's list of Python floats takes about
# 130 KB.
_ERFC_BLOCK = 4096


def clamp_prob(p: float) -> float:
    """``p`` moved into the open interval (0, 1), as a Python float."""
    return min(max(float(p), TINY), BELOW_ONE)


def _validate_finite(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteValueError("input must be finite")
    return arr


def _erfc(v) -> np.ndarray:
    """``math.erfc`` of every element of a float64 array, in place (numpy has no erfc).

    ``v`` must be a fresh array or scalar: its elements are overwritten, a
    scalar's in a new 0-d array, which is returned.  They go through Python
    floats _ERFC_BLOCK at a time, so that beside ``v`` it holds one block's
    list, not a list of the whole input.
    """
    v = np.asarray(v)
    flat = v.ravel(order="K")                   # a view: v is dense
    for lo in range(0, v.size, _ERFC_BLOCK):
        block = flat[lo : lo + _ERFC_BLOCK].tolist()
        flat[lo : lo + len(block)] = np.fromiter(map(math.erfc, block), np.float64, len(block))
    return v


def normal_log_sf(x):
    """log(1 - Phi(x)), finite up to x of about 1.9e154.

    With q = erfc(|x| / sqrt(2)) / 2, the tail beyond |x|, the value is
    log1p(-q) for x < 0 and log(q) for 0 <= x < 37, where q is still a
    normal double.  From x = 37 on it is the Mills-ratio asymptotic series
    (Abramowitz & Stegun 26.2.12) in log space, -x^2/2 - log(x)
    - log(2 pi)/2 + log1p(s), which scipy's ``log_ndtr`` uses too.
    Wherever the result is a normal double its relative error stays within
    a few times 1e-13.  Beyond about 1.9e154
    the true value, about -x^2 / 2, is below -DBL_MAX and the correctly
    rounded result -inf is returned, without a warning.  Accepts scalars
    or arrays.
    """
    arr = _validate_finite(x)
    far = arr >= _SERIES_FROM
    # out= gives a fresh array for a scalar too, which _log_sf_erfc consumes.
    out = _log_sf_erfc(np.minimum(arr, _SERIES_FROM, out=np.empty_like(arr)))
    if far.any():       # the series' twenty-odd numpy calls cost as much on no score as on a few
        out[far] = _log_sf_series(arr[far])
    return float(out) if out.ndim == 0 else out


def _log_sf_erfc(x: np.ndarray) -> np.ndarray:
    """log(1 - Phi(x)) for x <= 37 from ``math.erfc``; overwrites ``x``."""
    below = x < 0.0
    q = np.abs(x, out=x)
    q *= _SQRT1_2
    _erfc(q)
    q *= 0.5                                    # the tail beyond |x|
    np.log(q, out=q, where=~below)
    np.negative(q, out=q, where=below)
    return np.log1p(q, out=q, where=below)


def _log_sf_series(x: np.ndarray) -> np.ndarray:
    """log(1 - Phi(x)) for x >= 37 from the asymptotic series of the Mills ratio.

    1 - Phi(x) = phi(x) / x * (1 + s) with s = sum over k >= 1 of
    (-1)^k (2k - 1)!! / x^(2k).  The terms decrease while 2k - 1 < x^2;
    from x = 37 on, every term past the sixth is below 2^-53.
    """
    inv_sq = 1.0 / x / x
    s = np.zeros_like(x)
    for coeff in _MILLS_SERIES:           # Horner's rule in 1 / x^2
        s += coeff
        s *= inv_sq
    with np.errstate(over="ignore"):      # x^2 / 2 > DBL_MAX: the log tail is -inf
        head = -0.5 * x * x
    return head - np.log(x) - _LOG_SQRT_2PI + np.log1p(s)


def _log_gammaincc_cf(a: float, x: np.ndarray) -> np.ndarray:
    """log Q(a, x) for x > a + 1, from the continued fraction of Gamma(a, x).

    Modified Lentz evaluation of the Legendre continued fraction, with the
    prefactor x^a e^{-x} / Gamma(a) taken in log space, so the result stays
    finite long after Q itself underflows.  Far in the tail, where it is
    used, it converges in a handful of terms.
    """
    from scipy.special import gammaln

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
    z = 3 / skew.  For skew below 1e-8, zero and negative skew included,
    the result is ``normal_log_sf(z)``, which the chi-squared tail tends
    to as skew -> 0.  Non-increasing in z and finite for every finite z:
    where the chi-squared tail underflows, its logarithm comes from a
    continued fraction evaluated in log space.  Accepts scalars or arrays
    for z.
    """
    arr = _validate_finite(z)
    if not math.isfinite(skew):
        raise NonFiniteValueError("skew must be finite")
    if skew < _SKEW_FLOOR:
        return normal_log_sf(arr)
    from scipy.special import gammainc, gammaincc

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
