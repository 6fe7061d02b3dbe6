"""Observation matrices, Gram matrices, and per-split statistic curves.

Only this module decides when an input array is copied (:func:`_stored`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValueError, NotAMatrixError, TooFewObservationsError

# Smallest usable sample: both statistic curves and the consecutive-difference
# trace estimator need at least 8 rows.
MIN_OBSERVATIONS = 8


def _float_matrix(values) -> np.ndarray:
    """values as a 2-d float64 array, or a typed error that names the fault.

    Not checked for NaN or Inf: :func:`_finite_matrix` adds that scan.
    """
    if values is None:
        raise NotAMatrixError("expected a 2-d numeric matrix, got None")
    try:
        values = np.asarray(values)
    except ValueError as exc:           # ragged nesting
        raise NotAMatrixError(f"expected a 2-d numeric matrix: {exc}") from None
    # Refused before the cast, which would drop the imaginary part.
    if values.dtype.kind == "c":
        raise NotAMatrixError("complex values are not supported; pass a real matrix")
    try:
        values = values.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise NotAMatrixError(f"expected a numeric matrix: {exc}") from None
    if values.ndim != 2:
        raise NotAMatrixError(f"expected a 2-d matrix, got ndim={values.ndim}")
    if values.shape[1] == 0:
        raise NotAMatrixError(f"expected at least one column, got shape {values.shape}")
    return values


def _finite_matrix(values) -> np.ndarray:
    """values as a finite 2-d float64 array, or a typed error that names the fault."""
    values = _float_matrix(values)
    # Blocks of about 64K entries, as in the reuse check of the pipeline, so
    # that no n x p bool array is formed: an eighth of the data, 20 MB at
    # 10^6 x 20.
    rows = max(1, (1 << 16) // values.shape[1])
    if not all(np.isfinite(values[lo : lo + rows]).all() for lo in range(0, len(values), rows)):
        raise NonFiniteValueError("observation matrix contains NaN or Inf")
    return values


def _stored(values: np.ndarray, source) -> np.ndarray:
    """``values`` ready to store: enough rows, read-only and C-ordered.

    ``values`` is what :func:`_finite_matrix` made of ``source``.  It is
    copied unless it is C-ordered and nothing else can write it: converting
    ``source`` made it (a list, or an array it shares no memory with), or
    ``source`` is None because the caller built it.
    """
    if values.shape[0] < MIN_OBSERVATIONS:
        raise TooFewObservationsError(
            f"need at least {MIN_OBSERVATIONS} observations, got {values.shape[0]}"
        )
    if isinstance(source, np.ndarray):
        private = not np.may_share_memory(values, source)
    else:
        private = source is None or isinstance(source, (list, tuple))
    if not (values.flags.c_contiguous and private):
        values = values.copy()
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Dataset:
    """A validated n x p observation matrix, one row per time-ordered observation.

    Instances are immutable: the stored array is marked read-only so a
    Dataset can be shared across threads without copying.  It is the
    caller's array only when nothing else can write it (see :func:`_stored`).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _stored(_finite_matrix(self.values), self.values))

    @classmethod
    def _over(cls, values, source=None) -> "Dataset":
        """A Dataset over ``values``, converted from ``source`` or, if None, built by the caller."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "values", _stored(_finite_matrix(values), source))
        return dataset

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def dataset_from_matrix(values) -> Dataset:
    """Validate an array-like of shape (n, p) and wrap it as a Dataset.

    Pure validation: accepted values are stored bit-for-bit.
    """
    return Dataset(values)


def as_matrix(data) -> np.ndarray:
    """Return the observation matrix behind a Dataset or 2-d array-like."""
    if isinstance(data, Dataset):
        return data.values
    return _finite_matrix(data)


def gram(data) -> np.ndarray:
    """Pairwise inner products g[i, j] = x_i . x_j of all observation rows.

    The result is exactly symmetric as stored, g[i, j] == g[j, i] bitwise:
    on a contiguous array numpy evaluates ``x @ x.T`` with BLAS syrk, which
    computes one triangle and copies it into the other.  Strided or
    unaligned arrays would take numpy's own loop, which is not symmetric,
    so they are copied to contiguous aligned memory first.  Cost O(n^2 p).
    """
    x = np.require(as_matrix(data), requirements=("C", "A"))
    return x @ x.T


@dataclass(frozen=True)
class StatCurve:
    """Statistic values over an inclusive integer range of candidate splits."""

    tau_min: int
    tau_max: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        expected = self.tau_max - self.tau_min + 1
        if values.ndim != 1 or values.shape[0] != expected:
            raise ValueError(
                f"curve over [{self.tau_min}, {self.tau_max}] needs {expected} "
                f"values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise NonFiniteValueError("statistic curve contains NaN or Inf")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def taus(self) -> np.ndarray:
        """The candidate splits covered by the curve."""
        return np.arange(self.tau_min, self.tau_max + 1)

    def value_at(self, tau: int) -> float:
        """Curve value at split ``tau``."""
        if not self.tau_min <= tau <= self.tau_max:
            raise IndexError(
                f"tau={tau} outside curve range [{self.tau_min}, {self.tau_max}]"
            )
        return float(self.values[tau - self.tau_min])

    def __len__(self) -> int:
        return self.values.shape[0]
