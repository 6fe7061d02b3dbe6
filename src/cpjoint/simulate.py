"""Synthetic data generation and the Monte Carlo experiment harness.

Data follow a two-segment model: rows up to the changepoint are centered
with a fixed covariance, rows after it get a dense mean shift of total
size delta1 and a covariance rescaled by delta2.  Two covariance designs
are built in: an AR(1)-correlated matrix (correlation 0.3 before the
change, 0.5 after) and a block-diagonal matrix with blocks of five
(within-block correlation 0.3 before, 0.5 after).

Replications are seeded by mixing the experiment seed with the
replication index through a 64-bit finalizer, so a run is reproducible
and independent of how it is parallelized.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import os
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from .data import Dataset
from .errors import BadParamError, NonFiniteValueError, NotPSDError, NotSymmetricError
from .pipeline import (
    Method,
    _check_alpha,
    _check_calibration,
    _check_lam,
    _decide,
    _outcome,
    _profiles,
    _statistics,
)

_MASK64 = (1 << 64) - 1

#: Base correlations of the pre- and post-change covariance designs.
_PRE_CORR = 0.3
_POST_CORR = 0.5


class CovScenario(str, enum.Enum):
    AR1 = "ar1"
    BLOCK5 = "block5"


class ErrorDist(str, enum.Enum):
    NORMAL = "normal"
    T9_STANDARDIZED = "t9"


def _as_int(value, field: str) -> int:
    """``value`` as an int, numpy integers included, or a BadParamError naming ``field``."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParamError(f"{field}={value!r} is not an integer") from None


def _as_member(spec, field: str, kind: type[enum.Enum]) -> None:
    """Store ``spec.field`` as a member of ``kind``: a member's string value selects it."""
    value = getattr(spec, field)
    try:
        object.__setattr__(spec, field, kind(value))
    except ValueError:
        choices = ", ".join(repr(m.value) for m in kind)
        raise BadParamError(f"{field}={value!r} is not one of {choices}") from None


@dataclass(frozen=True)
class CovSpec:
    """One covariance design: base structure, correlation, and scale."""

    scenario: CovScenario
    corr: float
    scale: float

    def __post_init__(self) -> None:
        _as_member(self, "scenario", CovScenario)
        if not -1.0 < self.corr < 1.0:
            raise BadParamError(f"correlation {self.corr} outside (-1, 1)")
        if not 0.0 < self.scale < math.inf:
            raise BadParamError(f"scale {self.scale} must be positive and finite")


@dataclass(frozen=True)
class SimulationModel:
    """Parameters of one synthetic-data design.

    ``tau_star=None`` means no change: every row comes from the
    pre-change distribution and ``delta1``/``delta2`` are ignored.
    """

    n: int
    p: int
    tau_star: Optional[int]
    delta1: float
    delta2: float
    cov_scenario: CovScenario
    error_dist: ErrorDist
    seed: int

    def __post_init__(self) -> None:
        ints = ("n", "p", "seed") if self.tau_star is None else ("n", "p", "tau_star", "seed")
        for name in ints:
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        for name, size in (("n", self.n), ("p", self.p)):
            if size < 1:
                raise BadParamError(f"{name}={size} must be at least 1")
        _as_member(self, "cov_scenario", CovScenario)
        _as_member(self, "error_dist", ErrorDist)
        if self.tau_star is not None and not 1 <= self.tau_star <= self.n - 1:
            raise BadParamError(
                f"tau_star={self.tau_star} outside [1, {self.n - 1}]"
            )
        if not math.isfinite(self.delta1):
            raise BadParamError(f"delta1={self.delta1} must be finite")
        if not 0.0 < self.delta2 < math.inf:
            raise BadParamError(f"delta2={self.delta2} must be positive and finite")
        if not 0 <= self.seed <= _MASK64:
            raise BadParamError("seed must fit in 64 unsigned bits")


def mix_seed(seed: int, rep: int) -> int:
    """Derive an independent 64-bit stream seed for one replication.

    splitmix64 finalizer over seed + (rep + 1) * golden-ratio increment;
    the mapping is bijective in the seed for each rep, so distinct
    replications get well-separated streams.
    """
    seed, rep = _as_int(seed, "seed"), _as_int(rep, "rep")
    z = (seed + (rep + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def build_cov(spec: CovSpec, p: int) -> np.ndarray:
    """The p x p covariance matrix described by ``spec``.

    AR1: entry (i, j) is corr^|i-j|.  BLOCK5: unit diagonal with ``corr``
    inside each consecutive block of five; columns past the last complete
    block stay uncorrelated.  The whole matrix is multiplied by ``scale``.
    """
    p = _as_int(p, "p")
    if p < 1:
        raise BadParamError(f"p={p} must be at least 1")
    if spec.scenario is CovScenario.AR1:
        idx = np.arange(p)
        base = spec.corr ** np.abs(np.subtract.outer(idx, idx)).astype(np.float64)
    else:
        base = np.eye(p)
        for start in range(0, 5 * (p // 5), 5):
            block = slice(start, start + 5)
            base[block, block] = spec.corr
            np.fill_diagonal(base[block, block], 1.0)
    return spec.scale * base


def cov_sqrt(sigma) -> np.ndarray:
    """The symmetric square root R = R^T of a symmetric PSD matrix, R R = Sigma.

    It comes from the eigendecomposition, with eigenvalues that rounding
    pushed below zero clipped to zero.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NonFiniteValueError("matrix has NaN or infinite entries")
    if not np.allclose(s, s.T, rtol=1e-12, atol=1e-12):
        raise NotSymmetricError("matrix is not symmetric")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (s + s.T))
    bound = -1e-10 * float(np.abs(eigvals).max())
    if eigvals.min() < bound:
        raise NotPSDError(f"eigenvalue {eigvals.min():.3e} below {bound:.3e}")
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    return 0.5 * (root + root.T)


def _draw_errors(rng: np.random.Generator, n: int, p: int, dist: ErrorDist) -> np.ndarray:
    if dist is ErrorDist.NORMAL:
        return rng.standard_normal((n, p))
    # t(9) has variance 9/7; rescale to unit variance.
    return rng.standard_t(9, size=(n, p)) / math.sqrt(9.0 / 7.0)


@functools.lru_cache(maxsize=8, typed=True)
def _cached_root(scenario: CovScenario, corr: float, scale: float, p: int) -> np.ndarray:
    """``cov_sqrt(build_cov(...))``, kept per process and marked read-only.

    Every replication of an experiment uses the same roots; eight entries
    hold the pre-change root and the post-change roots of a ``delta2``
    sweep.
    """
    root = cov_sqrt(build_cov(CovSpec(scenario, corr, scale), p))
    root.setflags(write=False)
    return root


def _roots(model: SimulationModel) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The pre-change root and, if the model has a change, the post-change root."""
    pre = _cached_root(model.cov_scenario, _PRE_CORR, 1.0, model.p)
    if model.tau_star is None:
        return pre, None
    post = _cached_root(model.cov_scenario, _POST_CORR, model.delta2, model.p)
    return pre, post


def gen_dataset(model: SimulationModel) -> Dataset:
    """One synthetic dataset, deterministic given ``model.seed``."""
    rng = np.random.default_rng(model.seed)
    errors = _draw_errors(rng, model.n, model.p, model.error_dist)
    tau = model.n if model.tau_star is None else model.tau_star

    pre_root, post_root = _roots(model)
    # Products go straight into x, which is private to this call, so the
    # Dataset keeps it: no n x p temporary or copy beside errors and x.
    x = np.empty((model.n, model.p))
    np.matmul(errors[:tau], pre_root.T, out=x[:tau])
    if tau < model.n:
        np.matmul(errors[tau:], post_root.T, out=x[tau:])
        x[tau:] += model.delta1 / math.sqrt(model.p)
    return Dataset._over(x)


@dataclass(frozen=True)
class MethodResult:
    """Aggregates for one decision rule over all replications."""

    rejection_rate: float
    mc_stderr: float
    mean_abs_error: Optional[float]


@dataclass(frozen=True)
class ExperimentReport:
    """Monte Carlo summary of one experiment.

    Top-level numbers describe the fused (Fisher) method; ``methods``
    holds the per-method breakdown.  The z-score and fused-statistic
    samples of every replication are kept for distributional diagnostics.
    """

    rep_count: int
    rejection_rate: float
    mc_stderr: float
    mean_abs_error: Optional[float]
    methods: Mapping[str, MethodResult]
    z_mean_samples: np.ndarray
    z_cov_samples: np.ndarray
    t_n_samples: np.ndarray
    #: Split estimates per replication, one column per method in the order
    #: fisher, bonferroni, mean_only, cov_only; None under the null model.
    tau_hat_samples: Optional[np.ndarray]


def _one_rep(args) -> tuple:
    model, rep, alpha, lam, calibration = args
    data = gen_dataset(replace(model, seed=mix_seed(model.seed, rep)))
    stats = _statistics(data)
    outcome = _outcome(data, stats, calibration, alpha)
    decisions = _decide(outcome, _profiles(stats, lam))
    rejects = tuple(d.reject for d in decisions)
    tau_hats = tuple(d.tau_hat for d in decisions)
    return rejects, tau_hats, outcome.z_mean, outcome.z_cov, outcome.t_n


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this OS
        return os.cpu_count() or 1


def run_experiment(
    model: SimulationModel,
    reps: int,
    alpha: float = 0.05,
    lam: float = 0.2,
    parallelism: int = 1,
    calibration: str = "plug_in",
) -> ExperimentReport:
    """Empirical size/power and localization accuracy over ``reps`` runs.

    Replication r uses the stream seeded by ``mix_seed(model.seed, r)``,
    so the report is bit-identical for every parallelism degree.  At most
    one worker process runs per CPU the process may use.  When
    the model has a changepoint, each method's mean absolute estimation
    error is reported alongside its rejection rate.  ``calibration`` is
    as in :func:`cpjoint.detect`.
    """
    reps = _as_int(reps, "reps")
    parallelism = _as_int(parallelism, "parallelism")
    if reps < 1:
        raise BadParamError(f"reps={reps} must be at least 1")
    alpha = _check_alpha(alpha)
    _check_lam(lam)
    if parallelism < 1:
        raise BadParamError(f"parallelism={parallelism} must be at least 1")
    _check_calibration(calibration)

    jobs = [(model, rep, alpha, lam, calibration) for rep in range(reps)]
    workers = min(parallelism, reps, _usable_cpus())
    if workers == 1:
        results = [_one_rep(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # Forked workers inherit the filled root cache instead of each
        # recomputing the roots, and the loaded gamma tail instead of each
        # importing scipy.
        _roots(model)
        if calibration == "finite_sample":
            import scipy.special  # noqa: F401
        chunk = max(1, reps // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_rep, jobs, chunksize=chunk))

    rejects = np.array([r[0] for r in results], dtype=bool)
    tau_hats = np.array([r[1] for r in results], dtype=np.int64)
    z_mean = np.array([r[2] for r in results])
    z_cov = np.array([r[3] for r in results])
    t_n = np.array([r[4] for r in results])

    methods: dict[str, MethodResult] = {}
    for col, method in enumerate(Method):
        rate = float(rejects[:, col].mean())
        stderr = math.sqrt(rate * (1.0 - rate) / reps)
        mae = None
        if model.tau_star is not None:
            mae = float(np.abs(tau_hats[:, col] - model.tau_star).mean())
        methods[method.value] = MethodResult(rate, stderr, mae)

    fisher = methods[Method.FISHER.value]
    return ExperimentReport(
        rep_count=reps,
        rejection_rate=fisher.rejection_rate,
        mc_stderr=fisher.mc_stderr,
        mean_abs_error=fisher.mean_abs_error,
        methods=methods,
        z_mean_samples=z_mean,
        z_cov_samples=z_cov,
        t_n_samples=t_n,
        tau_hat_samples=tau_hats if model.tau_star is not None else None,
    )
