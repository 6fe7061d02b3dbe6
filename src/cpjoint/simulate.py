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
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from .data import Dataset, dataset_from_matrix
from .errors import BadParamError, NotPSDError, NotSymmetricError
from .pipeline import Method, _analyze, _check_calibration, _decide

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


@dataclass(frozen=True)
class CovSpec:
    """One covariance design: base structure, correlation, and scale."""

    scenario: CovScenario
    corr: float
    scale: float

    def __post_init__(self) -> None:
        if not -1.0 < self.corr < 1.0:
            raise BadParamError(f"correlation {self.corr} outside (-1, 1)")
        if not self.scale > 0.0:
            raise BadParamError(f"scale {self.scale} must be positive")


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
        if self.tau_star is not None and not 1 <= self.tau_star <= self.n - 1:
            raise BadParamError(
                f"tau_star={self.tau_star} outside [1, {self.n - 1}]"
            )
        if not self.delta2 > 0.0:
            raise BadParamError(f"delta2={self.delta2} must be positive")
        if not 0 <= self.seed <= _MASK64:
            raise BadParamError("seed must fit in 64 unsigned bits")


def mix_seed(seed: int, rep: int) -> int:
    """Derive an independent 64-bit stream seed for one replication.

    splitmix64 finalizer over seed + (rep + 1) * golden-ratio increment;
    the mapping is bijective in the seed for each rep, so distinct
    replications get well-separated streams.
    """
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


def cov_sqrt(sigma, method: str = "spectral") -> np.ndarray:
    """A square root R of a symmetric PSD matrix with R R^T = Sigma.

    ``spectral`` (default) returns the symmetric square root from the
    eigendecomposition; ``cholesky`` returns the lower-triangular factor.
    The two induce different data laws for non-Gaussian inputs, so the
    symmetric root is the default.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {s.shape}")
    if not np.allclose(s, s.T, rtol=1e-12, atol=1e-12):
        raise NotSymmetricError("matrix is not symmetric")
    if method == "cholesky":
        try:
            return np.linalg.cholesky(s)
        except np.linalg.LinAlgError as exc:
            raise NotPSDError(str(exc)) from None
    if method != "spectral":
        raise BadParamError(f"unknown square-root method {method!r}")
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


def gen_dataset(model: SimulationModel, sqrt_method: str = "spectral") -> Dataset:
    """One synthetic dataset, deterministic given ``model.seed``."""
    rng = np.random.default_rng(model.seed)
    errors = _draw_errors(rng, model.n, model.p, model.error_dist)
    tau = model.n if model.tau_star is None else model.tau_star

    pre_root = cov_sqrt(
        build_cov(CovSpec(model.cov_scenario, _PRE_CORR, 1.0), model.p),
        sqrt_method,
    )
    x = np.empty((model.n, model.p))
    x[:tau] = errors[:tau] @ pre_root.T
    if tau < model.n:
        post_root = cov_sqrt(
            build_cov(CovSpec(model.cov_scenario, _POST_CORR, model.delta2), model.p),
            sqrt_method,
        )
        shift = model.delta1 / math.sqrt(model.p)
        x[tau:] = errors[tau:] @ post_root.T + shift
    return dataset_from_matrix(x)


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
    a = _analyze(data, calibration)
    decisions = _decide(a, alpha, lam)
    rejects = tuple(d.reject for d in decisions)
    tau_hats = tuple(d.tau_hat for d in decisions)
    return rejects, tau_hats, a.z_mean, a.z_cov, a.t_n


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
    so the report is bit-identical for every parallelism degree.  When
    the model has a changepoint, each method's mean absolute estimation
    error is reported alongside its rejection rate.  ``calibration`` is
    as in :func:`cpjoint.detect`.
    """
    if reps < 1:
        raise BadParamError(f"reps={reps} must be at least 1")
    if not (0.0 < alpha < 1.0):
        raise BadParamError(f"alpha={alpha} not strictly inside (0, 1)")
    if parallelism < 1:
        raise BadParamError(f"parallelism={parallelism} must be at least 1")
    _check_calibration(calibration)

    jobs = [(model, rep, alpha, lam, calibration) for rep in range(reps)]
    workers = min(parallelism, reps)
    if workers == 1:
        results = [_one_rep(job) for job in jobs]
    else:
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
