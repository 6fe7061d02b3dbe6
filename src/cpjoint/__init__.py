"""Joint mean and covariance changepoint detection for high-dimensional data.

The package tests an ordered sample of vectors for a simultaneous shift in
the mean vector and covariance matrix, and estimates where the shift
happened.  Two aggregate statistics (one sensitive to mean shifts, one to
covariance shifts) are standardized with plug-in null variances and fused
through the Fisher p-value combiner; the same fusion applied per candidate
split yields the changepoint estimator.
"""

from .data import Dataset, StatCurve, dataset_from_matrix, gram
from .errors import (
    AlphaRangeError,
    BadParamError,
    CpjointError,
    DegenerateScaleError,
    EmptyGridError,
    NegativeInputError,
    NonFiniteValueError,
    NotAMatrixError,
    NotPSDError,
    NotSymmetricError,
    PValueRangeError,
    SampleTooSmallError,
    TooFewObservationsError,
)
from .mean_shift import MeanStatResult, mean_stat_curve
from .cov_shift import CovStatResult, cov_stat_curve
from .scale import (
    COV_VAR_COEFF,
    MEAN_VAR_COEFF,
    Calibration,
    calibrate,
    trace_sigma2_hat,
    trace_sigma3_hat,
)
from .tails import (
    chi2_4_sf,
    fisher_combine_log,
    normal_log_sf,
    skewed_log_sf,
)
from .pipeline import (
    BaselineOutcome,
    LocalizationOutcome,
    Method,
    TestOutcome,
    baselines,
    detect,
    localize,
)
from .simulate import (
    CovScenario,
    CovSpec,
    ErrorDist,
    ExperimentReport,
    MethodResult,
    SimulationModel,
    build_cov,
    cov_sqrt,
    gen_dataset,
    mix_seed,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaRangeError",
    "BadParamError",
    "BaselineOutcome",
    "COV_VAR_COEFF",
    "Calibration",
    "CovScenario",
    "CovSpec",
    "CovStatResult",
    "CpjointError",
    "Dataset",
    "DegenerateScaleError",
    "EmptyGridError",
    "ErrorDist",
    "ExperimentReport",
    "LocalizationOutcome",
    "MEAN_VAR_COEFF",
    "MeanStatResult",
    "Method",
    "MethodResult",
    "NegativeInputError",
    "NonFiniteValueError",
    "NotAMatrixError",
    "NotPSDError",
    "NotSymmetricError",
    "PValueRangeError",
    "SampleTooSmallError",
    "SimulationModel",
    "StatCurve",
    "TestOutcome",
    "TooFewObservationsError",
    "baselines",
    "build_cov",
    "calibrate",
    "chi2_4_sf",
    "cov_sqrt",
    "cov_stat_curve",
    "dataset_from_matrix",
    "detect",
    "fisher_combine_log",
    "gen_dataset",
    "gram",
    "localize",
    "mean_stat_curve",
    "mix_seed",
    "normal_log_sf",
    "run_experiment",
    "skewed_log_sf",
    "trace_sigma2_hat",
    "trace_sigma3_hat",
]
