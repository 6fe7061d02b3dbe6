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
    NonFiniteValueError,
    NotAMatrixError,
    PValueRangeError,
    SampleTooSmallError,
    TooFewObservationsError,
)
from .mean_shift import MeanStatResult, mean_stat_curve
from .cov_shift import CovStatResult, cov_stat_curve
from .scale import Calibration, calibrate, trace_sigma2_hat
from .tails import fisher_combine_log, normal_log_sf
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
    ErrorDist,
    ExperimentReport,
    MethodResult,
    SimulationModel,
    gen_dataset,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaRangeError",
    "BadParamError",
    "BaselineOutcome",
    "Calibration",
    "CovScenario",
    "CovStatResult",
    "CpjointError",
    "Dataset",
    "DegenerateScaleError",
    "ErrorDist",
    "ExperimentReport",
    "LocalizationOutcome",
    "MeanStatResult",
    "Method",
    "MethodResult",
    "NonFiniteValueError",
    "NotAMatrixError",
    "PValueRangeError",
    "SampleTooSmallError",
    "SimulationModel",
    "StatCurve",
    "TestOutcome",
    "TooFewObservationsError",
    "baselines",
    "calibrate",
    "cov_stat_curve",
    "dataset_from_matrix",
    "detect",
    "fisher_combine_log",
    "gen_dataset",
    "gram",
    "localize",
    "mean_stat_curve",
    "normal_log_sf",
    "run_experiment",
    "trace_sigma2_hat",
]
