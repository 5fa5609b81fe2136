"""Statistical inference for model parameters estimated by averaged SGD.

One pass over the data produces the Polyak-Ruppert average together with
streaming estimates of its asymptotic covariance (plug-in and batch-means),
from which asymptotically exact confidence intervals and z-tests follow.
A separate pipeline handles sparse high-dimensional linear regression via
an epoch-based dual-averaging solver and one-step debiasing.
"""

from .batchmeans import BatchMeansAccumulator, BatchSchedule, make_schedule
from .inference import (CiReport, CovarianceEstimate, confidence_interval,
                        z_quantile, z_test)
from .models import (
    DesignKind,
    DesignSpec,
    ModelKind,
    ModelSpec,
    derivatives,
    make_covariance,
    oracle_covariance,
)
from .highdim import (
    PrecisionEstimate,
    RadarConfig,
    build_omega,
    debias,
    fit_debiased_lasso,
    highdim_ci,
    nodewise_fit_all,
    radar_lasso,
    radar_solve,
    tau_hat,
)
from .plugin import PluginAccumulator
from .sgd import (
    DivergenceError,
    EstimatorSink,
    SgdState,
    StepSchedule,
    run,
)

__all__ = [
    "BatchMeansAccumulator", "BatchSchedule", "make_schedule",
    "CovarianceEstimate", "CiReport", "confidence_interval", "z_quantile",
    "z_test", "DesignKind", "DesignSpec", "ModelKind", "ModelSpec",
    "derivatives", "make_covariance", "oracle_covariance",
    "PluginAccumulator", "DivergenceError", "EstimatorSink", "SgdState",
    "StepSchedule", "run",
    "PrecisionEstimate", "RadarConfig", "build_omega", "debias",
    "fit_debiased_lasso", "highdim_ci", "nodewise_fit_all",
    "radar_lasso", "radar_solve", "tau_hat",
]

__version__ = "0.1.0"
