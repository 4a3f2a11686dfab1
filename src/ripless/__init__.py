"""Compressive sensing laboratory built around isotropic sensing ensembles.

The package is organized the way the mathematics is: `core` holds the
normalized sensing model and shared numerics, `ensembles` the random row
families and their coherence, `solvers` the three l1 programs with their
error bounds, `certificates` the golfing construction and duality
checkers, `estimates` the concentration bounds with Monte Carlo
validators, and `harness` the seeded experiment driver behind the
`ripless` command.
"""

from importlib.metadata import PackageNotFoundError, version

from .core import (
    MeasurementMatrix,
    MeasurementVector,
    SupportSet,
    best_s_approx,
    matrix_from_csv,
    matrix_to_csv,
    realify,
    sign_pattern,
    vector_from_csv,
    vector_to_csv,
)
from .ensembles import (
    EnsembleSpec,
    build_matrix,
    deterministic_coherence,
    isotropy_check,
    sample_rows,
    stochastic_coherence,
)
from .solvers import (
    ErrorBoundInputs,
    SolverResult,
    basis_pursuit,
    dantzig,
    default_lambda,
    l1_error_bound,
    l2_error_bound,
    lasso,
)
from .certificates import (
    DualCertificate,
    GolfingConfig,
    config_from_total,
    default_config,
    golfing_scheme,
    least_squares_dual,
    verify_inexact_duality,
)
from .estimates import (
    EmpiricalReport,
    TailBoundQuery,
    clopper_pearson,
    empirical_estimate,
    noise_correlation_bound,
    rip_constant_exact,
    tail_value,
    weak_rip_empirical,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    GridCell,
    config_hash,
    replay_trial,
    run_experiment,
)

try:
    __version__ = version("ripless")
except PackageNotFoundError:
    __version__ = "0.0.0+local"

__all__ = [
    "MeasurementMatrix",
    "MeasurementVector",
    "SupportSet",
    "best_s_approx",
    "matrix_from_csv",
    "matrix_to_csv",
    "realify",
    "sign_pattern",
    "vector_from_csv",
    "vector_to_csv",
    "EnsembleSpec",
    "build_matrix",
    "deterministic_coherence",
    "isotropy_check",
    "sample_rows",
    "stochastic_coherence",
    "ErrorBoundInputs",
    "SolverResult",
    "basis_pursuit",
    "dantzig",
    "default_lambda",
    "l1_error_bound",
    "l2_error_bound",
    "lasso",
    "DualCertificate",
    "GolfingConfig",
    "config_from_total",
    "default_config",
    "golfing_scheme",
    "least_squares_dual",
    "verify_inexact_duality",
    "EmpiricalReport",
    "TailBoundQuery",
    "clopper_pearson",
    "empirical_estimate",
    "noise_correlation_bound",
    "rip_constant_exact",
    "tail_value",
    "weak_rip_empirical",
    "ExperimentConfig",
    "ExperimentResult",
    "GridCell",
    "config_hash",
    "replay_trial",
    "run_experiment",
    "__version__",
]
