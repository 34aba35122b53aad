"""Matrix-free restarted primal-dual methods for linear programming.

The package provides sparse problem representation and KKT residuals
(:mod:`~restartlp.lp_core`), diagonal rescaling of an LP
(:mod:`~restartlp.scaling`), MPS reading / standard-form conversion and
synthetic generators (:mod:`~restartlp.ingest`), one-iteration updates for
PDHG, extragradient, ADMM and bilinear PPM (:mod:`~restartlp.steps`),
normalized-duality-gap evaluation through an exact trust-region solver
(:mod:`~restartlp.gap`), the restarted outer loop (:mod:`~restartlp.restarts`),
spectral analysis of the bilinear case (:mod:`~restartlp.bilinear`), and the
command-line harness (:mod:`~restartlp.cli`).
"""

from .lp_core import (
    Residuals,
    SaddlePoint,
    SparseMatrix,
    StandardFormLp,
    power_method_sigma_max,
    residuals,
)
from .ingest import (
    DiagonalBilinear,
    MpsModel,
    MpsParseError,
    RandomLpKnownOptimum,
    TwoDimToy,
    VariableMap,
    generate,
    parse_mps,
    to_standard_form,
)
from .steps import (
    ADMM,
    EGM,
    PDHG,
    PPM_BILINEAR,
    AdmmOperators,
    AdmmPoint,
    AffineProjector,
    StepConfig,
    StepOperators,
    StepOutput,
    admm_step,
    egm_step,
    pdhg_step,
    ppm_bilinear_step,
)
from .gap import (
    GapResult,
    TrustRegionProblem,
    normalized_gap_admm,
    normalized_gap_lp,
    solve_linear_trust_region,
)
from .scaling import Scaling, rescale
from .restarts import (
    ADAPTIVE,
    FIXED,
    FLEXIBLE,
    NO_RESTART,
    ConvergenceTrace,
    RestartScheme,
    RestartState,
    SolveOptions,
    SolveResult,
    Status,
    fixed_frequency_tstar,
    run_restarted,
    should_restart,
)
from .bilinear import (
    SpectralBlock,
    b_metric_matrix,
    b_norm_sq,
    dynamics_matrix,
    table3_scaling_experiment,
    theoretical_B_norm_decay,
    theoretical_average_bound,
    two_dim_toy_series,
)

__version__ = "0.1.0"
