"""gibbslab -- a numerical laboratory for locally filtered Gibbs samplers.

The package builds two families of Lindblad generators over small exactly
diagonalisable models: the classical detailed-balance construction (jump
operators resolved per Bohr frequency, weights satisfying the KMS
condition) and a frequency-filtered variant whose jump operators are
Gaussian-smeared combinations of Bohr components.  The filtered family
stays stationary on the Gibbs density through a balanced weight choice
plus a compensating coherent term, and collapses back to the classical
construction as the filter width grows.

Layering (each module depends only on the ones above it):

    errors        -- exception types
    operator_core -- dense linear-algebra primitives and conventions
    bohr          -- Bohr spectrum, frequency-resolved decomposition
    models        -- benchmark Hamiltonians with jump families
    weights       -- weight functions, Gaussian filter, quadrature
    oft           -- filtered jump operators and overlap tables
    evolution     -- semigroup propagation and channel health checks
                     (names ``GeneratorBundle`` only as a type annotation)
    generators    -- Lindblad assembly, stationarity and consistency reports
    cli           -- experiment configs, reports, and file formats
"""

from .errors import GibbsLabError, NumericalGuardError, ValidationError
from .operator_core import (
    EigenSystem,
    dagger,
    devectorize,
    eig_hermitian,
    vectorize,
)
from .bohr import (
    BohrDecomposition,
    BohrSpectrum,
    bohr_spectrum,
    decompose,
)
from .weights import (
    COHERENT_L1_LIMIT,
    GaussianFilter,
    WeightFunction,
    balanced_gamma,
    coherent_time_kernel,
    coherent_time_kernel_l1,
    delocalised_limit_gamma,
    kms_defect,
    kms_gamma,
    unshifted_gamma,
)
from .oft import (
    OverlapTable,
    oft_eval,
    overlap_table,
)
from .generators import (
    GeneratorBundle,
    coherent_calibration_report,
    coherent_matrix_bohr,
    davies_generator,
    davies_limit_report,
    dual_path_residual,
    effective_drift_abscissa,
    hermiticity_preservation_defect,
    localised_generator,
    stationarity_report,
    trace_functional_defect,
)
from .evolution import (
    Propagator,
    choi_min_eigenvalue,
    choi_report,
    choi_trace_preservation_defect,
    contraction_report,
    evolve,
    random_density_matrix,
    semigroup_defect,
    snapshot_diagnostics,
)
from .models import (
    Model,
    model_from_config,
    oscillator_model,
    qubit_model,
    random_model,
    schrodinger_line_model,
    torus_model,
)

__version__ = "0.1.0"

__all__ = [
    "GibbsLabError",
    "NumericalGuardError",
    "ValidationError",
    "EigenSystem",
    "dagger",
    "devectorize",
    "eig_hermitian",
    "vectorize",
    "BohrDecomposition",
    "BohrSpectrum",
    "bohr_spectrum",
    "decompose",
    "COHERENT_L1_LIMIT",
    "GaussianFilter",
    "WeightFunction",
    "balanced_gamma",
    "coherent_time_kernel",
    "coherent_time_kernel_l1",
    "delocalised_limit_gamma",
    "kms_defect",
    "kms_gamma",
    "unshifted_gamma",
    "OverlapTable",
    "oft_eval",
    "overlap_table",
    "GeneratorBundle",
    "coherent_calibration_report",
    "coherent_matrix_bohr",
    "davies_generator",
    "davies_limit_report",
    "dual_path_residual",
    "effective_drift_abscissa",
    "hermiticity_preservation_defect",
    "localised_generator",
    "stationarity_report",
    "trace_functional_defect",
    "Propagator",
    "choi_min_eigenvalue",
    "choi_report",
    "choi_trace_preservation_defect",
    "contraction_report",
    "evolve",
    "random_density_matrix",
    "semigroup_defect",
    "snapshot_diagnostics",
    "Model",
    "model_from_config",
    "oscillator_model",
    "qubit_model",
    "random_model",
    "schrodinger_line_model",
    "torus_model",
    "__version__",
]
