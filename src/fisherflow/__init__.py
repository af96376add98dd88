"""Fisher-distance contraction and dilation analysis for stochastic dynamics.

The package follows one set of conventions throughout: probability vectors
are columns of the simplex, transition matrices are column-stochastic
(``T[i, j]`` is the probability of moving to ``i`` from ``j``, states evolve
as ``T @ p``), generators have columns summing to zero, indices are
0-based, and composite spaces use row-major Kronecker order with the system
factor outermost.
"""

from .distances import (
    ContractionForm,
    TraceRate,
    contraction_form,
    fisher_inner,
    fisher_rate,
    fisher_rates,
    forward_trace_rate,
    trace_rate,
)
from .errors import (
    ChannelRepresentationError,
    DimensionMismatchError,
    DomainError,
    FisherflowError,
    IntegrationAccuracyError,
    InvalidGeneratorError,
    InvalidInputError,
    InvalidStateError,
    InvalidStochasticMatrixError,
    InvalidTangentError,
    NearSingularError,
    NumericalAccuracyError,
    ResourceLimitError,
    ScenarioError,
    SingularBaseError,
    UndefinedPosteriorError,
    WitnessNotApplicableError,
    WitnessNotFoundError,
)
from .propagation import (
    Dynamics,
    GeneratorDynamics,
    GeneratorGrid,
    MixingDynamics,
    ScanResult,
    Trajectory,
    case_study_dynamics,
    contraction_to_target,
    divisibility_scan,
    generator_grid,
    generator_of,
    propagate,
)
from .quantum import (
    CpReport,
    MonotoneKind,
    QuantumChannel,
    QuantumWitnessReport,
    SuperOperator,
    channel_step,
    choi,
    classical_action,
    commuting_reduction_rate_check,
    cp_check,
    density_matrix,
    diag_decomposition,
    diag_decomposition_check,
    hermitian_perturbation,
    metric_kernel,
    petz_metric,
    quantum_dilation_witness,
    quantum_witness_fd_rate,
    semiclassical_lindbladian,
    special_point_check,
)
from .retrodiction import (
    EquivalenceReport,
    RetrodictionContext,
    adjoint_identity_check,
    bayes_inverse,
    pi_tangent_basis,
    retrodiction_context,
    retrodiction_distance_sq,
    retrodiction_equivalence_check,
)
from .scenario import (
    Scenario,
    build_dynamics,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from .simplex import (
    GeneratorCheck,
    extend_generator,
    is_interior,
    is_markovian_generator,
    prob_vec,
    rate_matrix,
    rate_matrix_from_rates,
    rates_of,
    stochastic_matrix,
    tangent_vec,
    zero_sum_basis,
)
from .witnesses import (
    NoGoReport,
    WitnessReport,
    dilation_direction_search,
    filter_witness_rate,
    no_go_verify,
    regularize_direction,
    single_negative_rate_example,
    special_base_point,
    trace_ancilla_witness,
)

from . import _blas

# numpy and scipy.linalg are loaded by now: run their OpenBLAS on one thread
_blas.pin_openblas_threads()

__version__ = "0.1.0"
