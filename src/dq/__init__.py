"""Exact ordered series arithmetic, star products, Gaussian states, and
uncertainty-relation checks for phase-space quantization."""

from .errors import (
    AdmissibilityWarning,
    DQError,
    ExprSyntaxError,
    IndeterminateAtTruncation,
)
from .linalg import (
    Definiteness,
    HermitianForm,
    InequalityReport,
    Relation,
    check_form_determinant_bound,
    check_hadamard_chain,
    check_robertson,
    check_trace_bounds,
    congruence_diagonalize,
    determinant,
    gram_form,
    hermitian_form,
    is_nonneg_definite,
    kernel,
    split,
    trace_bounds,
)
from .observables import (
    Observable,
    constant,
    coordinate,
    moyal_bracket,
    observable,
    poisson,
    star,
)
from .parsing import parse_observable, parse_series
from .series import (
    ComplexSeries,
    HBAR,
    ONE,
    Series,
    Sign,
    ZERO,
    compare,
    h,
    metric,
    rational,
    series,
    valuation,
)
from .states import (
    GaussianState,
    cauchy_schwarz_check,
    correlated,
    deviation,
    gelfand_norm,
    ground,
    in_gelfand_ideal,
    load_state,
    squeezed,
)
from .uncertainty import (
    MomentMatrices,
    RelationChecks,
    check_annihilating_transform,
    check_relations,
    moment_matrices,
)

__version__ = "0.1.0"
