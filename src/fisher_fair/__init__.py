"""Market equilibria and fair divisions of [0, 1] under piecewise-linear valuations."""

from .errors import (
    DegeneratePiece,
    DomainError,
    FisherFairError,
    InfeasibleUtilities,
    NotConverged,
    NumericalBreakdown,
    UnreachableUtility,
    ValidationError,
)
from .market import (
    BreakpointGrid,
    Interval,
    LinearPiece,
    MarketInstance,
    build_instance,
    cut,
    eval_interval,
    load_instance,
    merge_valuations,
)
from .envelope import (
    PiecewiseLinearFunction,
    beta_bounds,
    certify_envelope,
    dual_subgradient,
    plot_data,
    upper_envelope,
)
from .feasible import (
    ConicProgram,
    NormalizedSegment,
    build_conic_representation,
    conic_solution_utilities,
    emit_conic_program,
    membership,
    normalize_segment,
    partition_interval,
    partition_segment,
)
from .dual_solver import (
    EquilibriumResult,
    PureAllocation,
    SolveConfig,
    allocation_from_beta,
    duality_constant,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
