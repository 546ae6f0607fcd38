"""Fuzzy linear systems solved through core-EP inverses of a crisp embedding."""

from .errors import (
    DimensionMismatchError,
    FuzzyLinSysError,
    IndexTooLargeError,
    NumericalFailureError,
    ProblemFormatError,
)
from .fls import (
    CONSISTENT_INFINITE,
    CONSISTENT_UNIQUE,
    INCONSISTENT,
    METHOD_2I,
    METHOD_2II,
    METHOD_CORE_EP,
    METHOD_INVERSE,
    AssociatedSystem,
    Classification,
    FlsProblem,
    SolveReport,
    build_associated,
    classify,
    core_ep_from_blocks,
    fuzzy_solution,
    solve,
    verify_solution,
)
from .fuzzy import AffineFn, FuzzyNumber, Validity, add, fuzzy_eq, scalar_mul, validity
from .ginv import (
    DEFAULT_TOLERANCES,
    CoreEpDecomposition,
    MatrixPowers,
    Staircase,
    TolerancePolicy,
    core_ep_decompose,
    core_ep_via_decomposition,
    core_ep_via_formula,
    core_inverse,
    in_column_space,
    matrix_index,
    matrix_power,
    moore_penrose,
    one_three_inverse,
    power_ranks,
    rank,
)

__version__ = "0.1.0"
