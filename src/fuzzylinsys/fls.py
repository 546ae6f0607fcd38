"""Fuzzy linear systems: crisp block embedding, classification, and solvers.

An n x n fuzzy linear system ``A x~ = y~`` (crisp A, fuzzy right-hand side)
embeds into the crisp 2n x 2n system ``S X(r) = Y(r)`` where
``S = [[D, E], [E, D]]`` collects the entrywise positive parts D and negative
parts E of A.  Consistent systems are solved exactly; inconsistent ones get a
generalized solution through the core-EP inverse of S.

``Q = [[I, I], [I, -I]] / sqrt(2)`` is symmetric and orthogonal with
``Q S Q = diag(|A|, A)``, where ``|A| = D + E`` and ``A = D - E``.  So
``rank(S**j) = rank(|A|**j) + rank(A**j)``, the index of S is the larger of
the two half-blocks' indices, and the column space of ``S**j`` is Q applied
to the column spaces of ``|A|**j`` and ``A**j`` side by side.  Each
half-block's own rank sequence is the only rank decision; classification,
the membership test and the solve then read their answers from one
orthogonal frame per half-block, the U of Wang's core-EP decomposition,
whose prefixes are orthonormal bases B of the column spaces of its powers,
and ``M^ce = B (B^T M B)^-1 B^T`` with B the basis of ``col(M**k)``.  No
2n x 2n matrix is formed or factorized.

The solver works in half coordinates: a 2n-row v is held as ``Q v /
sqrt(2)``, the rows for ``|A|`` stacked over those for ``A``.  The
right-hand side is taken there once per system (``AssociatedSystem._rhs``)
and held as a matrix's unit copy is: each generator's column scaled by the
power of two that brings its largest entry into [1/2, 1).  The projections,
both rank tests and the residual read that one copy; the solve on each
half-block reads the full-scale one.  Q is orthogonal, so every 2-norm rule
reads the same there; only the solution and the infinity norm of the
reported residual are taken back to full coordinates.  One routine forms
that residual ``M x_h - w_h``, for the report and for
:func:`verify_solution`, with each generator's column at one power-of-two
scale, so no term of it overflows, and applies the scale once, to the
reported number.
"""

import math
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import ginv
from ._util import as_square, as_vector
from .errors import DimensionMismatchError, IndexTooLargeError, NumericalFailureError
from .fuzzy import AffineFn, FuzzyNumber, Validity, validity
from .ginv import DEFAULT_TOLERANCES, TolerancePolicy

__all__ = [
    "CONSISTENT_UNIQUE",
    "CONSISTENT_INFINITE",
    "INCONSISTENT",
    "METHOD_INVERSE",
    "METHOD_CORE_EP",
    "METHOD_2I",
    "METHOD_2II",
    "FlsProblem",
    "AssociatedSystem",
    "Classification",
    "SolveReport",
    "build_associated",
    "classify",
    "core_ep_from_blocks",
    "fuzzy_solution",
    "solve",
    "verify_solution",
]

CONSISTENT_UNIQUE = "ConsistentUnique"
CONSISTENT_INFINITE = "ConsistentInfinite"
INCONSISTENT = "Inconsistent"

METHOD_INVERSE = "Inverse"
METHOD_CORE_EP = "CoreEp"
METHOD_2I = "Method2-i"
METHOD_2II = "Method2-ii"
_METHODS = (METHOD_INVERSE, METHOD_CORE_EP, METHOD_2I, METHOD_2II)

_TINY = np.finfo(float).tiny


@dataclass
class FlsProblem:
    """A crisp square coefficient matrix with a fuzzy right-hand side.  A
    ``y`` that is not a sequence of :class:`FuzzyNumber` raises ``ValueError``,
    naming the first entry that is not one."""

    a: np.ndarray
    y: list[FuzzyNumber]

    def __post_init__(self):
        self.a = as_square(self.a)
        try:
            self.y = list(self.y)
        except TypeError:
            raise ValueError(f"y must be a sequence of FuzzyNumber, got "
                             f"{reprlib.repr(self.y)}") from None
        for i, fn in enumerate(self.y):
            if not isinstance(fn, FuzzyNumber):
                raise ValueError(f"y[{i}] must be a FuzzyNumber, got {reprlib.repr(fn)}")
        if len(self.y) != self.a.shape[0]:
            raise DimensionMismatchError(
                f"right-hand side has {len(self.y)} components for a "
                f"{self.a.shape[0]}x{self.a.shape[1]} matrix"
            )


@dataclass
class AssociatedSystem:
    """The embedded crisp system ``S X(r) = y0 + r*y1``, built by
    :func:`build_associated`."""

    d: np.ndarray
    e: np.ndarray
    y0: np.ndarray
    y1: np.ndarray

    @property
    def n(self) -> int:
        """Order of the original fuzzy system (S is 2n x 2n)."""
        return self.d.shape[0]

    @cached_property
    def s(self) -> np.ndarray:
        """``S = [[D, E], [E, D]]``, formed on first read; the solver itself
        works on :attr:`halves` and never reads it."""
        return np.block([[self.d, self.e], [self.e, self.d]])

    @cached_property
    def halves(self) -> tuple[ginv.MatrixPowers, ginv.MatrixPowers]:
        """The half-blocks ``|A| = D + E`` and ``A = D - E`` with the ranks of
        their powers and the frames that span them, shared by every stage
        that asks about this system; built on first use."""
        return ginv.MatrixPowers(self.d + self.e), ginv.MatrixPowers(self.d - self.e)

    @cached_property
    def _rhs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(w, unit, f, size)``: the generators ``y = [y0 y1]`` in half
        coordinates, ``w = Q y / sqrt(2)`` with the rows for ``|A|`` over
        those for ``A``; ``unit = 2**-f w`` column by column, f the exponent
        of the column's largest entry (that of the smallest normal float for
        a zero or subnormal one), so a column's largest entry lies in
        [1/2, 1), as in a matrix's unit copy (:attr:`ginv.MatrixPowers.unit`);
        and ``size``, the norm of each column of ``unit``.  Every stage that
        judges or combines y reads ``unit``: the projections
        (:func:`_outside`), both rank tests (:func:`_residual_rank`) and the
        residual (:func:`_residual`); :func:`solve` solves on w, which a
        subnormal A needs at full scale.  y is halved before the butterfly
        adds, so no entry of w overflows; built on first use."""
        w = _butterfly(0.5 * np.column_stack([self.y0, self.y1]))
        f = np.frexp(np.maximum(np.abs(w).max(axis=0), _TINY))[1]
        unit = np.ldexp(w, -f)
        return w, unit, f, np.sqrt((unit * unit).sum(axis=0))  # np.linalg.norm's bits


@dataclass(frozen=True)
class Classification:
    kind: str
    rank_s: int
    rank_aug: int
    index_s: int

    @classmethod
    def of(cls, rank_s: int, rank_aug: int, index_s: int, order: int) -> "Classification":
        """The classification these ranks give a system whose S is
        ``order x order``: inconsistent when y adds rank to S, else unique
        when S has full rank."""
        kind = (INCONSISTENT if rank_s < rank_aug else
                CONSISTENT_UNIQUE if rank_s == order else CONSISTENT_INFINITE)
        return cls(kind, rank_s, rank_aug, index_s)


@dataclass
class SolveReport:
    """Outcome of a solve: crisp affine solution, fuzzy back-mapping, verdicts."""

    classification: Classification
    method: str
    crisp_x0: np.ndarray
    crisp_x1: np.ndarray
    fuzzy_x: list[FuzzyNumber]
    verdicts: list[Validity] = field(default_factory=list)
    residual: float = 0.0
    is_generalized: bool = False

    @property
    def strong(self) -> bool:
        """True when every fuzzy component passes all validity clauses."""
        return all(v.is_valid for v in self.verdicts)


def build_associated(problem: FlsProblem) -> AssociatedSystem:
    """Embed the fuzzy system into its crisp 2n x 2n companion.

    D takes the nonnegative entries of A, E the magnitudes of the negative
    ones, and the right-hand side stacks the lower endpoints over the negated
    upper endpoints.
    """
    a = problem.a
    d = np.maximum(a, 0.0)
    e = np.maximum(-a, 0.0)
    y0 = np.array(
        [fn.lower.c0 for fn in problem.y] + [-fn.upper.c0 for fn in problem.y],
        dtype=float,
    )
    y1 = np.array(
        [fn.lower.c1 for fn in problem.y] + [-fn.upper.c1 for fn in problem.y],
        dtype=float,
    )
    return AssociatedSystem(d=d, e=e, y0=y0, y1=y1)


def classify(sys: AssociatedSystem, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> Classification:
    """Rank-based consistency taxonomy of the embedded system.

    The right-hand side is the affine family ``y0 + r*y1``, so the system is
    consistent for every r exactly when both generators lie in the column
    space of S; ``rank_aug`` is the rank of ``[S | y0 | y1]``.  ``rank_s`` and
    ``index_s`` come from the two half-blocks' rank sequences, each judged on
    its own scale, and ``rank_aug = rank_s + rank((I - P) [y0 y1])`` with P
    the orthogonal projector onto the column space of S, so
    ``rank_aug >= rank_s`` by construction.
    """
    return _analyse(sys, tol).classification


def core_ep_from_blocks(d, e, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core-EP inverse of ``[[d, e], [e, d]]`` assembled from its blocks.

    The block structure ``[[h, z], [z, h]]`` holds with
    ``h = ((d+e)^ce + (d-e)^ce) / 2`` and ``z = ((d+e)^ce - (d-e)^ce) / 2``,
    so only two half-size core-EP inverses are needed.  Each comes from the
    half-block's own staircase (:func:`ginv.core_ep_via_decomposition`),
    the route :func:`solve` applies, so it holds for ill-conditioned
    non-normal halves too; the power formula is only the tests' reference.
    The staircases run on ``d/2 + e/2`` and ``d/2 - e/2``, which no finite
    blocks overflow, and their inverses are halved, since
    ``(m / 2)^ce = 2 m^ce``; scaling by a power of two is exact where no
    entry is subnormal.
    """
    d = as_square(d)
    e = as_square(e)
    if d.shape != e.shape:
        raise DimensionMismatchError(f"block shapes differ: {d.shape} vs {e.shape}")
    p, q = (0.5 * ginv.core_ep_via_decomposition(ginv.MatrixPowers(m), tol)
            for m in (0.5 * d + 0.5 * e, 0.5 * d - 0.5 * e))
    h = 0.5 * (p + q)
    z = 0.5 * (p - q)
    return np.block([[h, z], [z, h]])


def solve(
    problem: FlsProblem,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
    method: str | None = None,
) -> SolveReport:
    """Solve the fuzzy linear system, choosing the route automatically.

    Route selection (``method=None``): a nonsingular associated matrix is
    inverted directly; a singular one with the right-hand side inside the
    column space of ``S**k`` (k the matrix index) uses the core-EP inverse and
    yields an exact solution; otherwise ``X = S^ce Y`` is returned as a
    generalized solution, the solution of an auxiliary consistent system.
    ``method`` forces one of :data:`METHOD_INVERSE`, :data:`METHOD_CORE_EP`,
    :data:`METHOD_2I`, :data:`METHOD_2II`.

    Every stage runs on the half-blocks ``|A|`` and ``A`` (see the module
    docstring), with B the basis of ``col(M**k)`` of each half-block M at its
    own index k.  Y lies in the column space of ``S**k`` when its residual
    ``(I - P) Y`` against the orthogonal projector P onto that space has rank
    0; that test and the classification of :func:`classify` are made once,
    in one analysis.  The solution is ``S^ce Y``, from
    ``B (B^T M B)^-1 B^T`` on each half; at index 0, B = I and this is the
    plain solve.

    The residual is the max over r in [0, 1] of the infinity norm of
    ``S X(r) - Y(r)`` for exact solutions, or of the auxiliary-system
    mismatch ``S X(r) - P Y(r)`` for generalized ones, whatever the method,
    as :func:`verify_solution` computes it.  It is formed at a power-of-two
    scale and scaled back once, so it is finite wherever it is
    representable, and ``inf`` beyond the float range.  Methods 2-i and 2-ii
    are two auxiliary formulations of the one solution ``S^ce Y``, so they
    report the same x and the same residual.  An exact solution whose
    residual exceeds the backward-error bound of
    :class:`~fuzzylinsys.ginv.TolerancePolicy` raises
    :class:`~fuzzylinsys.errors.NumericalFailureError`; so does one lost to
    underflow, such as ``x = 0`` for a nonzero y, whose residual is y itself,
    with a message that says the solution underflows.  The crisp solution is
    read back as a fuzzy one, with its verdicts, by :func:`fuzzy_solution`.
    """
    sys = build_associated(problem)
    cls, outside, member = _analyse(sys, tol)
    k = cls.index_s
    w, n = sys._rhs[0], sys.n

    if method is None:
        method = METHOD_INVERSE if k == 0 else METHOD_CORE_EP if member else METHOD_2I
    elif method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if method == METHOD_INVERSE and k != 0:
        raise IndexTooLargeError(f"direct inversion requires matrix index 0, got {k}")

    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the butterfly
        x = _butterfly(np.concatenate(
            [h.core_ep_apply(wi, tol) for h, wi in zip(sys.halves, (w[:n], w[n:]))]))
    if not np.isfinite(x).all():
        raise NumericalFailureError("the solution overflows the floating-point range")
    x0, x1 = x.T.copy()

    residual, beyond = _residual(sys, x, None if member else outside, tol)
    if beyond and np.abs(x).max() < _TINY:  # x was lost to underflow, not misjudged
        raise NumericalFailureError("exact route: the solution underflows the floating-point "
                                    f"range (residual {residual:.3e})")
    if beyond:
        raise NumericalFailureError(f"exact route left residual {residual:.3e}; membership test "
                                    "and solution disagree under the tolerance policy")

    fuzzy_x, verdicts = fuzzy_solution(x0, x1, tol)
    return SolveReport(
        classification=cls,
        method=method,
        crisp_x0=x0,
        crisp_x1=x1,
        fuzzy_x=fuzzy_x,
        verdicts=verdicts,
        residual=residual,
        is_generalized=not member,
    )


def fuzzy_solution(x0, x1, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> tuple[list, list]:
    """``(fuzzy_x, verdicts)``: the crisp solution ``X(r) = x0 + r*x1`` of the
    embedded system read back as a fuzzy vector, and the verdict of
    :func:`~fuzzylinsys.fuzzy.validity` on each component.

    Component i takes its lower endpoint from row i and its upper endpoint
    from row ``n + i`` negated; ``0.0 - x`` negates all but a zero, which
    stays +0.  Each clause is judged with the slack
    ``equality_tol * max|x|``, the largest entry of both columns (0 for
    ``x = 0``), so a verdict does not move when x is scaled by a power of
    two, as scaling A or y by one does.  :func:`solve` and the report codec
    (``cli.report_from_dict``) both call this, so a report states one
    solution.  x0 and x1 are vectors of real numbers (see
    :func:`fuzzylinsys._util.as_vector`) with one even length 2n and finite
    entries, or a ``ValueError`` is raised.
    """
    x0, x1 = as_vector(x0).tolist(), as_vector(x1).tolist()
    n = len(x0) // 2
    slack = tol.equality_tol * max(map(abs, x0 + x1), default=0.0)
    fuzzy_x = [FuzzyNumber(AffineFn(l0, l1), AffineFn(0.0 - u0, 0.0 - u1))  # strict: 2n rows each
               for l0, l1, u0, u1 in zip(x0[:n], x1[:n], x0[n:], x1[n:], strict=True)]
    return fuzzy_x, [validity(fn, slack) for fn in fuzzy_x]


def verify_solution(
    sys: AssociatedSystem,
    report: SolveReport,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
) -> float:
    """Re-substitute a reported solution and return the max residual over r.

    Exact solutions are checked against the original right-hand side;
    generalized ones against the right-hand side ``P Y(r)`` of the auxiliary
    consistent system, P the orthogonal projector onto the column space of
    ``S**k`` that :func:`solve` uses (equal to ``S^k (S^k)^(1,3)``).  It
    calls the one routine that formed the report's residual, on the same x,
    so it returns that residual bit for bit, for every method and at every
    scale.
    """
    x = np.column_stack([as_vector(c, 2 * sys.n) for c in (report.crisp_x0, report.crisp_x1)])
    outside = _analyse(sys, tol).outside if report.is_generalized else None
    return _residual(sys, x, outside, tol)[0]


class _Analysis(NamedTuple):
    """What :func:`_analyse` finds out about a system under a tolerance policy."""

    classification: Classification
    outside: np.ndarray  # (I - P) unit of sys._rhs, P the projector onto col(S**k)
    member: bool  # whether y lies in col(S**k)


def _analyse(sys: AssociatedSystem, tol: TolerancePolicy) -> _Analysis:
    """Classify the system and test its right-hand side for membership in
    ``col(S**k)``, from the half-blocks' rank staircases: ``rank_aug`` comes
    from the projection onto ``col(S)``, each half's frame prefix
    ``frame[:, :ranks[1]]``, and the membership from the one onto
    ``col(S**k)``, its prefix ``frame[:, :ranks[-1]]``: the same projection
    unless ``index_s > 1`` (at index <= 1 the two prefixes are one)."""
    steps = [h.staircase(tol) for h in sys.halves]
    rank_s = sum(st.ranks[1] for st in steps)
    index_s = max(len(st.ranks) - 2 for st in steps)
    outside = _outside([st.frame[:, : st.ranks[1]] for st in steps], sys)
    excess = _residual_rank(outside, sys, tol)
    cls = Classification.of(rank_s, rank_s + excess, index_s, 2 * sys.n)
    if index_s > 1:
        outside = _outside([st.frame[:, : st.ranks[-1]] for st in steps], sys)
        excess = _residual_rank(outside, sys, tol)
    return _Analysis(cls, outside, excess == 0)


def _butterfly(v: np.ndarray) -> np.ndarray:
    """``[t + b; t - b]`` of a 2n-row array ``v = [t; b]``, ``sqrt(2) Q v``.
    Q is its own inverse, so this takes half coordinates back to full ones,
    and ``_butterfly(v / 2)``, halved before it adds so that no entry
    overflows, takes full coordinates into halves."""
    n = v.shape[0] // 2
    t, b = v[:n], v[n:]
    return np.concatenate([t + b, t - b])


def _outside(bases, sys: AssociatedSystem) -> np.ndarray:
    """``(I - P) unit`` for the unit copy of the generators of ``sys._rhs``,
    in half coordinates, P the orthogonal projector onto the column space
    that ``bases``, one per half-block, span: each half is projected on its
    own basis, and no product overflows, whatever the scale of y."""
    u = sys._rhs[1]
    return np.concatenate([ui - b @ (b.T @ ui) for b, ui in zip(bases, (u[:sys.n], u[sys.n:]))])


def _residual_rank(g: np.ndarray, sys: AssociatedSystem, tol: TolerancePolicy) -> int:
    """Rank of a residual g of the unit copy of the two generators of
    ``sys._rhs``, in half coordinates, such as ``(I - P) unit``.

    A column within ``residual_tol * size_i`` of its generator counts as
    zero, ``size_i`` the norm of that generator's unit column: both norms
    are taken at the power of two of the generator's largest entry.  Q is
    orthogonal, so that is the rule ``residual_tol * ||y_i||`` on y in full
    coordinates.  So every decision is relative to the generator alone,
    whatever its scale, no norm overflows or underflows, and a zero
    generator, whose residual is zero, gets the bound 0.  Those are dropped
    first: with both left, the second counts only by its
    part orthogonal to the first (``R[1, 1]`` of a QR of g), so an in-bound
    roundoff residual never hides a real one parallel to it.
    """
    bound = tol.residual_tol * sys._rhs[3]
    norms = np.linalg.norm(g, axis=0)
    if not np.all(norms > bound):
        return int(np.count_nonzero(norms > bound))
    u = g[:, 0] / norms[0]
    return 1 + int(np.linalg.norm(g[:, 1] - u * (u @ g[:, 1])) > bound[1])


def _residual(sys: AssociatedSystem, x: np.ndarray, outside, tol: TolerancePolicy):
    """``(residual, beyond)`` of a solution x, its columns ``[x0 x1]`` in
    full coordinates.  ``residual`` is the max over r in [0, 1] of the
    infinity norm of ``S X(r) - Y(r)``, or, given ``outside = (I - P) unit``
    (:func:`_analyse`), of the auxiliary system's ``S X(r) - P Y(r)``: the
    one residual behind every report's and :func:`verify_solution`'s number.
    For an exact solution (no ``outside``), ``beyond`` tells whether a
    column of that residual exceeds ``residual_tol * (||S|| ||x_i|| +
    ||y_i||)``, i.e. whether x is not a backward-stable solution under the
    tolerance policy; for a generalized one it is False.

    The residual is ``M x_h - w_h`` on each half-block M, x taken into half
    coordinates; Q is orthogonal, so every 2-norm there is the full one over
    ``sqrt(2)`` and the rule is the same.  ``||S||``, the larger
    ``sigma_max`` of the half-blocks, is the one their staircases found
    (:attr:`ginv.Staircase.norm_bound`), kept as that unit-scale number
    and the exponent of the half-blocks' unit copies, because it can exceed
    the float maximum.  Column i is formed at the scale ``2**-e_i``, ``e_i``
    the larger of its generator's exponent ``f_i`` (``sys._rhs``) and that of
    ``||S|| max|x_i|``; a zero column of x adds nothing, so an x lost to
    underflow is judged against y itself.  M is read as its unit copy
    (:attr:`ginv.MatrixPowers.unit`), x is brought to the rest of that
    scale, and w (or ``P w``, which is ``unit - outside``) and its norm are
    brought from the unit copy of y by ``2**(f_i - e_i)``, so no term
    overflows, whatever the scales of y, S and x.  The backward-error test
    reads those columns; the exponent is applied once, to the max-over-r
    norm, which reads inf if it lies beyond the float range.  Scaling by a
    power of two is exact, so a residual in the normal range has the bits of
    the unscaled one."""
    _, unit, f, size = sys._rhs
    # |A| and A have the same largest entry, so their unit copies share one exponent
    norm, scale = max(h.staircase(tol).norm_bound for h in sys.halves), sys.halves[0].exponent
    exp = math.frexp(norm)[1] + scale  # ||S|| = norm * 2**scale can exceed the float range
    top_x = np.abs(x).max(axis=0)
    e = np.where(top_x > 0, np.maximum(f, exp + np.frexp(top_x)[1]), f)
    x_h = np.ldexp(_butterfly(0.5 * x), scale - e)
    g = np.concatenate([h.unit @ xi for h, xi in zip(sys.halves, (x_h[:sys.n], x_h[sys.n:]))])
    g -= np.ldexp(unit if outside is None else unit - outside, f - e)
    beyond = False
    if outside is None:  # 2-norms with the bits of np.linalg.norm's, without its overhead
        bound = tol.residual_tol * (norm * np.sqrt((x_h * x_h).sum(axis=0)) + np.ldexp(size, f - e))
        beyond = bool(np.any(np.sqrt((g * g).sum(axis=0)) > bound))
    g = _butterfly(np.ldexp(g, e - e.max()))  # the norm is convex in r: its max is at 0 or 1
    with np.errstate(over="ignore"):
        top = max(np.abs(g[:, 0]).max(), np.abs(g[:, 0] + g[:, 1]).max())
        return float(np.ldexp(top, e.max())), beyond
