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
orthonormal basis B per half-block power, and ``M^ce = B (B^T M B)^-1 B^T``
with B a basis of ``col(M**k)`` (Wang's core-EP decomposition).  No 2n x 2n
matrix is formed or factorized: products with S go through the half-blocks
too.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ginv
from ._util import as_square
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
    """A crisp square coefficient matrix with a fuzzy right-hand side."""

    a: np.ndarray
    y: list[FuzzyNumber]

    def __post_init__(self):
        self.a = as_square(self.a)
        self.y = list(self.y)
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
        """The half-blocks ``|A| = D + E`` and ``A = D - E`` with the ranks and
        range bases of their powers, shared by every stage that asks about
        this system; built on first use."""
        return ginv.MatrixPowers(self.d + self.e), ginv.MatrixPowers(self.d - self.e)

    @cached_property
    def _rhs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(y, peak, size)``: the generators ``y = [y0 y1]``, the largest
        entry of each (raised to the smallest normal float, so that a zero
        one divides by that) and the norm of each divided by it: the scale on
        which every residual of this system is judged (:func:`_residual_rank`);
        built on first use."""
        y = np.column_stack([self.y0, self.y1])
        peak = np.maximum(np.abs(y).max(axis=0), _TINY)
        return y, peak, np.linalg.norm(y / peak, axis=0)


@dataclass(frozen=True)
class Classification:
    kind: str
    rank_s: int
    rank_aug: int
    index_s: int


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
    ranges = [h.ranges(tol) for h in sys.halves]
    rank_s = sum(ranks[1] for ranks, _ in ranges)
    index_s = max(len(ranks) - 2 for ranks, _ in ranges)
    y = sys._rhs[0]
    rank_aug = rank_s + _residual_rank(_outside([b[1] for _, b in ranges], y), sys, tol)
    if rank_s < rank_aug:
        kind = INCONSISTENT
    elif rank_s == 2 * sys.n:
        kind = CONSISTENT_UNIQUE
    else:
        kind = CONSISTENT_INFINITE
    return Classification(kind=kind, rank_s=rank_s, rank_aug=rank_aug, index_s=index_s)


def core_ep_from_blocks(d, e, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core-EP inverse of ``[[d, e], [e, d]]`` assembled from its blocks.

    The block structure ``[[h, z], [z, h]]`` holds with
    ``h = ((d+e)^ce + (d-e)^ce) / 2`` and ``z = ((d+e)^ce - (d-e)^ce) / 2``,
    so only two half-size core-EP inverses are needed.
    """
    d = as_square(d)
    e = as_square(e)
    if d.shape != e.shape:
        raise DimensionMismatchError(f"block shapes differ: {d.shape} vs {e.shape}")
    p = ginv.core_ep_via_formula(d + e, tol)
    q = ginv.core_ep_via_formula(d - e, tol)
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
    0 (see :func:`classify`), and the solution is ``S^ce Y``, from
    ``B (B^T M B)^-1 B^T`` on each half; at index 0, B = I and this is the
    plain solve.

    The residual is the max over r in [0, 1] of the infinity norm of
    ``S X(r) - Y(r)`` for exact solutions, or of the auxiliary-system
    mismatch ``S X(r) - P Y(r)`` for generalized ones.
    """
    sys = build_associated(problem)
    cls = classify(sys, tol)
    k = cls.index_s
    y = sys._rhs[0]
    bases = _bases(sys, tol)
    outside = _outside(bases, y)
    member = _residual_rank(outside, sys, tol) == 0

    if method is None:
        method = METHOD_INVERSE if k == 0 else METHOD_CORE_EP if member else METHOD_2I
    elif method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if method == METHOD_INVERSE and k != 0:
        raise IndexTooLargeError(f"direct inversion requires matrix index 0, got {k}")

    x = _from_halves(*(h.core_ep_apply(wi, tol) for h, wi in zip(sys.halves, _to_halves(y))))
    x0, x1 = x.T.copy()

    sx = _s_apply(sys, x)
    if member:
        g = sx - y
        residual = _max_over_r(g)
        if _residual_rank(g, sys, tol):
            raise NumericalFailureError(
                f"exact route left residual {residual:.3e}; membership test and "
                "solution disagree under the tolerance policy"
            )
    elif method == METHOD_2II:
        residual = _max_over_r(_power_transpose_apply(sys, bases, k, sx - y))
    else:
        residual = _max_over_r(sx - y + outside)

    fuzzy_x = _to_fuzzy(x0, x1, sys.n)
    verdicts = [validity(fn, tol.equality_tol) for fn in fuzzy_x]
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


def verify_solution(
    sys: AssociatedSystem,
    report: SolveReport,
    tol: TolerancePolicy = DEFAULT_TOLERANCES,
) -> float:
    """Re-substitute a reported solution and return the max residual over r.

    Exact solutions are checked against the original right-hand side;
    generalized ones against the right-hand side ``P Y(r)`` of the auxiliary
    consistent system, P the orthogonal projector onto the column space of
    ``S**k`` that :func:`solve` uses (equal to ``S^k (S^k)^(1,3)``).
    """
    rhs = sys._rhs[0]
    if report.is_generalized:
        rhs = rhs - _outside(_bases(sys, tol), rhs)
    x = np.column_stack([report.crisp_x0, report.crisp_x1])
    return _max_over_r(_s_apply(sys, x) - rhs)


def _to_halves(v: np.ndarray):
    """``(top + bottom, top - bottom)`` of a 2n-row array: ``sqrt(2) Q v``."""
    n = v.shape[0] // 2
    return v[:n] + v[n:], v[:n] - v[n:]


def _from_halves(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``[p + q; p - q] / 2``: the inverse of :func:`_to_halves`, ``Q [p; q] / sqrt(2)``."""
    return 0.5 * np.concatenate([p + q, p - q])


def _s_apply(sys: AssociatedSystem, x: np.ndarray) -> np.ndarray:
    """``S x`` through the half-blocks, ``Q diag(|A|, A) Q x``: S is not formed."""
    return _from_halves(*(h.m @ xi for h, xi in zip(sys.halves, _to_halves(x))))


def _bases(sys: AssociatedSystem, tol: TolerancePolicy):
    """Orthonormal bases of the column spaces of ``|A|**k`` and ``A**k``,
    each half-block at its own index k; Q turns them into a basis of the
    column space of ``S**k``."""
    return [h.ranges(tol)[1][-2] for h in sys.halves]


def _outside(bases, y: np.ndarray) -> np.ndarray:
    """``(I - P) y`` for a 2n-row y, P the orthogonal projector onto the
    column space that ``bases`` (from :func:`_bases`) span."""
    return _from_halves(*(w - b @ (b.T @ w) for b, w in zip(bases, _to_halves(y))))


def _residual_rank(g: np.ndarray, sys: AssociatedSystem, tol: TolerancePolicy) -> int:
    """Rank of a residual g of the two generators y of ``sys``, such as
    ``(I - P) y`` or ``S x - y``.

    A column within ``residual_tol * ||y_i||`` of its generator ``y_i`` counts
    as zero, both norms taken on the scale of ``sys._rhs``: each column
    divided by the largest entry of its generator.  So every decision is
    relative to the generator alone, whatever its scale, no norm overflows or
    underflows, and a zero generator, whose residual is zero, gets the bound
    0.  Those are dropped first: with both left, the second counts only by its
    part orthogonal to the first (``R[1, 1]`` of a QR of g), so an in-bound
    roundoff residual never hides a real one parallel to it.
    """
    _, peak, size = sys._rhs
    g = g / peak
    bound = tol.residual_tol * size
    norms = np.linalg.norm(g, axis=0)
    if not np.all(norms > bound):
        return int(np.count_nonzero(norms > bound))
    u = g[:, 0] / norms[0]
    return 1 + int(np.linalg.norm(g[:, 1] - u * (u @ g[:, 1])) > bound[1])


def _power_transpose_apply(sys: AssociatedSystem, bases, k: int, g: np.ndarray):
    """``(S**k)^T g = (S**k)^T P g`` through the half-blocks, P the projector
    onto the column space of ``S**k`` that ``bases`` (from :func:`_bases`)
    span, by k products with each ``M^T``: no power is formed, and a
    half-block whose power is numerically zero contributes zero."""
    halves = []
    for h, b, gi in zip(sys.halves, bases, _to_halves(g)):
        gi = b @ (b.T @ gi)
        for _ in range(k):
            gi = h.m.T @ gi
        halves.append(gi)
    return _from_halves(*halves)


def _to_fuzzy(x0: np.ndarray, x1: np.ndarray, n: int) -> list[FuzzyNumber]:
    # Rows n..2n of the crisp solution carry the negated upper endpoints.
    return [
        FuzzyNumber(
            lower=AffineFn(float(x0[i]), float(x1[i])),
            upper=AffineFn(float(-x0[n + i]), float(-x1[n + i])),
        )
        for i in range(n)
    ]


def _max_over_r(g: np.ndarray) -> float:
    """Max over r in [0, 1] of the infinity norm of the affine family
    ``g[:, 0] + r * g[:, 1]``.  The norm is convex in r, so the max is at an
    endpoint."""
    return max(float(np.linalg.norm(g[:, 0], np.inf)),
               float(np.linalg.norm(g[:, 0] + g[:, 1], np.inf)))
