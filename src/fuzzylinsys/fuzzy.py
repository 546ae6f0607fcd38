"""Parametric fuzzy numbers with affine endpoint functions.

A fuzzy number is a pair of endpoint functions (lower(r), upper(r)) on
r in [0, 1]; this module fixes the affine family ``c0 + c1*r``, which is
closed under the solver pipeline (matrix times affine vector stays affine).
Invalid pairs are representable on purpose: solver output may violate the
membership requirements and is then flagged, not rejected.
"""

from dataclasses import dataclass
from math import isfinite

from ._util import as_real

__all__ = [
    "AffineFn",
    "FuzzyNumber",
    "Validity",
    "add",
    "scalar_mul",
    "fuzzy_eq",
    "validity",
]


@dataclass(frozen=True)
class AffineFn:
    """The function ``r -> c0 + c1*r`` on [0, 1].  Each coefficient is a
    real number within the float range (see :func:`fuzzylinsys._util.as_real`)
    and finite; anything else raises ``ValueError``."""

    c0: float
    c1: float = 0.0

    def __post_init__(self):
        # a plain float, the only kind the solver passes, needs only the
        # finiteness test
        if type(self.c0) is not float or type(self.c1) is not float:
            for c in (self.c0, self.c1):
                as_real(c, "affine coefficients")
        if not (isfinite(self.c0) and isfinite(self.c1)):
            raise ValueError("affine coefficients must be finite")

    def __call__(self, r: float) -> float:
        return self.c0 + self.c1 * r

    def __add__(self, other: "AffineFn") -> "AffineFn":
        return AffineFn(self.c0 + other.c0, self.c1 + other.c1)

    def scaled(self, lam: float) -> "AffineFn":
        return AffineFn(lam * self.c0, lam * self.c1)


@dataclass(frozen=True)
class FuzzyNumber:
    """Pair of affine endpoint functions; may be invalid (see :func:`validity`)."""

    lower: AffineFn
    upper: AffineFn

    def __add__(self, other: "FuzzyNumber") -> "FuzzyNumber":
        return add(self, other)

    def __rmul__(self, lam: float) -> "FuzzyNumber":
        return scalar_mul(lam, self)


@dataclass(frozen=True)
class Validity:
    """Verdict of the membership-function checks; ``violations`` holds the
    failed clause numbers (1: lower nondecreasing, 2: upper nonincreasing,
    3: lower <= upper)."""

    violations: tuple[int, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not self.violations


def add(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Componentwise sum: lowers add, uppers add."""
    return FuzzyNumber(a.lower + b.lower, a.upper + b.upper)


def scalar_mul(lam: float, a: FuzzyNumber) -> FuzzyNumber:
    """Scale by ``lam``; negative scalars swap the endpoint functions."""
    if lam >= 0:
        return FuzzyNumber(a.lower.scaled(lam), a.upper.scaled(lam))
    return FuzzyNumber(a.upper.scaled(lam), a.lower.scaled(lam))


def fuzzy_eq(a: FuzzyNumber, b: FuzzyNumber, tol: float) -> bool:
    """Equality of the endpoint functions, coefficientwise within ``tol``."""
    return (
        abs(a.lower.c0 - b.lower.c0) <= tol
        and abs(a.lower.c1 - b.lower.c1) <= tol
        and abs(a.upper.c0 - b.upper.c0) <= tol
        and abs(a.upper.c1 - b.upper.c1) <= tol
    )


def validity(a: FuzzyNumber, tol: float = 0.0) -> Validity:
    """Check the three fuzzy-number requirements.

    Clause 1: lower endpoint nondecreasing (c1 >= 0); clause 2: upper
    endpoint nonincreasing (c1 <= 0); clause 3: lower(r) <= upper(r),
    checked at r = 0 and r = 1 (sufficient for affine differences).
    ``tol`` is a slack for floating-point solver output; the default is
    exact.  It must be finite and nonnegative: a NaN slack would pass every
    clause and a negative one fail valid numbers, so either raises
    ``ValueError``.
    """
    if not (tol >= 0.0 and isfinite(tol)):
        raise ValueError(f"validity slack must be finite and nonnegative, got {tol!r}")
    bad = []
    if a.lower.c1 < -tol:
        bad.append(1)
    if a.upper.c1 > tol:
        bad.append(2)
    if a.lower(0.0) > a.upper(0.0) + tol or a.lower(1.0) > a.upper(1.0) + tol:
        bad.append(3)
    return Validity(tuple(bad))
