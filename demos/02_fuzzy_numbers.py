#!/usr/bin/env python3
# Parametric fuzzy numbers: affine endpoint functions, arithmetic, validity.

import numpy as np

from fuzzylinsys import AffineFn, FuzzyNumber, add, scalar_mul, validity

# A fuzzy number is a pair of endpoint functions on r in [0, 1]: the lower
# endpoint rises toward the peak, the upper endpoint falls toward it.
# (-1 + 3r, 3 - r) models "around 2, between -1 and 3".
a = FuzzyNumber(lower=AffineFn(-1, 3), upper=AffineFn(3, -1))
b = FuzzyNumber(lower=AffineFn(-6, 2), upper=AffineFn(2, -6))

print("a at r=0:", (a.lower(0), a.upper(0)), " at r=1:", (a.lower(1), a.upper(1)))

# Addition is endpointwise; scaling by a negative number swaps the endpoints.
print("a + b =", add(a, b))
print("-2 * a =", scalar_mul(-2.0, a))
print("operator sugar: a + b == add(a, b):", (a + b) == add(a, b))

# Validity checks the three membership requirements: lower nondecreasing,
# upper nonincreasing, lower <= upper.
print("\nvalidity(a):", validity(a))

# Solver output may violate them; such values are carried and flagged,
# never rejected.  This one fails the ordering clause only:
weak = FuzzyNumber(lower=AffineFn(0, 2), upper=AffineFn(-4, 0))
print("validity((2r, -4)):", validity(weak))

# ... and this one fails all three clauses:
bad = FuzzyNumber(lower=AffineFn(0.625, -1.125), upper=AffineFn(-0.625, 1.125))
print("validity((0.625-1.125r, -0.625+1.125r)):", validity(bad))

# The endpoints evaluate elementwise on an array of r values, handy for
# plotting or tabulating.
r = np.linspace(0.0, 1.0, 5)
print("\nr     :", r)
print("lower :", a.lower(r))
print("upper :", a.upper(r))

# On a dense grid a valid fuzzy number keeps its endpoints ordered.
r = np.linspace(0.0, 1.0, 101)
print("lower <= upper everywhere:", bool(np.all(a.lower(r) <= a.upper(r))))
