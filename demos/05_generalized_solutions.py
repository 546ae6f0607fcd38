#!/usr/bin/env python3
# Inconsistent systems have no exact solution; the core-EP inverse of the
# associated matrix still yields a generalized one, obtained by solving an
# auxiliary system that is consistent by construction.

import numpy as np

from fuzzylinsys import (
    METHOD_2I,
    METHOD_2II,
    AffineFn,
    FlsProblem,
    FuzzyNumber,
    build_associated,
    core_ep_from_blocks,
    core_ep_via_formula,
    solve,
    verify_solution,
)

np.set_printoptions(precision=4, suppress=True)


def fz(l0, l1, u0, u1):
    return FuzzyNumber(AffineFn(l0, l1), AffineFn(u0, u1))


problem = FlsProblem(
    a=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    y=[fz(3, 0, 2, 1), fz(4, 0, 0, 8)],
)
sys = build_associated(problem)

report = solve(problem)
print(report.classification)
print("generalized:", report.is_generalized)
for i, fn in enumerate(report.fuzzy_x, 1):
    print(f"x~{i} = ({fn.lower.c0:.4g} {fn.lower.c1:+.4g}r, "
          f"{fn.upper.c0:.4g} {fn.upper.c1:+.4g}r)")

# The auxiliary system is solved exactly ...
print("auxiliary residual:", f"{verify_solution(sys, report):.2e}")

# ... while the original system is genuinely missed; that is what makes the
# answer generalized rather than exact.
import dataclasses
raw = dataclasses.replace(report, is_generalized=False)
print("raw residual vs original rhs:", f"{verify_solution(sys, raw):.2f}")

# Two auxiliary formulations exist; both reduce to the same product with the
# core-EP inverse, so the answers coincide to the last bit.
r_i = solve(problem, method=METHOD_2I)
r_ii = solve(problem, method=METHOD_2II)
print("variant answers identical:", np.array_equal(r_i.crisp_x0, r_ii.crisp_x0)
      and np.array_equal(r_i.crisp_x1, r_ii.crisp_x1))

# The core-EP inverse of the 2n x 2n matrix never has to be formed at full
# size: it inherits the [[h, z], [z, h]] block layout, with h and z built
# from the two half-size inverses of |a| = d + e and a = d - e, each from its
# half-block's staircase.  The power formula on the full matrix is an
# independent check.
blocked = core_ep_from_blocks(sys.d, sys.e)
direct = core_ep_via_formula(sys.s)
print("\nblock-assembled core-EP inverse:\n", blocked)
print("matches the power formula on S to", np.abs(blocked - direct).max())
