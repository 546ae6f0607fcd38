"""Reference routes for the tests.

Exact rational-arithmetic oracles, independent of the library under test,
and the full-size route of the solver: classification and membership decided
by factorizing the 2n x 2n associated matrix S itself, as the solver did
before it worked on the half-blocks ``|A|`` and ``A``.  The full-size route
judges every rank on the scale of S (order 2n, ``sigma_max(S)``) and decides
the augmented rank and membership by separate SVD and least-squares cutoffs;
the solver makes one rank decision per half-block, on that block's own
scale, and reads the rest from it.  ``||A||_F = || |A| ||_F``, so the two
scales differ by at most a factor ``2 sqrt(n)``.  The range staircase with an
SVD at every step gives the rank sequences that the solver's certified
staircase must reproduce.
"""

from fractions import Fraction

import numpy as np

from fuzzylinsys import (
    CONSISTENT_INFINITE,
    CONSISTENT_UNIQUE,
    DEFAULT_TOLERANCES,
    INCONSISTENT,
    METHOD_2I,
    METHOD_CORE_EP,
    METHOD_INVERSE,
    Classification,
    build_associated,
    core_ep_from_blocks,
    in_column_space,
    index_power,
    rank,
)


def exact_rank(rows) -> int:
    """Rank by fraction-free Gaussian elimination; exact for rational entries."""
    m = [[Fraction(v) for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0])
    pivot_row = 0
    for col in range(n_cols):
        pr = next((r for r in range(pivot_row, n_rows) if m[r][col] != 0), None)
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        pivot = m[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            if m[r][col] != 0:
                f = m[r][col] / pivot
                m[r] = [a - f * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return pivot_row


def int_matmul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(mid)) for j in range(m)] for i in range(n)
    ]


def int_matpow(a, k):
    n = len(a)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(k):
        result = int_matmul(result, a)
    return result


def exact_index(s) -> int:
    """Smallest k with rank(S^(k+1)) == rank(S^k), in exact arithmetic."""
    n = len(s)
    prev = n
    power = int_matpow(s, 0)
    for k in range(1, n + 2):
        power = int_matmul(power, s)
        r = exact_rank(power)
        if r == prev:
            return k - 1
        prev = r
    raise AssertionError("index did not stabilize; oracle bug")


def exact_in_colspace(sk, y) -> bool:
    augmented = [row + [yi] for row, yi in zip(sk, y)]
    return exact_rank(augmented) == exact_rank(sk)


def svd_staircase_ranks(m, tol=DEFAULT_TOLERANCES) -> list[int]:
    """Ranks of ``m**0, m**1, ...`` up to the first repeat by the range
    staircase with an SVD at every step: the rank of ``m**j`` counts the
    singular values of ``m B`` above ``j * cutoff * sigma_max(m)``, B an
    orthonormal basis of ``col(m**(j-1))`` taken from the left singular
    vectors where the rank dropped.  The solver decides the same ranks but
    skips the SVD where a lower bound on the smallest singular value
    already clears that floor."""
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    cutoff = tol.rank_cutoff(a.shape)
    ranks, b = [n], np.eye(n)
    for j in range(1, n + 2):
        r = 0
        if ranks[-1]:
            s = np.linalg.svd(a @ b, compute_uv=False)
            if j == 1:
                smax = s[0]
            r = int(np.count_nonzero(s > j * cutoff * smax))
            if r < ranks[-1]:
                b = np.linalg.svd(a @ b, full_matrices=False)[0][:, :r]
        ranks.append(r)
        if r == ranks[-2]:
            return ranks
    raise AssertionError("rank sequence did not stabilize; oracle bug")


def classify_2n(sys, tol=DEFAULT_TOLERANCES) -> Classification:
    """Classification from ``rank(S)``, ``rank([S | y0 | y1])`` and the index
    of S, each computed on the 2n x 2n matrix."""
    rank_s = rank(sys.s, tol)
    rank_aug = rank(np.column_stack([sys.s, sys.y0, sys.y1]), tol)
    index_s = index_power(sys.s, tol)[0]
    if rank_s < rank_aug:
        kind = INCONSISTENT
    elif rank_s == sys.s.shape[0]:
        kind = CONSISTENT_UNIQUE
    else:
        kind = CONSISTENT_INFINITE
    return Classification(kind=kind, rank_s=rank_s, rank_aug=rank_aug, index_s=index_s)


def member_2n(sys, tol=DEFAULT_TOLERANCES) -> bool:
    """Whether y0 and y1 lie in the column space of ``S**k`` (k the index of
    S), by least squares against the 2n x 2n power."""
    k, sk, _ = index_power(sys.s, tol)
    if k == 0:
        return True
    return in_column_space(sk, sys.y0, tol) and in_column_space(sk, sys.y1, tol)


def solve_2n(problem, tol=DEFAULT_TOLERANCES):
    """``(classification, method, is_generalized, x)`` of the automatic route
    decided on the 2n x 2n matrix; ``x`` is ``[x0 x1]``, by a full-size
    linear solve at index 0 and by the block-assembled ``S^ce`` otherwise."""
    sys = build_associated(problem)
    cls = classify_2n(sys, tol)
    member = member_2n(sys, tol)
    y = np.column_stack([sys.y0, sys.y1])
    if cls.index_s == 0:
        return cls, METHOD_INVERSE, False, np.linalg.solve(sys.s, y)
    method = METHOD_CORE_EP if member else METHOD_2I
    return cls, method, not member, core_ep_from_blocks(sys.d, sys.e, tol) @ y
