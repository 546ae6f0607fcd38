"""Seeded problem generator and the independent oracle the benchmark checks against.

Every generated matrix is ``A = U [[T, C], [0, N]] U^T`` with ``U`` orthogonal,
``T`` an orthogonal matrix times a diagonal with entries in [0.5, 2] (so
``T`` is nonsingular with singular values in [0.5, 2]) and ``N`` a nilpotent
chain of Jordan blocks of size ``k`` (the last one possibly shorter), so the
index of ``A`` is exactly ``k`` and its core-EP inverse is known in closed
form, ``A^ce = U [[T^-1, 0], [0, 0]] U^T`` (Wang, LAA 508, 2016).

The fuzzy system's associated matrix ``S = [[D, E], [E, D]]`` satisfies
``Q S Q = diag(|A|, A)`` with ``Q = [[I, I], [I, -I]] / sqrt(2)``, so the
expected classification and the reference solution ``X = S^ce Y`` follow
from the construction without calling the package under test.  The
generator only accepts draws on which every decision the solver makes is
clear of the package's default tolerances (``decisions_clear``): a property
of the input, judged from the construction, never of a solver answer.

The three fixture files hold small integer problems; they are checked
against an exact rational-arithmetic oracle instead.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CONSISTENT_UNIQUE = "ConsistentUnique"
CONSISTENT_INFINITE = "ConsistentInfinite"
INCONSISTENT = "Inconsistent"
METHOD_INVERSE = "Inverse"
METHOD_CORE_EP = "CoreEp"
METHOD_2I = "Method2-i"

# The package's default decision tolerances (``ginv.TolerancePolicy``): a
# singular value counts as zero below ``order * eps`` times the largest one,
# and a right-hand side is in a column space when the least-squares residual
# is below ``RESIDUAL_TOL * max(1, |y|)``.
RESIDUAL_TOL = 1e-8
# How far clear of those tolerances every decision on a generated system
# must be, in exact arithmetic.
DECISION_MARGIN = 10.0

# Allowed 2-norm error of a returned solution, relative to max(1, |reference|).
SOLUTION_RTOL = 1e-8
# Tolerance for solutions read from a text report, whose numbers carry six
# significant digits.
TEXT_RTOL = 1e-5


@dataclass
class Expected:
    """What a correct solve must report, and the reference crisp solution."""

    kind: str
    rank_s: int
    rank_aug: int
    index_s: int
    method: str
    is_generalized: bool
    x0: np.ndarray
    x1: np.ndarray


@dataclass
class SolveCase:
    """One fuzzy linear system: ``a`` and the stacked right-hand side ``y0 + r*y1``."""

    a: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    expected: Expected

    def problem_doc(self) -> dict:
        """The case as a problem-file document (see the package README)."""
        n = self.a.shape[0]
        return {
            "a": self.a.tolist(),
            "y": [
                {"lower": [float(self.y0[i]), float(self.y1[i])],
                 "upper": [float(-self.y0[n + i]), float(-self.y1[n + i])]}
                for i in range(n)
            ],
        }


@dataclass
class EngineCase:
    """One square matrix of known index with its constructed core-EP inverse."""

    a: np.ndarray
    k: int
    rho: int
    a_ce: np.ndarray


@dataclass
class Construction:
    """The generator's factors: ``a = u @ [[t, c], [0, n_block]] @ u.T``."""

    a: np.ndarray
    u: np.ndarray
    t: np.ndarray
    n_block: np.ndarray
    k: int

    @property
    def rho(self) -> int:
        return self.t.shape[0]

    @property
    def rank(self) -> int:
        return self.rho + int(np.count_nonzero(self.n_block.any(axis=1)))

    @property
    def outside_rows(self) -> np.ndarray:
        """Rows of the null block outside ``col(N)``: the zero rows of ``N``."""
        return np.flatnonzero(~self.n_block.any(axis=1))

    def core_ep_apply(self, v: np.ndarray) -> np.ndarray:
        """``A^ce v = U1 T^-1 U1^T v`` without forming ``A^ce``."""
        u1 = self.u[:, : self.rho]
        return u1 @ np.linalg.solve(self.t, u1.T @ v)

    def core_ep(self) -> np.ndarray:
        u1 = self.u[:, : self.rho]
        return u1 @ np.linalg.solve(self.t, u1.T)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def nilpotent_chain(m: int, k: int) -> np.ndarray:
    """Jordan blocks of size ``k`` (the last may be shorter) with unit superdiagonals."""
    n_block = np.zeros((m, m))
    for i in range(m - 1):
        if (i + 1) % k:
            n_block[i, i + 1] = 1.0
    return n_block


def construct(rng: np.random.Generator, n: int, k: int, spread: float) -> Construction:
    """Random ``n x n`` matrix of index ``k``.

    The null block's size is the point ``spread`` (in [0, 1)) of the range
    [k, max(k, n/4)], so a workload can spread it evenly over its inputs.
    """
    if not 0 <= k < n:
        raise ValueError(f"index {k} out of range for order {n}")
    m = k + int(spread * (max(k, n // 4) - k + 1)) if k else 0
    rho = n - m
    t = random_orthogonal(rng, rho) * rng.uniform(0.5, 2.0, rho)
    n_block = nilpotent_chain(m, k) if k else np.zeros((0, 0))
    core = np.zeros((n, n))
    core[:rho, :rho] = t
    core[:rho, rho:] = rng.standard_normal((rho, m)) / np.sqrt(max(rho, 1))
    core[rho:, rho:] = n_block
    u = random_orthogonal(rng, n)
    return Construction(a=u @ core @ u.T, u=u, t=t, n_block=n_block, k=k)


def solve_case(rng: np.random.Generator, n: int, k: int, consistent: bool,
               spread: float) -> SolveCase:
    """A fuzzy system whose ``A`` has index ``k``, drawn until
    ``decisions_clear`` accepts it.

    Consistent cases put ``Y`` in ``col(S^k)``, so the solver takes the exact
    core-EP route.  Inconsistent ones add to ``y_top - y_bot`` a component
    outside ``col(A)``, so ``Y`` leaves ``col(S)`` and the solver returns a
    generalized solution.  The right-hand side is a valid fuzzy vector
    (lower endpoint nondecreasing, upper nonincreasing, lower <= upper).
    """
    while True:
        con, y0, y1 = draw_system(rng, n, k, consistent, spread)
        if decisions_clear(con, y0, y1, consistent):
            return make_solve_case(con, y0, y1, consistent)


def draw_system(rng: np.random.Generator, n: int, k: int, consistent: bool, spread: float):
    """One draw of ``solve_case``: the construction and ``y0``, ``y1``."""
    con = construct(rng, n, k, spread)
    rho = con.rho

    def difference():
        d = con.u[:, :rho] @ rng.standard_normal(rho)
        if not consistent:
            w = np.zeros(n - rho)
            w[con.outside_rows] = rng.standard_normal(con.outside_rows.size)
            d = d + con.u[:, rho:] @ w
        return d

    d0, d1 = difference(), difference()
    s1 = np.abs(d1) + rng.uniform(0.1, 1.0, n)
    s0 = -s1 - rng.uniform(0.1, 1.0, n)
    y0 = np.concatenate([(s0 + d0) / 2, (s0 - d0) / 2])
    y1 = np.concatenate([(s1 + d1) / 2, (s1 - d1) / 2])
    return con, y0, y1


def make_solve_case(con: Construction, y0: np.ndarray, y1: np.ndarray,
                    consistent: bool) -> SolveCase:
    """The system drawn by ``draw_system`` with its expected report."""
    n, k = con.a.shape[0], con.k
    abs_a = np.abs(con.a)

    def reference(y):
        p = 0.5 * (y[:n] + y[n:])
        q = 0.5 * (y[:n] - y[n:])
        top = np.linalg.solve(abs_a, p)
        bot = con.core_ep_apply(q)
        return np.concatenate([top + bot, top - bot])

    rank_s = n + con.rank
    if k == 0:
        kind, method = CONSISTENT_UNIQUE, METHOD_INVERSE
    elif consistent:
        kind, method = CONSISTENT_INFINITE, METHOD_CORE_EP
    else:
        kind, method = INCONSISTENT, METHOD_2I
    expected = Expected(
        kind=kind,
        rank_s=rank_s,
        rank_aug=rank_s if consistent else rank_s + min(2, con.outside_rows.size),
        index_s=k,
        method=method,
        is_generalized=not consistent,
        x0=reference(y0),
        x1=reference(y1),
    )
    return SolveCase(a=con.a, y0=y0, y1=y1, expected=expected)


def decisions_clear(con: Construction, y0: np.ndarray, y1: np.ndarray,
                    consistent: bool) -> bool:
    """Whether every decision the solver makes on the system is clear of the
    package's default tolerances by ``DECISION_MARGIN``, judged from the
    construction (Frobenius norms stand in for 2-norms, which only makes the
    test stricter) and from the powers of ``A`` as formed in doubles.

    * Ranks of ``S^j``: the index comes from them for ``j <= k + 1``, cut at
      ``2n * eps`` times the largest singular value.  The nonsingular part
      shrinks fastest with ``j``: with ``S ~ diag(|A|, A)``, the smallest
      nonzero singular value of ``S^(k+1)`` is at least that of ``|A|^(k+1)``
      or ``T^(k+1)``.
    * Ranks of ``A^j`` alone, for the core-EP inverse of each half-block: the
      roundoff that forming ``A^j`` leaves in its null space must stay under
      the cutoff ``n * eps`` times its largest singular value.
    * Residuals, on consistent systems: a residual of ``S^j z - y``
      evaluated in doubles does not fall below about ``eps * |S^j| * |z|``
      for the solution ``z``: ``j = k`` in the membership test of ``Y`` in
      ``col(S^k)``, and ``j = 1`` for the returned ``X``.

    Past these limits, powers of ``S`` lose the nonsingular part to
    roundoff, or the roundoff in powers of ``A`` counts toward their rank:
    the index comes out too high, a consistent system looks inconsistent, or
    the core-EP inverse is wrong.  That is a known defect of the package's power-rank
    decisions, which misjudge such inputs although their exact index and
    solution are well defined; the workloads leave these draws out rather
    than time them as failures.
    """
    n, k = con.a.shape[0], con.k
    eps = np.finfo(float).eps
    power = np.linalg.matrix_power
    abs_a = np.abs(con.a)
    try:
        inv_abs = np.linalg.inv(abs_a)
    except np.linalg.LinAlgError:  # |A| singular in doubles
        return False
    inv_t = np.linalg.inv(con.t)

    def norm_s(j):
        return max(np.linalg.norm(power(abs_a, j)), np.linalg.norm(power(con.a, j)))

    j = k + 1
    smallest = 1.0 / max(np.linalg.norm(power(inv_abs, j)), np.linalg.norm(power(inv_t, j)))
    if norm_s(j) / smallest * DECISION_MARGIN > 1.0 / (2 * n * eps):
        return False
    for j in range(1, k + 2):
        sv = np.linalg.svd(power(con.a, j), compute_uv=False)
        rank = con.rho + np.count_nonzero(power(con.n_block, j).any(axis=1))
        if rank < n and sv[rank] * DECISION_MARGIN > n * eps * sv[0]:
            return False
    if not consistent:
        return True
    u1 = con.u[:, : con.rho]
    for y in (y0, y1):
        p = 0.5 * (y[:n] + y[n:])
        q = 0.5 * (y[:n] - y[n:])
        for j in {1, k} - {0}:
            z = np.sqrt(2.0) * np.hypot(np.linalg.norm(power(inv_abs, j) @ p),
                                        np.linalg.norm(power(inv_t, j) @ (u1.T @ q)))
            if eps * norm_s(j) * z * DECISION_MARGIN > RESIDUAL_TOL * max(1.0, np.linalg.norm(y)):
                return False
    return True


def engine_case(rng: np.random.Generator, n: int, k: int, spread: float) -> EngineCase:
    con = construct(rng, n, k, spread)
    return EngineCase(a=con.a, k=k, rho=con.rho, a_ce=con.core_ep())


# -- exact oracle for the integer fixture problems ---------------------------

def _exact(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _rref(a):
    """Reduced row echelon form and pivot columns, in exact arithmetic."""
    m = [row[:] for row in a]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _rank(a) -> int:
    return len(_rref(a)[1])


def _inverse(a):
    n = len(a)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    red, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def _pinv(a):
    """Moore-Penrose inverse from the full-rank factorization ``a = F G``."""
    red, pivots = _rref(a)
    if not pivots:
        return [[Fraction(0)] * len(a) for _ in a[0]]
    f = [[row[c] for c in pivots] for row in a]
    g = red[: len(pivots)]
    ft, gt = _transpose(f), _transpose(g)
    return _matmul(_matmul(gt, _inverse(_matmul(g, gt))),
                   _matmul(_inverse(_matmul(ft, f)), ft))


def _power(a, k):
    p = [[Fraction(int(i == j)) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        p = _matmul(p, a)
    return p


def exact_expected(doc: dict) -> Expected:
    """Expected report for a problem document, in exact rational arithmetic.

    Uses ``S^ce = S^k (S^(k+1))^+`` for the reference solution, a route
    independent of the package's ``A^k [(A^T)^k A^(k+1)]^+ (A^T)^k``.
    """
    a = _exact(doc["a"])
    n = len(a)
    d = [[max(v, 0) for v in row] for row in a]
    e = [[max(-v, 0) for v in row] for row in a]
    s = [dr + er for dr, er in zip(d, e)] + [er + dr for dr, er in zip(d, e)]
    y0 = [Fraction(r["lower"][0]) for r in doc["y"]] + [-Fraction(r["upper"][0]) for r in doc["y"]]
    y1 = [Fraction(r["lower"][1]) for r in doc["y"]] + [-Fraction(r["upper"][1]) for r in doc["y"]]

    def augmented(m):
        return [row + [v0, v1] for row, v0, v1 in zip(m, y0, y1)]

    rank_s = _rank(s)
    rank_aug = _rank(augmented(s))
    k, prev = 0, 2 * n
    while _rank(_power(s, k + 1)) != prev:
        k += 1
        prev = _rank(_power(s, k))
    sk = _power(s, k)
    member = _rank(augmented(sk)) == _rank(sk)
    s_ce = _matmul(sk, _pinv(_power(s, k + 1)))
    x0 = [sum(r * v for r, v in zip(row, y0)) for row in s_ce]
    x1 = [sum(r * v for r, v in zip(row, y1)) for row in s_ce]

    if rank_s < rank_aug:
        kind = INCONSISTENT
    elif rank_s == 2 * n:
        kind = CONSISTENT_UNIQUE
    else:
        kind = CONSISTENT_INFINITE
    method = METHOD_INVERSE if k == 0 else (METHOD_CORE_EP if member else METHOD_2I)
    return Expected(
        kind=kind,
        rank_s=rank_s,
        rank_aug=rank_aug,
        index_s=k,
        method=method,
        is_generalized=not member,
        x0=np.array([float(v) for v in x0]),
        x1=np.array([float(v) for v in x1]),
    )


def load_doc(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- checks --------------------------------------------------------------------

def relative_error(got, want) -> float:
    got = np.asarray(got, dtype=float)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1.0))


def check_solution(exp: Expected, classification: dict, method: str, is_generalized: bool,
                   x0, x1, fuzzy, verdicts, equality_tol: float,
                   rtol: float = SOLUTION_RTOL) -> tuple[bool, bool]:
    """Judge one reported solve against the oracle.

    Returns ``(class_ok, solution_ok)``.  ``class_ok`` covers what the solver
    decided about the system: kind, both ranks, the index, and the route that
    follows from them (method, generalized flag).  ``solution_ok`` covers the
    numbers it returned: the crisp solution, its fuzzy back-mapping and the
    per-component validity verdicts.
    ``classification`` is a dict with the report's field names; ``fuzzy`` a
    list of ``((lower_c0, lower_c1), (upper_c0, upper_c1))``; ``verdicts`` a
    list of violated-clause tuples.
    """
    class_ok = (
        classification["kind"] == exp.kind
        and classification["rank_s"] == exp.rank_s
        and classification["rank_aug"] == exp.rank_aug
        and classification["index_s"] == exp.index_s
        and method == exp.method
        and is_generalized == exp.is_generalized
    )
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    n = exp.x0.size // 2
    ok = (
        x0.shape == exp.x0.shape
        and x1.shape == exp.x1.shape
        and relative_error(x0, exp.x0) <= rtol
        and relative_error(x1, exp.x1) <= rtol
        and len(fuzzy) == n
        and len(verdicts) == n
    )
    if ok:
        for i, ((l0, l1), (u0, u1)) in enumerate(fuzzy):
            if (l0, l1, u0, u1) != (x0[i], x1[i], -x0[n + i], -x1[n + i]):
                return class_ok, False
            if tuple(verdicts[i]) != _violations(exp, i, equality_tol):
                return class_ok, False
    return class_ok, ok


def _violations(exp: Expected, i: int, tol: float) -> tuple[int, ...]:
    """Validity clauses the reference solution's component ``i`` violates."""
    n = exp.x0.size // 2
    l0, l1 = exp.x0[i], exp.x1[i]
    u0, u1 = -exp.x0[n + i], -exp.x1[n + i]
    bad = []
    if l1 < -tol:
        bad.append(1)
    if u1 > tol:
        bad.append(2)
    if l0 > u0 + tol or l0 + l1 > u0 + u1 + tol:
        bad.append(3)
    return tuple(bad)
