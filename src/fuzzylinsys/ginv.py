"""Generalized-inverse engine for dense real matrices.

Provides a numerical rank with an explicit cutoff policy, the Moore-Penrose
inverse, the matrix index, the core and core-EP inverses (the latter by two
independent routes), and column-space membership tests.  Every result is a
pure function of the inputs: the functions take plain ``numpy`` arrays and
return new arrays.  The index search, the core-EP decomposition, both core-EP
routes and the core inverse read the ranks of the matrix's powers, and one
orthogonal frame whose prefixes span their column spaces, from a
:class:`MatrixPowers`, which they also take in place of the matrix; the
rank, the Moore-Penrose inverse and column-space membership of a square
matrix read the SVD that the
:class:`MatrixPowers` keeps, which the first step of its staircase shares,
and one rule decides the rank behind all three (:func:`_svd_of`).  Every
rank and factorization of a matrix is taken on one copy of it scaled by a
power of two to unit largest entry (:func:`_unit_scale`), so they do not
depend on its scale, up to the float maximum.  At
index 0 the power formula is ``A^+`` and reads that SVD too; it stays
independent of the decomposition route, which solves with the staircase's
core and takes no SVD of it.  The
core-EP inverse and the core inverse read the one core-EP inverse that the
:class:`MatrixPowers` keeps per tolerance policy, and each returns its own
copy.  Given a bare matrix, they keep its :class:`MatrixPowers` until the
next bare matrix arrives (one entry, see :func:`_as_powers`), so repeated
questions about one matrix decide those ranks, factorize the matrix and
invert it once either way.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from ._util import as_matrix, as_square, as_vector
from .errors import IndexTooLargeError, NumericalFailureError

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOLERANCES",
    "CoreEpDecomposition",
    "MatrixPowers",
    "Staircase",
    "rank",
    "moore_penrose",
    "one_three_inverse",
    "matrix_power",
    "matrix_index",
    "power_ranks",
    "core_ep_decompose",
    "core_ep_via_decomposition",
    "core_ep_via_formula",
    "core_inverse",
    "in_column_space",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical cutoffs used throughout the package.

    ``rank_rel_tol`` is the relative singular-value cutoff deciding rank;
    ``None`` means the usual shape-dependent default ``max(rows, cols) * eps``.
    ``residual_tol`` bounds residuals in membership and consistency checks
    relative to the vector y they are residuals of, ``residual_tol * ||y||``:
    a purely relative bound, with no absolute floor.  :func:`in_column_space`
    takes both norms on the unit-scale copy of y (:func:`_unit_scale`), the
    residual being the part of y off the left singular vectors of the matrix
    above the rank cutoff, and the solver on the generator in half coordinates,
    ``Q y / sqrt(2)``, each column scaled by a power of two to largest
    entry in [1/2, 1); Q is orthogonal, so the rule is the same.  The
    residual ``S x - y`` of an exact solution is bounded as a backward
    error, by ``residual_tol * (||S|| ||x|| + ||y||)``, in half coordinates
    too, each column taken at the power of two of the larger of
    ``||S|| max|x_i|`` and the largest entry of ``y_i``; a zero ``x_i``
    counts for nothing there, so an x lost to underflow fails the bound.
    ``equality_tol`` bounds matrix-equality comparisons, and it scales the
    slack of the validity verdicts, ``equality_tol * max|x|`` over the crisp
    solution (:func:`fuzzylinsys.fls.fuzzy_solution`), so that a verdict is
    relative to x.  Each is a real number in (0, 1), and ``rank_rel_tol``
    may be ``None``; any other value raises a ``ValueError`` that names the
    field.
    """

    rank_rel_tol: float | None = None
    residual_tol: float = 1e-8
    equality_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel_tol", "residual_tol", "equality_tol"):
            value = getattr(self, name)
            if name == "rank_rel_tol" and value is None:
                continue
            if not (isinstance(value, Real) and 0.0 < value < 1.0):
                raise ValueError(f"{name} must be a real number in (0, 1), got {value!r}")

    def rank_cutoff(self, shape) -> float:
        """Relative cutoff for the given matrix shape."""
        if self.rank_rel_tol is not None:
            return self.rank_rel_tol
        return max(shape) * np.finfo(float).eps


DEFAULT_TOLERANCES = TolerancePolicy()


@dataclass
class CoreEpDecomposition:
    """Orthogonal block triangularization ``a = u @ [[t, s], [0, n]] @ u.T``.

    ``t`` is nonsingular of order ``rank(a**k)`` where ``k`` is the matrix
    index, and ``n_block`` is nilpotent (``n_block**k == 0``), strictly upper
    triangular up to roundoff.  ``u`` is real orthogonal, and every prefix
    of it spans a power: its first ``rank(a**j)`` columns span the column
    space of ``a**j`` for each j, ``rank(a**k)`` of them that of ``a**k``.
    ``t`` has no further structure: any orthonormal basis of that space
    gives a valid decomposition (see :func:`core_ep_decompose` for the one
    chosen).
    """

    u: np.ndarray
    t: np.ndarray
    s_block: np.ndarray
    n_block: np.ndarray
    k: int

    @property
    def rho(self) -> int:
        return self.t.shape[0]

    def assemble(self) -> np.ndarray:
        """Reconstruct the original matrix from the factors."""
        n = self.u.shape[0]
        rho = self.rho
        core = np.zeros((n, n))
        core[:rho, :rho] = self.t
        core[:rho, rho:] = self.s_block
        core[rho:, rho:] = self.n_block
        return self.u @ core @ self.u.T


def rank(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> int:
    """Numerical rank: number of singular values above the relative cutoff.

    The singular values are those :func:`_svd_of` reads: for a square ``m``,
    bare or a :class:`MatrixPowers`, the SVD its :class:`MatrixPowers` keeps
    (see :func:`_as_powers`), as :func:`moore_penrose` and
    :func:`in_column_space` read it; the first step of its staircase applies
    the same rule, so the rank is ``power_ranks(m, tol)[1]``.  A non-square
    ``m`` takes its own SVD.
    """
    return _svd_of(m, tol)[3]


def moore_penrose(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Moore-Penrose inverse ``V S^+ U^T`` from the thin SVD ``U S V^T``,
    dropping singular values below the rank cutoff; the SVD is that of the
    unit-scale copy ``2**-e m``, and the inverse is scaled back by ``2**-e``.

    The SVD and the rank are those of :func:`_svd_of`: a square ``m``, bare
    or a :class:`MatrixPowers`, reads the SVD its :class:`MatrixPowers` keeps
    (see :func:`_as_powers`), which the first step of its staircase shares; a
    non-square ``m`` takes its own.
    """
    return _pseudoinverse(*_svd_of(m, tol))


def one_three_inverse(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """A {1,3}-inverse of ``m``.

    Any matrix satisfying equations (1) ``A X A = A`` and (3) ``(A X)^T = A X``
    will do; the Moore-Penrose inverse satisfies both and is the canonical
    choice here.
    """
    return moore_penrose(m, tol)


def matrix_power(m, k: int) -> np.ndarray:
    """``m**k`` by repeated squaring, with ``m**0 = I``."""
    a = as_square(m)
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
    return np.linalg.matrix_power(a, int(k))


@dataclass(frozen=True, eq=False)
class Staircase:
    """The rank staircase of one square matrix under one tolerance policy
    (:meth:`MatrixPowers.staircase`).

    ``ranks`` are the ranks of ``m**0, m**1, ...`` up to the first repeat,
    so the matrix index is ``len(ranks) - 2``.  ``frame`` is an n x n
    orthogonal matrix, the U of Wang's core-EP decomposition, each of whose
    prefixes ``frame[:, :ranks[j]]`` is an orthonormal basis of the column
    space of ``m**j``: columns ``ranks[j]`` to ``ranks[j-1]`` are the
    directions dropped at step j, and the first ``ranks[-1]`` the basis B
    of ``col(m**k)`` at the index k.  A nonsingular m keeps the identity.
    ``core`` is ``B^T unit B``.  ``norm_bound`` is ``sigma_max(unit)`` as
    the first step found it: from its SVD, or the upper bound
    ``||unit||_F`` where the certificate made that SVD unnecessary.  It lies in [1/2, n], and
    ``sigma_max(m)`` is it times ``2**exponent``, which can exceed the float
    maximum.  ``ranks`` is a tuple and every array is read-only.
    """

    ranks: tuple
    frame: np.ndarray
    core: np.ndarray
    norm_bound: float


class MatrixPowers:
    """The ranks of the powers ``m**j`` of one square matrix and an
    orthogonal frame whose prefixes span their column spaces, computed once
    per tolerance policy, on first use, without forming any power (see
    :meth:`staircase`), and the core-EP inverse of ``m`` applied through
    them (:meth:`core_ep_apply`).
    It also keeps one thin SVD of ``m``, computed on first use whatever the
    policy: the first step of every staircase that cannot certify ``m``
    nonsingular takes its singular values and vectors from it, and
    :func:`rank`, :func:`moore_penrose`, :func:`in_column_space` and, at
    index 0, :func:`core_ep_via_formula` read it.
    Per tolerance policy it keeps the
    core-EP inverse ``m^ce``, computed on first use by one
    :meth:`core_ep_apply` of the identity, which
    :func:`core_ep_via_decomposition` and :func:`core_inverse` copy.

    All of that is computed on one copy of ``m`` made here, ``unit = 2**-e
    m`` with ``e = exponent`` the exponent of the largest entry of ``m``
    (0 for a zero ``m``), whose largest entry lies in [1/2, 1): its
    Frobenius norm, every step of the staircase (cores, certificate floors,
    the kept SVD) and the core-EP solve read it, so no norm or singular
    value of a finite ``m`` overflows and no rank depends on the scale of
    ``m``.  The results that carry the scale are scaled back once: the
    Moore-Penrose and core-EP inverses by ``2**-e``, the three blocks of
    :func:`core_ep_decompose` by ``2**e``.  Scaling by a power of two is
    exact, so where no entry is subnormal and LAPACK does not rescale its
    input itself, each result has the bits of the same arithmetic on ``m``.

    ``m`` is copied, and it, ``unit``, the cached arrays and the
    :class:`Staircase` records, whose ranks are a tuple and whose arrays
    are read-only, cannot be changed in place, so callers that share a
    ``MatrixPowers`` cannot corrupt it: those that pass one explicitly, and
    those that pass the same bare matrix in a row, which the engine's
    functions map to one ``MatrixPowers`` (:func:`_as_powers`).
    """

    def __init__(self, m):
        self.m = as_square(m).copy()
        self.unit, self.exponent = _unit_scale(self.m)
        self.m.flags.writeable = self.unit.flags.writeable = False
        self.n = self.m.shape[0]
        self._norm = float(np.linalg.norm(self.unit))
        self._staircases = {}
        self._usv = None
        self._inverses = {}

    def staircase(self, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> Staircase:
        """The :class:`Staircase` of ``m``: the ranks of ``m**0, m**1, ...``
        up to the first repeat, and one orthogonal frame whose prefixes are
        orthonormal bases of the column spaces of those powers, computed on
        first use per tolerance policy and kept, so every later call returns
        the same record.

        The column space of ``m**j`` is ``m`` applied to that of
        ``m**(j-1)``, so with B the basis of the latter, the singular values of
        ``m @ B`` give the rank of ``m**j`` and their vectors its basis.  The
        singular values count only above ``j * cutoff * sigma_max(m)``, the
        size of the roundoff in m and in the j products behind ``m @ B``: a
        perturbation of m that small could remove the ones below.  So the
        decision is scale-free, like the rank of m itself, and is never made
        against ``sigma_max(m)**j``, which can lie far above the real singular
        values of a power of a non-normal m.

        For j >= 2 the space ``col(m**(j-1))`` contains ``col(m**j)``, so
        ``m @ B = B C`` with the core ``C = B^T m B`` of order ``rank(m**(j-1))``,
        up to roundoff inside the floor: C has the singular values of
        ``m @ B``, and where the rank drops to r, ``B U_r`` (U from the SVD of
        C) is the next basis.  At j = 1, B = I and C is m itself.

        Before any SVD, C is certified by :func:`_clears`, a Cholesky
        factorization of its shifted Gram matrix (Rump, "Verification of
        positive definiteness", BIT 46, 2006) that proves ``sigma_min(C)``
        clears the floor 10 times over; ``||m||_F`` stands in for
        ``sigma_max(m)`` at j = 1.  Then the rank stays and the previous
        basis spans the same space, with no SVD.  Otherwise one SVD with
        vectors of C decides and, where the rank dropped, gives the basis the
        next step needs.  So a nonsingular m takes one Gram product and one
        Cholesky factorization and each drop those and one SVD of an r x r
        core; at j = 1 that SVD is the one of m this object keeps for
        :func:`moore_penrose`.  The certificate needs
        ``sigma_min(C) / ||C||_F`` above about ``sqrt(3 (r + 2) eps)`` (3e-7 at
        r = 128, a condition of about 1e6); a core between that and 10 times
        the floor pays an SVD although its rank holds.  A core of order r
        whose largest entry is at most ``10 floor / r`` cannot be certified,
        and :func:`_clears` says so before it forms anything, so no bound it
        forms overflows and no finite m makes a step warn, however subnormal
        its cores.  The last step's core,
        ``B^T m B`` at the index, is kept for :meth:`core_ep_apply`.

        The frame starts as the identity.  Where the rank drops from
        ``r_(j-1)`` to ``r_j`` at step j, the dropped left singular vectors
        ``B U[:, r_j:]``, the orthogonal complement of ``col(m**j)`` in
        ``col(m**(j-1))``, go into its columns ``r_j`` to ``r_(j-1)``; when
        the steps end, the last basis goes into its first ``r_k`` columns.
        So each prefix ``frame[:, :r_j]`` spans ``col(m**j)``, the frame is
        the U of :func:`core_ep_decompose`, and the record holds one n x n
        array however high the index, not a basis per power.

        The steps run until the rank repeats, and that happens by j = n + 1:
        each step's core has the previous rank as its order, so no rank
        exceeds the one before it, and a rank that does not repeat falls
        by at least 1 from n, which it can do at most n times.

        Every step runs on ``unit``, the copy of m scaled by a power of two,
        which moves no singular value relative to the floor: the ranks and
        frame are those of m, and the kept cores are those of m times
        ``2**-exponent``.
        """
        if tol in self._staircases:
            return self._staircases[tol]
        cutoff = tol.rank_cutoff(self.m.shape)
        # b is the basis of col(m**(j-1)), set at the first drop: step 1 does
        # not read it, and with no drop the frame stays the identity
        ranks, frame, b = [self.n], np.eye(self.n), None
        smax = self._norm  # >= sigma_max(unit); step 1's SVD replaces it
        while len(ranks) == 1 or ranks[-1] < ranks[-2]:  # until the rank repeats
            j = len(ranks)  # this step ranks m**j
            # a power after a zero power is zero
            r, core = 0, np.zeros((0, 0))
            if ranks[-1]:
                # col(m B) lies in col(B) for j >= 2, so m B = B core
                core = self.unit if j == 1 else b.T @ (self.unit @ b)
                if _clears(core, j * cutoff * smax):
                    r = ranks[-1]
                else:
                    u, s, _ = self._thin_svd() if j == 1 else _svd(core)
                    if j == 1:
                        smax = s[0]
                    r = int(np.count_nonzero(s > j * cutoff * smax))
                    if r < ranks[-1]:  # the next power needs this one's basis
                        frame[:, r : ranks[-1]] = u[:, r:] if j == 1 else b @ u[:, r:]
                        b = u[:, :r] if j == 1 else b @ u[:, :r]
            ranks.append(r)
        if b is not None:
            frame[:, : ranks[-1]] = b
        record = Staircase(tuple(ranks), _frozen(frame), _frozen(core), float(smax))
        return self._staircases.setdefault(tol, record)

    def core_ep_apply(self, w, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
        """``m^ce @ w`` as ``B (B^T m B)^-1 B^T w``, B the basis of the column
        space of ``m**k`` at the index k, the first ``rank(m**k)`` columns of
        the staircase's frame (Wang's core-EP decomposition), with
        the core ``B^T m B`` that :meth:`staircase` kept; at index 0, B = I and
        this is ``solve(m, w)``.

        The kept core is that of ``unit``, ``2**-exponent`` times that of m,
        and is solved as it is, with w scaled by the same power of two: the
        same x, so normal-range results have the bits of the solve on m.  The
        core's smallest singular value cleared the staircase's floor, so
        LAPACK never takes the reciprocal of a subnormal pivot.  Entries
        beyond the float range come back as inf or NaN, without a warning:
        the caller names what overflowed, the solution or the inverse."""
        steps = self.staircase(tol)
        b, core = steps.frame[:, : steps.ranks[-1]], steps.core
        full = steps.ranks[-1] == self.n
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                w = np.ldexp(w, -self.exponent)
                x = np.linalg.solve(core, w) if full else b @ np.linalg.solve(core, b.T @ w)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"linear solve failed: {exc}") from exc
        return x

    def _inverse(self, tol: TolerancePolicy) -> np.ndarray:
        """``m^ce``, computed on first use per tolerance policy and kept
        read-only; callers check that it is finite and return copies of
        it."""
        x = self._inverses.get(tol)
        if x is None:
            x = self._inverses[tol] = _frozen(self.core_ep_apply(np.eye(self.n), tol))
        return x

    def _thin_svd(self):
        """``(u, s, vt)``, the thin SVD of ``unit``, computed on first use
        and kept read-only: it does not depend on the tolerance policy."""
        if self._usv is None:
            self._usv = tuple(map(_frozen, _svd(self.unit)))
        return self._usv


def power_ranks(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> list[int]:
    """Ranks of ``m**0, m**1, ...`` up to the first repeat.  The matrix index
    is ``len(ranks) - 2`` and ``ranks[-1]`` is the rank of ``m**index``.

    ``m`` is a square matrix or a :class:`MatrixPowers`, whose cached ranks
    are then reused; the decision rule is that of :meth:`MatrixPowers.staircase`.
    """
    return list(_as_powers(m).staircase(tol).ranks)


def matrix_index(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> int:
    """Smallest k >= 0 with rank(m**(k+1)) == rank(m**k); see :func:`power_ranks`."""
    return len(power_ranks(m, tol)) - 2


def core_ep_decompose(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> CoreEpDecomposition:
    """Split ``m`` into its nonsingular core and nilpotent part (Wang's
    core-EP decomposition).

    Returns real orthogonal ``u`` and blocks ``t`` (nonsingular, order
    ``rho = rank(m**k)``), ``s_block`` and nilpotent ``n_block`` with
    ``m = u @ [[t, s], [0, n]] @ u.T``, all read off the staircase of
    :meth:`MatrixPowers.staircase`: no eigenvalues are computed, no power is
    formed, no matrix is factorized and no second rank decision is made.

    ``u = [B_k | W_k | ... | W_1]`` is a copy of the staircase's frame, with
    ``B_k`` its basis of ``col(m**k)`` and ``W_j`` the left singular vectors
    dropped at step j, the orthogonal complement of ``col(m**j)`` in
    ``col(m**(j-1))``; no product is formed to assemble it.  ``m`` maps
    ``col(m**(j-1))`` into ``col(m**j)``, so ``t = B_k^T m B_k`` is the core
    the staircase kept (the matrix :meth:`MatrixPowers.core_ep_apply`
    inverts), the lower-left block vanishes and ``n_block = W^T m W`` is
    strictly upper triangular, with zero diagonal blocks of the sizes of the
    rank drops.  All three blocks are formed on the unit-scale copy of
    ``m``, whose core the staircase kept, and scaled back once, by
    ``2**exponent``; a block beyond the float range raises a
    :class:`NumericalFailureError` that names the block and says it
    overflows.  Each column of W is signed so that its largest-magnitude entry (the first, on ties) is
    positive, so the factors do not depend on the signs LAPACK gives
    singular vectors.  ``m`` is a square matrix or a
    :class:`MatrixPowers`, whose cached staircase is then reused.

    ``t`` is nonsingular because the staircase's last step found it so.  The
    factors of the unit-scale copy are checked to reconstruct it within
    ``equality_tol`` times its Frobenius norm, a backward error free of the
    scale of ``m``, before they are scaled back (see
    :func:`_check_decomposition`).
    """
    powers = _as_powers(m)
    steps = powers.staircase(tol)
    u = steps.frame.copy()
    b, w = u[:, : steps.ranks[-1]], u[:, steps.ranks[-1] :]
    peaks = w[np.abs(w).argmax(axis=0), np.arange(w.shape[1])]
    w *= np.where(peaks < 0.0, -1.0, 1.0)
    aw = powers.unit @ w
    dec = CoreEpDecomposition(u=u, t=steps.core, s_block=b.T @ aw, n_block=w.T @ aw,
                              k=len(steps.ranks) - 2)
    _check_decomposition(powers, dec, tol)
    e = powers.exponent
    with np.errstate(over="ignore"):  # _finite names a block that overflows
        dec.t = _finite(np.ldexp(dec.t, e), "T block of the core-EP decomposition")
        dec.s_block = _finite(np.ldexp(dec.s_block, e), "S block of the core-EP decomposition")
        dec.n_block = _finite(np.ldexp(dec.n_block, e), "N block of the core-EP decomposition")
    return dec


def core_ep_via_decomposition(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core-EP inverse from the core-EP decomposition,
    ``u @ [[t^-1, 0], [0, 0]] @ u.T`` (see :func:`core_ep_decompose`).

    With B the first ``rho`` columns of ``u``, the staircase's orthonormal
    basis of the column space of ``m**k``, and ``t = B^T m B``, that is
    ``B (B^T m B)^-1 B^T``, so it is computed as such
    (:meth:`MatrixPowers.core_ep_apply`) without assembling ``u``.  ``m`` is
    a square matrix or a :class:`MatrixPowers`; the inverse is computed once
    per matrix and policy and kept there, and each call returns a new copy
    of it, or raises :class:`NumericalFailureError` if it overflows.
    """
    return _finite(_as_powers(m)._inverse(tol).copy(), "core-EP inverse")


def core_ep_via_formula(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core-EP inverse as ``A^k [(A^T)^k A^(k+1)]^+ (A^T)^k``.

    All-real route, no eigenvalue reordering, independent of
    :func:`core_ep_via_decomposition` past the rank sequence: an SVD-based
    pseudoinverse, where that route is a linear solve on the staircase's
    core.  For index <= 1 it reduces to the core inverse.  At index 0,
    ``A^k = I`` and it is ``A^+ = A^-1``, which is returned as
    :func:`moore_penrose` gives it, from the SVD that the
    :class:`MatrixPowers` keeps: no power, product or second SVD is formed.
    The staircase's first step applies the rank rule of that SVD, so it
    finds rank n there too.  ``m`` is a square matrix or a
    :class:`MatrixPowers`.

    The Moore-Penrose inverse of ``(A^T)^k A^(k+1)`` squares the condition of
    the nonsingular part, so for an ill-conditioned non-normal ``A`` (say
    ``diag([[1, 1e5], [0, 1]], 0)``) it drops real rank and the result is
    wrong; the decomposition route does not square it and is the one the
    package uses (``fuzzylinsys inverse``, the solver and
    :func:`fuzzylinsys.fls.core_ep_from_blocks`).  The formula is kept as
    the independent reference that the tests and the benchmark compare
    against.
    """
    powers = _as_powers(m)
    ranks = power_ranks(powers, tol)
    if ranks[-1] == 0:
        return np.zeros_like(powers.m)  # nilpotent: empty nonsingular part
    if len(ranks) == 2:  # index 0: A^k = I and the formula is A^+
        return moore_penrose(powers, tol)
    # The formula is unchanged by scaling A^k and scales as 1/c with A; at
    # unit scale the products stay finite.  It divides by the peak itself,
    # not by the power of two of ``unit``: the reference keeps its own arithmetic.
    c = np.abs(powers.m).max()
    a = powers.m / c
    ak = np.linalg.matrix_power(a, len(ranks) - 2)
    peak_k = np.abs(ak).max()
    if peak_k == 0.0:  # a nonsingular part whose k-th power underflows
        raise NumericalFailureError("core-EP formula: A^k underflows at unit scale")
    ak = ak / peak_k
    inner = ak.T @ ak @ a  # (A^T)^k A^(k+1)
    # a MatrixPowers of its own: the memo of _as_powers keeps A, not inner
    inner_pinv = _pseudoinverse(*_svd_of(MatrixPowers(inner), tol))
    with np.errstate(over="ignore"):
        x = ak @ inner_pinv @ ak.T / c
    return _finite(x, "core-EP inverse")


def core_inverse(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core inverse; defined only for matrices of index <= 1.

    For index <= 1 the core-EP inverse coincides with the core inverse, so the
    value is ``B (B^T A B)^-1 B^T``: a copy of the core-EP inverse that the
    :class:`MatrixPowers` keeps, the one :func:`core_ep_via_decomposition`
    copies.  Every call verifies it against equation (1), ``A X A = A``, as a
    backward error:
    ``||A X A - A||_F <= equality_tol * ||A||_F * (||A||_F ||X||_F)``.  A
    backward-stable X passes however ill-conditioned the core, a wrong one
    does not, and scaling A or X by a power of two moves neither side.  So
    it is taken on the :class:`MatrixPowers`'s ``unit``, ``a = 2**-e A``,
    and on X's own unit-scale copy ``x' = 2**-g X`` (:func:`_unit_scale`),
    as ``||a x' a - 2**-(e+g) a||_F <= equality_tol * ||a||_F**2 ||x'||_F``:
    both largest entries lie in [1/2, 1), so neither ``||a||_F`` nor
    ``||x'||_F`` overflows or underflows and the bound is finite, however
    fine ``rank_rel_tol`` is.  An X with an entry beyond the float range
    raises a :class:`NumericalFailureError` that says it overflows; a NaN
    entry gives a NaN residual, which fails.
    """
    powers = _as_powers(m)
    k = matrix_index(powers, tol)
    if k > 1:
        raise IndexTooLargeError(f"core inverse requires matrix index <= 1, got {k}")
    x = powers._inverse(tol).copy()
    if np.isinf(x).any():  # a NaN entry fails the defining equation below
        raise NumericalFailureError("core inverse overflows the floating-point range")
    # a = 2**-e A and x' = 2**-g X both have unit largest entry, and
    # a x' a = 2**-(e+g) a.  A NaN X has no exponent g, and the shift of a
    # can overflow without it, so its residual is NaN, which fails, unformed
    residual, bound = math.nan, 0.0
    if not np.isnan(x).any():
        a, (x_unit, g) = powers.unit, _unit_scale(x)
        residual = np.linalg.norm(a @ x_unit @ a - np.ldexp(a, -(powers.exponent + g)))
        bound = tol.equality_tol * powers._norm**2 * np.linalg.norm(x_unit)
    if not residual <= bound:
        raise NumericalFailureError(
            f"core inverse failed its defining equation (residual {residual:.3e})"
        )
    return x


def in_column_space(m, y, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> bool:
    """Whether ``y`` lies in the column space of ``m``.

    Decided on the unit-scale copy of ``y`` (:func:`_unit_scale`, the power
    of two every matrix of the engine is taken at), by its residual off the
    left singular vectors ``U_r`` of ``m`` above the rank cutoff, the basis
    of ``col(m)`` that :func:`rank` counts: true iff
    ``||y - U_r U_r^T y|| <= residual_tol * ||y||``, a bound relative to y
    alone.  The SVD is that of :func:`_svd_of`, so a square ``m``, bare or a
    :class:`MatrixPowers`, reads the one its :class:`MatrixPowers` keeps.
    y is checked against the row count of ``m`` before any SVD is taken, so
    a y of the wrong length or with a non-finite entry raises at no
    factorization's cost, and the zero vector is a member without one.
    """
    if not isinstance(m, MatrixPowers):
        m = as_matrix(m)
    v = as_vector(y, m.n if isinstance(m, MatrixPowers) else m.shape[0])
    v, _ = _unit_scale(v)
    if not v.any():
        return True
    u, _, _, r, _ = _svd_of(m, tol)
    b = u[:, :r]
    residual = float(np.linalg.norm(v - b @ (b.T @ v)))
    return residual <= tol.residual_tol * float(np.linalg.norm(v))


# The MatrixPowers of the last bare matrix given to _as_powers.
_last_powers = None


def _as_powers(m) -> MatrixPowers:
    """``m`` itself if it is a :class:`MatrixPowers`; for a bare matrix, the
    :class:`MatrixPowers` of the last bare matrix given here if it has the
    same shape and the same float64 bits, or else a new one, which replaces
    it.

    So callers asking several questions of one matrix in a row (its index,
    its core-EP decomposition, both core-EP routes, its core inverse, its
    rank, its Moore-Penrose inverse, membership in its column space) share
    one staircase, one SVD and one core-EP inverse, and the results are
    those of a fresh :class:`MatrixPowers`: the entry's ``m`` is a read-only
    copy, its staircase and core-EP inverse are cached per tolerance policy
    and its SVD once.  The bits are compared
    after :func:`as_square`, so ``-0.0`` for ``0.0`` or any change made to
    the array in place is a miss, and the same values in another memory
    layout (Fortran order, a strided or transposed view) are a hit.  There
    is one entry, which holds its matrix, frames, SVD and inverses until the
    next bare-matrix call.  Reading and replacing it are single reference
    operations, so concurrent calls are safe: a race only computes a
    staircase, an SVD or an inverse again.
    """
    global _last_powers
    if isinstance(m, MatrixPowers):
        return m
    a = as_square(m)
    last = _last_powers
    # views as integers compare bits, in any memory layout, without a copy
    if last is not None and np.array_equal(last.m.view(np.uint64), a.view(np.uint64)):
        return last
    powers = _last_powers = MatrixPowers(a)
    return powers


def _svd_of(m, tol: TolerancePolicy):
    """``(u, s, vt, r, e)``: the thin SVD ``u diag(s) vt`` of ``2**-e m``, the
    unit-scale copy of ``m`` (see :func:`_unit_scale`), and the rank ``r``,
    the number of singular values above ``rank_cutoff * s[0]``.

    A square ``m``, bare or a :class:`MatrixPowers`, reads the SVD its
    :class:`MatrixPowers` keeps of its ``unit`` (see :func:`_as_powers`); a
    non-square ``m`` takes its own, of its copy scaled the same way.  The
    rank, the Moore-Penrose inverse and column-space membership all read it,
    so one rule decides each of them.
    """
    if not isinstance(m, MatrixPowers):
        m = as_matrix(m)
    if isinstance(m, np.ndarray) and m.shape[0] != m.shape[1]:
        unit, e = _unit_scale(m)
        (u, s, vt), shape = _svd(unit), m.shape
    else:
        powers = _as_powers(m)
        (u, s, vt), shape, e = powers._thin_svd(), powers.m.shape, powers.exponent
    return u, s, vt, int(np.count_nonzero(s > tol.rank_cutoff(shape) * s[0])), e


def _pseudoinverse(u, s, vt, r: int, e: int) -> np.ndarray:
    """``2**-e V S^+ U^T`` from the thin SVD ``(U, S, V^T)`` of ``2**-e m``,
    ``S^+`` inverting the ``r`` largest singular values and zeroing the
    rest: the Moore-Penrose inverse of m, scaled back once."""
    inv = np.zeros_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        inv[:r] = 1.0 / s[:r]
        x = np.ldexp((vt.T * inv) @ u.T, -e)
    return _finite(x, "Moore-Penrose inverse")


def _svd(a: np.ndarray):
    """Thin SVD ``(u, s, vt)`` by LAPACK gesdd, numpy's driver.

    Where gesdd does not converge, it runs again on the triangular factor of
    a Householder QR, ``a = Q R`` (of ``a^T`` when ``a`` is wide), and
    ``R = U_R S V^T`` gives ``(Q U_R, S, V^T)``, or ``(V, S, U_R^T Q^T)``
    for a wide ``a``: R has the singular values of ``a``, and Q is
    orthonormal.  If that SVD fails too, a :class:`NumericalFailureError`
    is raised.
    """
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    wide = a.shape[0] < a.shape[1]
    q, r = np.linalg.qr(a.T if wide else a)
    try:
        u, s, vt = np.linalg.svd(r, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc
    if wide:  # a^T = (Q U_R) S V^T
        return vt.T, s, (q @ u).T
    return q @ u, s, vt


# How far a certified lower bound on a smallest singular value must clear the
# rank floor before an SVD is skipped: the bound and the floor are computed in
# floating point, and the margin keeps their rounding from deciding a rank.
_CERTIFICATE_MARGIN = 10.0

_EPS = float(np.finfo(float).eps)


def _clears(m: np.ndarray, floor: float) -> bool:
    """Whether the smallest singular value of the square matrix ``m``
    certainly exceeds ``_CERTIFICATE_MARGIN * floor``: a Cholesky
    factorization of the shifted Gram matrix ``g - s I`` succeeds.  The
    staircase passes cores of its unit-scale copy; ``m`` is divided by its
    own largest entry all the same, so a certificate does not depend on
    how far that entry lies from 1.

    With ``a = m / peak`` (peak the largest entry), ``g = a^T a`` and
    ``f = trace(g) = ||a||_F**2 >= 1``, k the order of m and eps the machine
    epsilon, the shift is ``s = t**2 + 3 (k + 2) eps f`` with
    ``t = 10 floor / peak + eps sqrt(f)``.  It covers four roundings
    (Rump, "Verification of positive definiteness", BIT 46, 2006):

    - the scaling moves ``sigma_min(a)`` by at most ``eps ||a||_F / 2``,
      which the ``eps sqrt(f)`` in t absorbs;
    - the computed product differs from ``a^T a`` by at most
      ``gamma_k ||a||_F**2 = gamma_k f``, ``gamma_k = k eps / 2 / (1 - k eps / 2)``;
    - subtracting s from the diagonal adds at most ``eps (f + s) / 2``;
    - a Cholesky factorization that succeeds proves the matrix it ran on
      positive definite up to ``gamma_(k+1)`` times its trace, at most
      ``gamma_(k+1) f``.

    A factorization that succeeds has ``s < f`` (no diagonal entry of
    ``g - s I`` is positive otherwise), so those sum to less than
    ``(k + 2) eps f``, inside the ``3 (k + 2) eps f`` of the shift that also
    absorbs the rounding of t and s: success proves ``sigma_min(a)**2 > t**2``
    and ``sigma_min(m) > 10 floor``.  It can
    certify only when ``sigma_min(m) / ||m||_F`` exceeds about
    ``sqrt(3 (k + 2) eps)``.

    Nothing is formed unless ``10 floor < k peak``.  That is necessary, not
    a rule of its own: every entry of a has magnitude at most 1, so a
    factorization that succeeds has ``t**2 <= s < min diag(g) <= k`` and
    ``10 floor / peak < sqrt(k) <= k``.  A core that fails it (a zero one,
    or one far below the floor, such as a subnormal core) is uncertified
    (``False``) without a Gram product or a factorization.  One that passes
    it has ``floor / peak < k / 10``, so t, s and every product are finite
    and raise no warning, whatever numpy scalar type ``floor`` has.  A
    failed factorization leaves the value uncertified too.
    """
    k = m.shape[0]
    peak = float(np.abs(m).max())
    if not _CERTIFICATE_MARGIN * floor < k * peak:
        return False
    a = m / peak
    g = a.T @ a
    diag = g.ravel()[:: k + 1]  # a view: g is contiguous
    f = float(diag.sum())
    t = _CERTIFICATE_MARGIN * (floor / peak) + _EPS * math.sqrt(f)
    diag -= t * t + 3 * (k + 2) * _EPS * f
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def _unit_scale(m: np.ndarray):
    """``(2**-e m, e)``, e the exponent of the largest entry of ``m`` in
    magnitude (0 for a zero m): the copy of m whose largest entry lies in
    [1/2, 1), on which its ranks and factorizations are computed."""
    e = math.frexp(float(np.abs(m).max()))[1]
    return np.ldexp(m, -e), e


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: every array a :class:`MatrixPowers` keeps is
    frozen as it is made, so no caller that shares it can change it."""
    a.flags.writeable = False
    return a


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x``, unless an entry overflowed (or became NaN) while computing it."""
    if not np.isfinite(x).all():
        raise NumericalFailureError(f"{what} overflows the floating-point range")
    return x


def _check_decomposition(powers: MatrixPowers, dec: CoreEpDecomposition,
                         tol: TolerancePolicy):
    """Raise unless the factors of the unit-scale copy ``a = powers.unit``
    reconstruct it to ``equality_tol * ||a||_F``: ``u`` is orthonormal, so
    the error is a backward error of about ``eps ||a||``, judged on the
    scale of ``a`` alone, and no norm of a finite matrix overflows; factors
    that are not finite give a NaN error, which fails."""
    with np.errstate(invalid="ignore"):
        error = np.linalg.norm(dec.assemble() - powers.unit)
    if not error <= tol.equality_tol * powers._norm:  # a NaN error fails
        raise NumericalFailureError("block triangularization does not reconstruct the input")
