"""Generalized-inverse engine for dense real matrices.

Provides a numerical rank with an explicit cutoff policy, the Moore-Penrose
inverse, the matrix index, the core and core-EP inverses (the latter by two
independent routes), and column-space membership tests.  All functions are
pure: they take plain ``numpy`` arrays and return new arrays.  The index
search, the core-EP decomposition, both core-EP routes and the core inverse
also take a :class:`MatrixPowers`, so that callers asking several questions
of one matrix decide the ranks of its powers, and find the orthonormal bases
of their column spaces, once.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_matrix, as_square, as_vector
from .errors import IndexTooLargeError, NumericalFailureError

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOLERANCES",
    "CoreEpDecomposition",
    "MatrixPowers",
    "rank",
    "moore_penrose",
    "one_three_inverse",
    "matrix_power",
    "matrix_index",
    "power_ranks",
    "index_power",
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
    relative to the vector y they are residuals of, ``residual_tol * ||y||``
    with both norms taken on y scaled to unit largest entry: a purely relative
    bound, with no absolute floor.  ``equality_tol`` bounds matrix-equality
    comparisons.
    """

    rank_rel_tol: float | None = None
    residual_tol: float = 1e-8
    equality_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel_tol", "residual_tol", "equality_tol"):
            value = getattr(self, name)
            if name == "rank_rel_tol" and value is None:
                continue
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")

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
    index, and ``n_block`` is nilpotent (``n_block**k == 0``).  ``u`` is real
    orthogonal; ``t`` is quasi-upper-triangular (2x2 bumps carry complex
    eigenvalue pairs of the nonsingular part).
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
    """Numerical rank: number of singular values above the relative cutoff."""
    a = as_matrix(m)
    s = _singular_values(a)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_cutoff(a.shape) * smax))


def moore_penrose(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Moore-Penrose inverse by SVD, dropping singular values below the cutoff."""
    a = as_matrix(m)
    u, s, vt = _svd(a, compute_uv=True)
    cutoff = tol.rank_cutoff(a.shape) * (float(s[0]) if s.size else 0.0)
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


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


class MatrixPowers:
    """The ranks of the powers ``m**j`` of one square matrix and orthonormal
    bases of their column spaces, computed once per tolerance policy, on
    first use, without forming any power (see :meth:`ranges`), and the
    core-EP inverse of ``m`` applied through them (:meth:`core_ep_apply`).

    ``m`` is copied and the cached arrays are read-only, so callers that
    share a ``MatrixPowers`` cannot corrupt it.
    """

    def __init__(self, m):
        self.m = as_square(m).copy()
        self.m.flags.writeable = False
        self.n = self.m.shape[0]
        self._ranges = {}

    def ranges(self, tol: TolerancePolicy = DEFAULT_TOLERANCES):
        """``(ranks, bases)``: the ranks of ``m**0, m**1, ...`` up to the first
        repeat, and an orthonormal basis of the column space of each power.

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
        core.  The certificate needs ``sigma_min(C) / ||C||_F`` above about
        ``sqrt(3 (r + 2) eps)`` (3e-7 at r = 128, a condition of about
        1e6); a core between that and 10 times the floor pays an SVD although
        its rank holds.  The last step's core, ``B^T m B`` at the index, is
        kept for :meth:`core_ep_apply`.  Always terminates with j <= n + 1 in
        exact arithmetic; if the rank sequence has not stabilized by then the
        tolerance policy is inconsistent with the matrix and a numerical
        failure is raised.
        """
        return self._steps(tol)[:2]

    def core_ep_apply(self, w, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
        """``m^ce @ w`` as ``B (B^T m B)^-1 B^T w``, B the basis of the column
        space of ``m**k`` at the index k (Wang's core-EP decomposition), with
        the core ``B^T m B`` that :meth:`ranges` kept; at index 0, B = I and
        this is ``solve(m, w)``."""
        _, bases, core = self._steps(tol)
        b = bases[-2]
        try:
            if b.shape[1] == self.n:
                return np.linalg.solve(self.m, w)
            return b @ np.linalg.solve(core, b.T @ w)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"linear solve failed: {exc}") from exc

    def _steps(self, tol: TolerancePolicy):
        if tol not in self._ranges:
            self._ranges[tol] = self._staircase(tol)
        return self._ranges[tol]

    def _staircase(self, tol: TolerancePolicy):
        cutoff = tol.rank_cutoff(self.m.shape)
        eye = np.eye(self.n)
        eye.flags.writeable = False
        ranks, bases = [self.n], [eye]
        smax = _frobenius(self.m)  # >= sigma_max(m); step 1's SVD replaces it
        for j in range(1, self.n + 2):
            # a power after a zero power is zero
            r, b, core = 0, bases[-1], np.zeros((0, 0))
            if ranks[-1]:
                # col(m B) lies in col(B) for j >= 2, so m B = B core
                core = self.m if j == 1 else b.T @ (self.m @ b)
                if _clears(core, j * cutoff * smax):
                    r = ranks[-1]
                else:
                    u, s, _ = _svd(core, compute_uv=True)
                    if j == 1:
                        smax = s[0]
                    r = int(np.count_nonzero(s > j * cutoff * smax))
                    if r < ranks[-1]:  # the next power needs this one's basis
                        b = u[:, :r] if j == 1 else b @ u[:, :r]
                        b.flags.writeable = False
            ranks.append(r)
            bases.append(b)
            if r == ranks[-2]:
                return ranks, bases, core
        raise NumericalFailureError(
            "rank sequence did not stabilize within the matrix dimension; "
            "the rank cutoff is inconsistent for this matrix"
        )


def power_ranks(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> list[int]:
    """Ranks of ``m**0, m**1, ...`` up to the first repeat.  The matrix index
    is ``len(ranks) - 2`` and ``ranks[-1]`` is the rank of ``m**index``.

    ``m`` is a square matrix or a :class:`MatrixPowers`, whose cached ranks
    are then reused; the decision rule is that of :meth:`MatrixPowers.ranges`.
    """
    return list(_as_powers(m).ranges(tol)[0])


def index_power(m, tol: TolerancePolicy = DEFAULT_TOLERANCES):
    """``(k, m**k, rank(m**k))`` for the matrix index ``k`` (see
    :func:`power_ranks`).

    ``m`` is a square matrix or a :class:`MatrixPowers`, whose cached ranks
    are then reused.  A numerically-zero power snaps to the exact zero matrix.
    """
    powers = _as_powers(m)
    ranks = power_ranks(powers, tol)
    k, rho = len(ranks) - 2, ranks[-1]
    if rho == 0:
        return k, np.zeros_like(powers.m), 0
    return k, np.linalg.matrix_power(powers.m, k), rho


def matrix_index(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> int:
    """Smallest k >= 0 with rank(m**(k+1)) == rank(m**k); see :func:`power_ranks`."""
    return len(power_ranks(m, tol)) - 2


def core_ep_decompose(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> CoreEpDecomposition:
    """Split ``m`` into its nonsingular core and nilpotent part (Wang's
    core-EP decomposition).

    Returns real orthogonal ``u`` and blocks ``t`` (nonsingular, order
    ``rho = rank(m**k)``), ``s_block`` and nilpotent ``n_block`` with
    ``m = u @ [[t, s], [0, n]] @ u.T``.

    ``k``, ``rho`` and an orthonormal basis of the column space of ``m**k``
    come from :meth:`MatrixPowers.ranges`, and a QR factorization completes
    that basis to ``u``.  The space is invariant under ``m``, so ``m`` is
    block upper triangular in the basis; no eigenvalues are computed, no
    power is formed and no second rank decision is made.  Real Schur forms of
    the two diagonal blocks then make ``t`` quasi-triangular and ``n_block``
    strictly triangular.  ``m`` is a square matrix or a
    :class:`MatrixPowers`, whose cached staircase is then reused.
    """
    powers = _as_powers(m)
    a, n = powers.m, powers.n
    ranks, bases = powers.ranges(tol)
    k, rho = len(ranks) - 2, ranks[-1]
    u = np.eye(n) if rho in (0, n) else np.linalg.qr(bases[k], mode="complete")[0]
    q1, q2 = u[:, :rho], u[:, rho:]
    t, v = _real_schur(q1.T @ a @ q1)
    q1 = q1 @ v
    n_block, w = _real_schur(q2.T @ a @ q2)
    q2 = q2 @ w
    dec = CoreEpDecomposition(
        u=np.hstack([q1, q2]), t=t, s_block=q1.T @ a @ q2, n_block=n_block, k=k
    )
    _check_decomposition(a, dec, tol)
    return dec


def core_ep_via_decomposition(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core-EP inverse from the core-EP decomposition,
    ``u @ [[t^-1, 0], [0, 0]] @ u.T`` (see :func:`core_ep_decompose`).

    With B the first ``rho`` columns of ``u``, an orthonormal basis of the
    column space of ``m**k``, that is ``B (B^T m B)^-1 B^T`` whatever the
    basis, so it is computed as such (:meth:`MatrixPowers.core_ep_apply`):
    the Schur forms that tidy ``t`` and ``n_block`` do not change it.  ``m``
    is a square matrix or a :class:`MatrixPowers`.
    """
    powers = _as_powers(m)
    return powers.core_ep_apply(np.eye(powers.n), tol)


def core_ep_via_formula(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core-EP inverse as ``A^k [(A^T)^k A^(k+1)]^+ (A^T)^k``.

    All-real route, no eigenvalue reordering, independent of
    :func:`core_ep_via_decomposition` past the rank sequence.  For index 0 it
    reduces to the ordinary inverse, for index <= 1 to the core inverse.
    ``m`` is a square matrix or a :class:`MatrixPowers`.

    The Moore-Penrose inverse of ``(A^T)^k A^(k+1)`` squares the condition of
    the nonsingular part, so for an ill-conditioned non-normal ``A`` (say
    ``diag([[1, 1e5], [0, 1]], 0)``) it drops real rank and the result is
    wrong; the decomposition route does not square it and is the default of
    ``fuzzylinsys inverse``.
    """
    powers = _as_powers(m)
    ranks = power_ranks(powers, tol)
    if ranks[-1] == 0:
        return np.zeros_like(powers.m)  # nilpotent: empty nonsingular part
    # The formula is unchanged by scaling A^k and scales as 1/c with A; at
    # unit scale the products stay finite.
    c = np.abs(powers.m).max()
    a = powers.m / c
    ak = np.linalg.matrix_power(a, len(ranks) - 2)
    ak = ak / np.abs(ak).max()
    inner = ak.T @ ak @ a  # (A^T)^k A^(k+1)
    return ak @ moore_penrose(inner, tol) @ ak.T / c


def core_inverse(m, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
    """Core inverse; defined only for matrices of index <= 1.

    For index <= 1 the core-EP inverse coincides with the core inverse, so the
    value is ``B (B^T A B)^-1 B^T`` (:meth:`MatrixPowers.core_ep_apply`, as in
    :func:`core_ep_via_decomposition`), additionally verified against
    equation (1), ``A X A = A``.
    """
    powers = _as_powers(m)
    k = matrix_index(powers, tol)
    if k > 1:
        raise IndexTooLargeError(f"core inverse requires matrix index <= 1, got {k}")
    a = powers.m
    x = powers.core_ep_apply(np.eye(powers.n), tol)
    residual = _frobenius(a @ x @ a - a)
    if residual > tol.equality_tol * (1.0 + _frobenius(a)):
        raise NumericalFailureError(
            f"core inverse failed its defining equation (residual {residual:.3e})"
        )
    return x


def in_column_space(m, y, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> bool:
    """Whether ``y`` lies in the column space of ``m``.

    Decided by the least-squares residual of ``y`` scaled to unit largest
    entry: true iff ``min_z ||m z - y|| <= residual_tol * ||y||``, a bound
    relative to y alone.  The zero vector is a member.
    """
    a = as_matrix(m)
    v = as_vector(y, a.shape[0])
    peak = np.abs(v).max()
    if peak == 0.0:
        return True
    v = v / peak
    try:
        z, *_ = np.linalg.lstsq(a, v, rcond=tol.rank_cutoff(a.shape))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"least-squares solve failed: {exc}") from exc
    residual = float(np.linalg.norm(a @ z - v))
    return residual <= tol.residual_tol * float(np.linalg.norm(v))


def _as_powers(m) -> MatrixPowers:
    return m if isinstance(m, MatrixPowers) else MatrixPowers(m)


def _singular_values(a: np.ndarray) -> np.ndarray:
    return _svd(a, compute_uv=False)


def _svd(a: np.ndarray, compute_uv: bool):
    """Thin SVD by LAPACK gesdd; where gesdd does not converge, by the slower
    but more robust gesvd."""
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    import scipy.linalg

    try:
        return scipy.linalg.svd(
            a, full_matrices=False, compute_uv=compute_uv, lapack_driver="gesvd"
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc


# How far a certified lower bound on a smallest singular value must clear the
# rank floor before an SVD is skipped: the bound and the floor are computed in
# floating point, and the margin keeps their rounding from deciding a rank.
_CERTIFICATE_MARGIN = 10.0

_EPS = float(np.finfo(float).eps)


def _clears(m: np.ndarray, floor: float) -> bool:
    """Whether the smallest singular value of the square matrix ``m``
    certainly exceeds ``_CERTIFICATE_MARGIN * floor``: a Cholesky
    factorization of the shifted Gram matrix ``g - s I`` succeeds.

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
    ``sqrt(3 (k + 2) eps)``.  A zero or non-finite peak, a shift that is not
    finite or a failed factorization leave the value uncertified
    (``False``), never a warning; ``floor / peak`` is taken first so that
    ``10 floor`` cannot overflow.
    """
    peak = float(np.abs(m).max())
    if not 0.0 < peak < math.inf:
        return False
    a = m / peak
    g = a.T @ a
    k = g.shape[0]
    diag = g.ravel()[:: k + 1]  # a view: g is contiguous
    f = float(diag.sum())
    t = _CERTIFICATE_MARGIN * (floor / peak) + _EPS * math.sqrt(f)
    shift = t * t + 3 * (k + 2) * _EPS * f
    if not shift < math.inf:
        return False
    diag -= shift
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def _frobenius(m: np.ndarray) -> float:
    """``||m||_F``, an upper bound on ``sigma_max(m)``, without overflow or
    underflow at any scale of the entries."""
    peak = np.abs(m).max()
    return float(peak * np.linalg.norm(m / peak)) if peak else 0.0


def _real_schur(a: np.ndarray):
    """Real Schur form ``a = u @ t @ u.T`` (t quasi-upper-triangular)."""
    if a.shape[0] == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    import scipy.linalg

    try:
        t, u = scipy.linalg.schur(a, output="real")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalFailureError(f"Schur decomposition failed: {exc}") from exc
    return t, u


def _check_decomposition(a: np.ndarray, dec: CoreEpDecomposition, tol: TolerancePolicy):
    norm = _frobenius(a)
    if _frobenius(dec.assemble() - a) > tol.equality_tol * (1.0 + norm):
        raise NumericalFailureError("block triangularization does not reconstruct the input")
    cutoff = tol.rank_cutoff(a.shape)
    if dec.rho and not _clears(dec.t, cutoff * norm):
        if _singular_values(dec.t)[-1] <= cutoff * _singular_values(a)[0]:
            raise NumericalFailureError(
                "nonsingular block is numerically singular under the rank cutoff"
            )
