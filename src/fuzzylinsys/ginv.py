"""Generalized-inverse engine for dense real matrices.

Provides a numerical rank with an explicit cutoff policy, the Moore-Penrose
inverse, the matrix index, the core and core-EP inverses (the latter by two
independent routes), and column-space membership tests.  All functions are
pure: they take plain ``numpy`` arrays and return new arrays.  The index
search, the core-EP formula and the core inverse also take a
:class:`MatrixPowers`, so that callers asking several questions of one matrix
decide the ranks of its powers, and find the orthonormal bases of their
column spaces, once.
"""

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
    ``residual_tol`` bounds residuals in membership and consistency checks,
    and ``equality_tol`` bounds matrix-equality comparisons.
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
        ``m**(j-1)``, so with B the basis of the latter, the thin SVD of
        ``m @ B`` gives both the rank of ``m**j`` and its basis.  The singular
        values count only above ``j * cutoff * sigma_max(m)``, the size of the
        roundoff in m and in the j products behind ``m @ B``: a perturbation
        of m that small could remove the ones below.  So the decision is
        scale-free, like the rank of m itself, and is never made against
        ``sigma_max(m)**j``, which can lie far above the real singular values
        of a power of a non-normal m.

        Before any SVD, a certificate is tried: ``sigma_min(m @ B) >=
        sigma_min(B^T m B) >= 1 / ||(B^T m B)^-1||_F``, from one LU-based
        inverse (of m itself at j = 1).  When that bound clears the floor
        10 times over (``||m||_F`` standing in for ``sigma_max(m)`` at j = 1),
        the rank stays and the previous basis spans the same space, with no
        SVD.  Otherwise one SVD with vectors decides and, where the rank
        dropped, gives the basis the next step needs.  So a nonsingular m
        takes one inverse (at n = 128, about half the time of a values-only
        SVD and a fifth of one with vectors) and each drop one inverse and one
        SVD; a matrix whose bound lies within 10 times the floor pays both
        although its rank holds.  Always terminates with
        j <= n + 1 in exact arithmetic; if the rank sequence has not
        stabilized by then the tolerance policy is inconsistent with the
        matrix and a numerical failure is raised.
        """
        if tol not in self._ranges:
            self._ranges[tol] = self._staircase(tol)
        return self._ranges[tol]

    def core_ep_apply(self, w, tol: TolerancePolicy = DEFAULT_TOLERANCES) -> np.ndarray:
        """``m^ce @ w`` as ``B (B^T m B)^-1 B^T w``, B the basis of the column
        space of ``m**k`` at the index k (Wang's core-EP decomposition); at
        index 0, B = I and this is ``solve(m, w)``."""
        b = self.ranges(tol)[1][-2]
        try:
            if b.shape[1] == self.n:
                return np.linalg.solve(self.m, w)
            return b @ np.linalg.solve(b.T @ self.m @ b, b.T @ w)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"linear solve failed: {exc}") from exc

    def _staircase(self, tol: TolerancePolicy):
        cutoff = tol.rank_cutoff(self.m.shape)
        eye = np.eye(self.n)
        eye.flags.writeable = False
        ranks, bases = [self.n], [eye]
        smax = _frobenius(self.m)  # >= sigma_max(m); step 1's SVD replaces it
        for j in range(1, self.n + 2):
            r, b = 0, bases[-1]  # a power after a zero power is zero
            if ranks[-1]:
                c = self.m if j == 1 else self.m @ b
                # sigma_min(m B) >= sigma_min(B^T m B): a certified rank holds
                if _clears(c if j == 1 else b.T @ c, j * cutoff * smax):
                    r = ranks[-1]
                else:
                    u, s, _ = _svd(c, compute_uv=True)
                    if j == 1:
                        smax = s[0]
                    r = int(np.count_nonzero(s > j * cutoff * smax))
                    if r < ranks[-1]:  # the next power needs this one's basis
                        b = u[:, :r]
                        b.flags.writeable = False
            ranks.append(r)
            bases.append(b)
            if r == ranks[-2]:
                return ranks, bases
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
    strictly triangular.
    """
    powers = MatrixPowers(m)
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
    the Schur forms that tidy ``t`` and ``n_block`` do not change it.
    """
    powers = MatrixPowers(m)
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

    Decided by the least-squares residual: true iff
    ``min_z ||m z - y|| <= residual_tol * max(1, ||y||)``.
    """
    a = as_matrix(m)
    v = as_vector(y, a.shape[0])
    try:
        z, *_ = np.linalg.lstsq(a, v, rcond=tol.rank_cutoff(a.shape))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"least-squares solve failed: {exc}") from exc
    residual = float(np.linalg.norm(a @ z - v))
    return residual <= tol.residual_tol * max(1.0, float(np.linalg.norm(v)))


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


def _clears(m: np.ndarray, floor: float) -> bool:
    """Whether the smallest singular value of the square matrix ``m``
    certainly exceeds ``floor``: its lower bound ``1 / ||m^-1||_F``, from one
    LU-based inverse, clears ``floor`` by the margin :data:`_CERTIFICATE_MARGIN`.

    The inverse is taken of ``m`` scaled to unit largest entry, so the test
    is scale-free; a singular LU factor or a norm that is not finite leaves
    the value uncertified (``False``), never a warning.
    """
    peak = np.abs(m).max()
    if peak == 0.0:
        return False
    try:
        inverse = np.linalg.inv(m / peak)
    except np.linalg.LinAlgError:
        return False
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(inverse)
    return bool(np.isfinite(norm)) and peak / norm > _CERTIFICATE_MARGIN * floor


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
