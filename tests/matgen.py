"""Deterministic random-matrix generators shared by the test modules.

Matrices with a prescribed index are built by orthogonal conjugation of a
block-triangular seed [[T, S], [0, N]]: T nonsingular (optionally carrying a
complex conjugate eigenvalue pair via a 2x2 rotation block), N strictly upper
triangular with a superdiagonal chain of length index-1, so the index of the
result is known by construction.
"""

import numpy as np


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def index_matrix(rng, n, index, complex_pair=False):
    """Random n x n matrix whose index is exactly ``index``."""
    assert 0 <= index <= n
    if index == 0:
        q = 0
    else:
        room = n - (2 if complex_pair else 0)
        q = min(room, index + int(rng.integers(0, 2)))  # maybe one spare zero row
        q = max(q, index)
    rho = n - q
    if complex_pair:
        assert rho >= 2, "complex pair needs a 2x2 nonsingular block"

    t = np.triu(rng.uniform(-1.0, 1.0, (rho, rho)), k=1)
    t[np.arange(rho), np.arange(rho)] = rng.uniform(0.6, 1.6, rho) * rng.choice(
        [-1.0, 1.0], rho
    )
    if complex_pair:
        a, b = rng.uniform(0.5, 1.2), rng.uniform(0.5, 1.2)
        t[0:2, 0:2] = [[a, -b], [b, a]]  # eigenvalues a +- bi

    nb = np.zeros((q, q))
    for i in range(index - 1):
        nb[i, i + 1] = rng.uniform(0.5, 1.5)

    core = np.zeros((n, n))
    core[:rho, :rho] = t
    core[:rho, rho:] = 0.8 * rng.standard_normal((rho, q))
    core[rho:, rho:] = nb
    u = random_orthogonal(rng, n)
    return u @ core @ u.T


def index_matrix_suite(seed=20240611, reps=6):
    """List of (matrix, true_index, has_complex_pair); >= 200 items, >= 20 complex."""
    rng = np.random.default_rng(seed)
    suite = []
    for _ in range(reps):
        for n in range(1, 7):
            for k in range(0, min(3, n) + 1):
                suite.append((index_matrix(rng, n, k), k, False))
                if n - k >= 2:
                    suite.append((index_matrix(rng, n, k, complex_pair=True), k, True))
    return suite


def block_pair_suite(seed=20240612, reps=26):
    """List of (d, e) block pairs, sizes 1..4, mixing dense pairs with pairs
    whose sum and difference have nontrivial indices."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(reps):
        for n in range(1, 5):
            pairs.append((rng.standard_normal((n, n)), rng.standard_normal((n, n))))
            kp = int(rng.integers(0, min(2, n) + 1))
            kq = int(rng.integers(0, min(2, n) + 1))
            p = index_matrix(rng, n, kp)
            q = index_matrix(rng, n, kq)
            pairs.append((0.5 * (p + q), 0.5 * (p - q)))  # d+e = p, d-e = q
    return pairs


def integer_membership_suite(seed=20240613, n_matrices=40, ys_per=5):
    """List of (S, y) with integer entries; S built as a rank-limited product,
    half the y's forced into the column space of a high power of S."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n_matrices):
        n = 2 + i % 4
        r = 1 + int(rng.integers(0, n))
        b = rng.integers(-2, 3, (n, r))
        c = rng.integers(-2, 3, (r, n))
        s = [[int(v) for v in row] for row in (b @ c)]
        power = np.linalg.matrix_power(np.array(s, dtype=object), min(n, 3))
        for j in range(ys_per):
            if j % 2 == 0:
                t = rng.integers(-2, 3, n)
                y = [int(v) for v in power @ t]
            else:
                y = [int(v) for v in rng.integers(-4, 5, n)]
            items.append((s, y))
    return items


def block_triangular_system(rng, n, index, consistent):
    """``(A, y0, y1)``: ``A = U [[T, C], [0, N]] U^T`` of the given index, T a
    scaled orthogonal matrix and N Jordan chains of length ``index``, with a
    right-hand side stacked as in the associated system.

    ``y_top - y_bot`` lies in ``col(A^index) = col(U_1)`` for a consistent
    system, and also has a part in the complement ``col(U_2)`` otherwise;
    ``y_top + y_bot`` is arbitrary (``|A|`` is generically nonsingular).
    """
    m = 0 if index == 0 else min(n - 1, index + int(rng.integers(0, 2)))
    rho = n - m
    t = random_orthogonal(rng, rho) * rng.uniform(0.5, 2.0, rho)
    nb = np.zeros((m, m))
    for i in range(m - 1):
        if (i + 1) % index:
            nb[i, i + 1] = 1.0
    core = np.zeros((n, n))
    core[:rho, :rho] = t
    core[:rho, rho:] = rng.standard_normal((rho, m)) / np.sqrt(rho)
    core[rho:, rho:] = nb
    u = random_orthogonal(rng, n)

    def stacked():
        diff = u[:, :rho] @ rng.standard_normal(rho)
        if not consistent:
            diff = diff + u[:, rho:] @ rng.standard_normal(m)
        total = rng.standard_normal(n)
        return np.concatenate([total + diff, total - diff]) / 2.0

    return u @ core @ u.T, stacked(), stacked()


def graded_index_one(rng, n, condition):
    """``U [[T, C], [0, 0]] U^T``: index 1, with a core T of order between
    ``n / 2`` and ``n - 1`` whose singular values are graded from 1 down to
    ``1 / condition``."""
    rho = int(rng.integers(n // 2, n))
    graded = np.logspace(0.0, -np.log10(condition), rho)
    core = np.zeros((n, n))
    core[:rho, :rho] = (random_orthogonal(rng, rho) * graded) @ random_orthogonal(rng, rho)
    core[:rho, rho:] = rng.standard_normal((rho, n - rho)) / np.sqrt(rho)
    u = random_orthogonal(rng, n)
    return u @ core @ u.T


def gesdd_failure_case():
    """A finite order-256 rank-192 index-1 matrix A and a vector.  LAPACK
    gesdd (numpy's SVD driver) fails to converge on the unnormalized
    ``A^T A A`` when computing singular vectors, at every power-of-two scale
    from 2**-8 to 2**8, with the OpenBLAS 0.3.31 that numpy 2.4 ships; other
    builds may converge.  The core-EP formula's inner matrix at index 1 is
    ``A^T A A`` with A and A^k divided by their peaks, on which gesdd
    converges."""
    rng = np.random.default_rng(1)
    for n in (4, 64, 256):
        a = rng.standard_normal((n, n))
        u, s, vt = np.linalg.svd(a)
        s[-(n // 4):] = 0.0
        a = (u * s) @ vt
        y = rng.standard_normal(n)
    return a, y
