import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matgen import (
    block_pair_suite,
    block_triangular_system,
    gesdd_failure_case,
    graded_index_one,
    index_matrix,
    index_matrix_suite,
    large_staircase_suite,
    random_orthogonal,
    symmetric_near_floor,
)
from oracles import exact_inverse, exact_rank, svd_staircase_ranks

from fuzzylinsys import (
    DEFAULT_TOLERANCES,
    AffineFn,
    CoreEpDecomposition,
    DimensionMismatchError,
    FlsProblem,
    FuzzyLinSysError,
    FuzzyNumber,
    IndexTooLargeError,
    MatrixPowers,
    NumericalFailureError,
    TolerancePolicy,
    core_ep_decompose,
    core_ep_from_blocks,
    core_ep_via_decomposition,
    core_ep_via_formula,
    core_inverse,
    fuzzy_solution,
    in_column_space,
    matrix_index,
    matrix_power,
    moore_penrose,
    one_three_inverse,
    power_ranks,
    rank,
    solve,
    validity,
)
from fuzzylinsys import ginv
from fuzzylinsys._util import as_matrix, as_vector
from fuzzylinsys.ginv import _check_decomposition, _clears

EQ_TOL = 1e-9


def penrose_residuals(m, x):
    scale = 1.0 + np.linalg.norm(m)
    return (
        np.linalg.norm(m @ x @ m - m) / scale,
        np.linalg.norm(x @ m @ x - x) / scale,
        np.linalg.norm((m @ x).T - m @ x) / scale,
        np.linalg.norm((x @ m).T - x @ m) / scale,
    )


def core_ep_residuals(m, x, k):
    """Residuals of the three defining equations of the core-EP inverse."""
    scale = 1.0 + np.linalg.norm(m)
    mk = np.linalg.matrix_power(m, k)
    return (
        np.linalg.norm(x @ mk @ m - mk) / scale,
        np.linalg.norm(m @ x @ x - x) / scale,
        np.linalg.norm((m @ x).T - m @ x) / scale,
    )


class TestRank:
    def test_singular_associated_matrix(self, consistent_2x2):
        assert rank(consistent_2x2.s) == 2

    def test_zero_matrix(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_augmented_family_vs_single_member(self, inconsistent_2x2):
        w = inconsistent_2x2
        # Augmenting with the whole affine right-hand-side family gives 4;
        # any single member of the family only raises the rank to 3.
        assert rank(np.column_stack([w.s, w.y0, w.y1])) == 4
        assert rank(np.column_stack([w.s, w.y0])) == 3
        assert rank(np.column_stack([w.s, w.y0 + 0.5 * w.y1])) == 3

    def test_explicit_cutoff_overrides_default(self):
        m = np.diag([1.0, 1e-6])
        assert rank(m) == 2
        assert rank(m, TolerancePolicy(rank_rel_tol=1e-3)) == 1

    def test_agrees_with_exact_oracle_on_integers(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            r = int(rng.integers(1, n + 1))
            m = rng.integers(-3, 4, (n, r)) @ rng.integers(-3, 4, (r, n))
            assert rank(m.astype(float)) == exact_rank(m.tolist())

    def test_reads_the_kept_svd(self, svd_shapes):
        m = np.array([[0.0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1]])
        matrix_index(m)
        moore_penrose(m)
        svd_shapes.clear()
        assert rank(m) == 2
        assert svd_shapes == []

    def test_is_the_first_staircase_rank(self):
        # one rule decides rank(m) and the rank of m in the staircase: on
        # the small index suite, on orders 40 to 96 whose later drops are
        # certified, and on symmetric matrices with an eigenvalue near the
        # floor, at large and small scales and under a coarser cutoff too
        rng = np.random.default_rng(116)
        near_floor = [
            symmetric_near_floor(rng, int(rng.integers(3, 17)), int(rng.integers(1, 3)),
                                 rng.uniform(0.5, 3.0))
            for _ in range(20)
        ]
        cases = [(a, (1.0, 1e150, 1e-150)) for a, _, _ in index_matrix_suite()]
        cases += [(a, (1.0,)) for a, _ in large_staircase_suite()]
        cases += [(a, (1.0, 2.0**600, 2.0**-600)) for a in near_floor]
        for tol in (DEFAULT_TOLERANCES, TolerancePolicy(rank_rel_tol=1e-10)):
            for a, scales in cases:
                for scale in scales:
                    m = scale * a
                    assert rank(m, tol) == power_ranks(m, tol)[1]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DimensionMismatchError):
            rank(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            rank(np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestMoorePenrose:
    def test_identity(self):
        np.testing.assert_allclose(moore_penrose(np.eye(2)), np.eye(2), atol=EQ_TOL)

    def test_zero_gives_transposed_zero(self):
        x = moore_penrose(np.zeros((3, 2)))
        assert x.shape == (2, 3)
        assert np.all(x == 0)

    def test_rank_deficient_rectangular(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        x = moore_penrose(m)
        assert max(penrose_residuals(m, x)) <= EQ_TOL

    def test_penrose_suite(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            r = int(rng.integers(0, min(rows, cols) + 1))
            if r == 0:
                m = np.zeros((rows, cols))
            else:
                m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
            x = moore_penrose(m)
            assert max(penrose_residuals(m, x)) <= EQ_TOL


def gesdd_fails_off_triangular(monkeypatch):
    """Make ``np.linalg.svd`` raise, as gesdd does when it does not converge,
    on every matrix that is not upper triangular: the SVD of ``a`` fails and
    the fallback's SVD of the triangular factor R runs."""
    svd = np.linalg.svd

    def fails_unless_triangular(a, *args, **kwargs):
        if np.any(np.tril(a, -1)):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_unless_triangular)


class TestSvdFallback:
    def test_core_ep_where_gesdd_does_not_converge(self):
        # gesdd fails on the unnormalized A^T A A of this matrix (see
        # test_where_gesdd_really_fails); the formula divides A and A^k by
        # their peaks, and gesdd converges on the inner matrix it forms, so
        # this checks the formula's result on that rank-192 index-1 matrix
        a, _ = gesdd_failure_case()
        x = core_ep_via_formula(a)
        assert max(core_ep_residuals(a, x, 1)) <= EQ_TOL

    def test_where_gesdd_really_fails(self):
        # gesdd (numpy 2.4 with its OpenBLAS 0.3.31) does not converge on this
        # matrix at any power-of-two scale, so the SVD its MatrixPowers keeps
        # is taken by the QR route; other builds may converge
        a, _ = gesdd_failure_case()
        m = a.T @ a @ a
        assert rank(m) == 192
        assert max(penrose_residuals(m, moore_penrose(m))) <= EQ_TOL
        assert matrix_index(m) == 1

    def test_qr_route_takes_over_when_gesdd_fails(self, monkeypatch):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 6))
        expected_rank, expected_inverse = rank(m), moore_penrose(m)

        gesdd_fails_off_triangular(monkeypatch)
        assert rank(m) == expected_rank
        np.testing.assert_allclose(moore_penrose(m), expected_inverse, atol=EQ_TOL)

    def test_second_failure_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(ginv, "_last_powers", None)
        rng = np.random.default_rng(25)
        cases = [rng.standard_normal((p, 3)) @ rng.standard_normal((3, q))
                 for p, q in ((5, 6), (6, 5), (5, 5))]

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for m in cases:
            for f in (rank, moore_penrose):
                with pytest.raises(NumericalFailureError, match="SVD failed"):
                    f(m)


class TestOneThreeInverse:
    def test_identity_and_zero(self):
        np.testing.assert_allclose(one_three_inverse(np.eye(3)), np.eye(3), atol=EQ_TOL)
        assert np.all(one_three_inverse(np.zeros((2, 4))) == 0)

    def test_equations_one_and_three(self, inconsistent_2x2):
        m = matrix_power(inconsistent_2x2.s, 2)
        x = one_three_inverse(m)
        scale = 1.0 + np.linalg.norm(m)
        assert np.linalg.norm(m @ x @ m - m) <= EQ_TOL * scale
        assert np.linalg.norm((m @ x).T - m @ x) <= EQ_TOL * scale


class TestMatrixPower:
    def test_squared_matches_hand_computed(self, consistent_3x3):
        np.testing.assert_array_equal(
            matrix_power(consistent_3x3.s, 2), consistent_3x3.s_squared
        )

    def test_power_zero_and_one(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matrix_power(m, 0), np.eye(2))
        np.testing.assert_array_equal(matrix_power(m, 1), m)

    def test_overflow_is_a_typed_failure(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="^matrix power overflows"):
                matrix_power([[2**1000, 0], [0, 1]], 2)
            assert matrix_power([[2**500, 0], [0, 1]], 2)[0, 0] == 2.0**1000

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            matrix_power(np.eye(2), -1)
        with pytest.raises(ValueError):
            matrix_power(np.eye(2), 1.5)

    def test_block_power_identity(self):
        # S = [[d, e], [e, d]] has S^p with diagonal ((d+e)^p + (d-e)^p)/2 and
        # off-diagonal ((d+e)^p - (d-e)^p)/2.
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            d = rng.standard_normal((n, n))
            e = rng.standard_normal((n, n))
            s = np.block([[d, e], [e, d]])
            for p in range(1, 6):
                plus = np.linalg.matrix_power(d + e, p)
                minus = np.linalg.matrix_power(d - e, p)
                expected = np.block(
                    [[plus + minus, plus - minus], [plus - minus, plus + minus]]
                ) / 2.0
                actual = matrix_power(s, p)
                scale = 1.0 + np.linalg.norm(expected)
                assert np.linalg.norm(actual - expected) <= 1e-9 * scale


class TestMatrixIndex:
    def test_worked_systems(self, consistent_2x2, consistent_3x3):
        assert matrix_index(consistent_2x2.s) == 1
        assert matrix_index(consistent_3x3.s) == 2

    def test_nonsingular_is_zero(self):
        assert matrix_index(np.diag([1.0, 2.0])) == 0

    def test_zero_matrix_is_one(self):
        assert matrix_index(np.zeros((3, 3))) == 1

    def test_matches_construction(self):
        rng = np.random.default_rng(14)
        for n in range(1, 7):
            for k in range(0, min(3, n) + 1):
                m = index_matrix(rng, n, k)
                assert matrix_index(m) == k

    def test_roundoff_in_high_powers_is_not_rank(self):
        # Indices up to n: roundoff left in the null space of A^k can exceed
        # n * eps * sigma_max(A^k), but not n * eps * k * sigma_max(A) on
        # A B, B a basis of the column space of A^(k-1).
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, n + 1))
            m = index_matrix(rng, n, k)
            assert matrix_index(m) == k

    def test_non_normal_core_keeps_its_rank(self):
        # A = diag(J, 0), J = [[1, 1e5], [0, 1]] of condition 1e10: A^2 is
        # exact, with singular values 2e5 and 5e-6, and its rank is 2 although
        # 5e-6 lies far under eps * sigma_max(A)^2.
        m = np.zeros((3, 3))
        m[:2, :2] = [[1.0, 1e5], [0.0, 1.0]]
        assert power_ranks(m) == [3, 2, 2]
        assert matrix_index(m) == 1
        dec = core_ep_decompose(m)
        assert (dec.k, dec.rho) == (1, 2)
        expected = np.zeros((3, 3))
        expected[:2, :2] = [[1.0, -1e5], [0.0, 1.0]]  # J^-1
        np.testing.assert_allclose(core_ep_via_decomposition(m), expected, rtol=1e-9, atol=1e-6)

    def test_symmetric_index_at_most_one(self):
        # Hilbert(12): ill-conditioned, symmetric, so col(H^k) = col(H)
        i = np.arange(12)
        assert matrix_index(1.0 / (i[:, None] + i[None, :] + 1.0)) <= 1

    @pytest.mark.xfail(strict=True, reason=(
        "the floor j * cutoff * sigma_max grows with j, so step 2 drops an "
        "eigenvalue between 1 and 2 times n * eps * max|lambda| that step 1 kept: "
        "ranks [3, 2, 1, 1], index 2 for a symmetric matrix"))
    def test_symmetric_index_at_most_one_near_the_floor(self):
        m = np.diag([1.0, 4.5 * np.finfo(float).eps, 0.0])
        assert matrix_index(m) <= 1
        core_inverse(m)

    def test_requires_square(self):
        with pytest.raises(DimensionMismatchError):
            matrix_index(np.zeros((2, 3)))

    def test_certified_ranks_match_svd_staircase(self):
        # A rank kept on a certificate, without an SVD, is the rank the SVD
        # would have given, at every scale and on ill-conditioned matrices
        i = np.arange(12)
        non_normal = np.zeros((3, 3))
        non_normal[:2, :2] = [[1.0, 1e5], [0.0, 1.0]]
        cases = [scale * m for m, _, _ in index_matrix_suite()
                 for scale in (1.0, 1e-150, 1e150)]
        cases += [1.0 / (i[:, None] + i[None, :] + 1.0), non_normal, gesdd_failure_case()[0]]
        # and a rank dropped on a certificate too, at orders 40 to 96
        cases += [m for m, kind in large_staircase_suite() if kind != "permuted nilpotent"]
        for m in cases:
            assert power_ranks(m) == svd_staircase_ranks(m)


class TestCoreEpDecompose:
    def test_worked_inconsistent_system(self, inconsistent_2x2):
        dec = core_ep_decompose(inconsistent_2x2.s)
        assert dec.k == 2
        np.testing.assert_allclose(dec.t, [[2.0]], atol=EQ_TOL)
        np.testing.assert_allclose(dec.s_block, np.zeros((1, 3)), atol=EQ_TOL)
        # The nonsingular part is one-dimensional with a unique unit basis
        # vector (up to sign).
        np.testing.assert_allclose(np.abs(dec.u[:, 0]), [0.5] * 4, atol=EQ_TOL)
        assert np.linalg.norm(np.linalg.matrix_power(dec.n_block, 2)) <= EQ_TOL

    def test_identity(self):
        dec = core_ep_decompose(np.eye(3))
        np.testing.assert_allclose(dec.u, np.eye(3), atol=EQ_TOL)
        np.testing.assert_allclose(dec.t, np.eye(3), atol=EQ_TOL)
        assert dec.n_block.shape == (0, 0)
        assert dec.k == 0

    def test_nilpotent_input(self):
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        dec = core_ep_decompose(m)
        assert dec.t.shape == (0, 0)
        np.testing.assert_allclose(dec.u, np.eye(3), atol=EQ_TOL)
        np.testing.assert_allclose(dec.n_block, m, atol=EQ_TOL)

    def test_invariants_on_random_suite(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, min(3, n) + 1))
            m = index_matrix(rng, n, k, complex_pair=bool(rng.integers(0, 2)) and n - k >= 2)
            dec = core_ep_decompose(m)
            scale = 1.0 + np.linalg.norm(m)
            assert np.linalg.norm(dec.u @ dec.u.T - np.eye(n)) <= EQ_TOL
            assert np.linalg.norm(dec.assemble() - m) <= EQ_TOL * scale
            if dec.n_block.shape[0]:
                nk = np.linalg.matrix_power(dec.n_block, max(dec.k, 1))
                assert np.linalg.norm(nk) <= EQ_TOL * scale
            # The generator keeps nonzero eigenvalue moduli >= 0.5 while
            # defective zeros perturb by at most ~eps**(1/3), so counting
            # moduli above 0.1 is an independent oracle for the core size.
            assert dec.rho == int(np.count_nonzero(np.abs(np.linalg.eigvals(m)) > 0.1))
            ranks = power_ranks(m)
            assert (dec.k, dec.rho) == (len(ranks) - 2, ranks[-1])

    def test_block_structure_at_every_scale(self):
        # u is orthonormal, its first rho columns span col(m**k), n_block is
        # strictly upper triangular and u [[t^-1, 0], [0, 0]] u^T is the
        # core-EP inverse; norms are taken on m scaled to unit largest entry
        rng = np.random.default_rng(80)
        i = np.arange(12)
        non_normal = np.zeros((3, 3))
        non_normal[:2, :2] = [[1.0, 1e5], [0.0, 1.0]]
        cases = [m for m, _, _ in index_matrix_suite()]
        cases += [block_triangular_system(rng, n, k, True)[0]
                  for n in range(2, 41) for k in range(4)]
        cases += [1.0 / (i[:, None] + i[None, :] + 1.0), non_normal]
        for m in cases:
            peak = np.abs(m).max() or 1.0
            norm = np.linalg.norm(m / peak)
            ranks = svd_staircase_ranks(m)
            k, rho = len(ranks) - 2, ranks[-1]
            mk = np.linalg.matrix_power(m / peak, k)
            for scale in (1.0, 1e-150, 1e150):
                dec = core_ep_decompose(scale * m)
                c = scale * peak
                assert (dec.k, dec.rho) == (k, rho)
                assert np.linalg.norm(np.tril(dec.n_block / c)) <= 1e-14 * norm
                assert np.linalg.norm(dec.u.T @ dec.u - np.eye(len(m))) <= 1e-12
                b = dec.u[:, :rho]
                assert np.linalg.norm(mk - b @ (b.T @ mk)) <= 1e-12 * norm ** k
                x = core_ep_via_decomposition(scale * m) * c
                assert np.linalg.norm(b @ np.linalg.inv(dec.t / c) @ b.T - x) <= \
                    1e-12 * np.linalg.norm(x)

    def test_reads_the_staircase_without_factorizing(self, monkeypatch):
        # once the ranks are decided, the decomposition takes no SVD, no QR
        # and no Cholesky factorization: it decides no rank again, not even
        # for a core beyond the certificate's reach (Hilbert(12))
        def not_called(*args, **kwargs):
            raise AssertionError("matrix factorized")

        rng = np.random.default_rng(81)
        i = np.arange(12)
        powers = [MatrixPowers(block_triangular_system(rng, 16, k, True)[0]) for k in range(4)]
        powers += [MatrixPowers(m) for m, _, _ in index_matrix_suite(reps=1)]
        powers.append(MatrixPowers(1.0 / (i[:, None] + i[None, :] + 1.0)))
        for p in powers:
            p.staircase()
        monkeypatch.setattr(np.linalg, "svd", not_called)
        monkeypatch.setattr(np.linalg, "qr", not_called)
        monkeypatch.setattr(np.linalg, "cholesky", not_called)
        for p in powers:
            dec = core_ep_decompose(p)
            ranks = p.staircase().ranks
            assert (dec.k, dec.rho) == (len(ranks) - 2, ranks[-1])

    def test_reconstruction_check_at_every_scale(self):
        # T perturbed by 1e-6 relative no longer reconstructs the input, at
        # any scale: the bound is relative to ||m||, with no absolute floor;
        # nor does an N block that is not finite, whose error norm is NaN
        rng = np.random.default_rng(84)
        m = index_matrix(rng, 8, 2)
        for scale in (1.0, 1e-150, 1e150):
            powers = MatrixPowers(scale * m)
            dec = core_ep_decompose(powers)
            # the check reads the factors of the unit-scale copy, 2**-e m
            exact, perturbed, infinite = (dataclasses.replace(dec, **{
                name: np.ldexp(getattr(dec, name), -powers.exponent)
                for name in ("t", "s_block", "n_block")}) for _ in range(3))
            _check_decomposition(powers, exact, DEFAULT_TOLERANCES)
            noise = rng.standard_normal(perturbed.t.shape)
            perturbed.t = perturbed.t + 1e-6 * np.abs(perturbed.t).max() * noise
            infinite.n_block = np.full_like(infinite.n_block, np.inf)
            for dec in (perturbed, infinite):
                with pytest.raises(NumericalFailureError, match="reconstruct"):
                    _check_decomposition(powers, dec, DEFAULT_TOLERANCES)

    def test_index_two_where_eigenvalues_blur(self):
        # Perturbed defective zero eigenvalues make a split of this matrix by
        # eigenvalue modulus select 127 eigenvalues where rank(m**2) is 125.
        m, _, _ = block_triangular_system(np.random.default_rng([2, 171]), 128, 2, True)
        dec = core_ep_decompose(m)
        assert (dec.k, dec.rho) == (2, 125)
        a = core_ep_via_formula(m)
        b = core_ep_via_decomposition(m)
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)


class TestCoreEpRoutes:
    def test_decomposition_route_worked_system(self, inconsistent_2x2):
        np.testing.assert_allclose(
            core_ep_via_decomposition(inconsistent_2x2.s),
            inconsistent_2x2.core_ep,
            atol=EQ_TOL,
        )

    def test_formula_route_worked_system(self, consistent_3x3):
        np.testing.assert_allclose(
            core_ep_via_formula(consistent_3x3.s), consistent_3x3.core_ep, atol=EQ_TOL
        )

    def test_identity(self):
        np.testing.assert_allclose(core_ep_via_formula(np.eye(4)), np.eye(4), atol=EQ_TOL)
        np.testing.assert_allclose(
            core_ep_via_decomposition(np.eye(4)), np.eye(4), atol=EQ_TOL
        )

    def test_nilpotent_gives_zero(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.linalg.norm(core_ep_via_formula(m)) <= EQ_TOL
        assert np.linalg.norm(core_ep_via_decomposition(m)) <= EQ_TOL

    def test_defining_equations_random_index_two(self):
        rng = np.random.default_rng(16)
        m = index_matrix(rng, 5, 2)
        x = core_ep_via_formula(m)
        assert max(core_ep_residuals(m, x, 2)) <= EQ_TOL

    def test_route_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, min(3, n) + 1))
            m = index_matrix(rng, n, k, complex_pair=bool(rng.integers(0, 2)) and n - k >= 2)
            a = core_ep_via_formula(m)
            b = core_ep_via_decomposition(m)
            assert np.linalg.norm(a - b) <= EQ_TOL * (1.0 + np.linalg.norm(a))

    def test_nonsingular_collapse_to_inverse(self):
        rng = np.random.default_rng(18)
        m = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        x = core_ep_via_formula(m)
        np.testing.assert_allclose(x @ m, np.eye(4), atol=1e-8)

    def test_index_zero_matches_the_exact_inverse(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 60:
            n = int(rng.integers(2, 6))
            m = rng.integers(-2, 3, size=(n, n))
            if exact_rank(m.tolist()) < n:
                continue
            exact = np.array(exact_inverse(m.tolist()), dtype=float)
            a = m.astype(float)
            assert matrix_index(a) == 0
            x = core_ep_via_formula(a)
            assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)
            checked += 1

    def test_underflowing_power_is_a_typed_failure(self):
        # the nonsingular part 1e-10 survives the staircase, but its 34th
        # power underflows in the formula's A^k at unit scale
        m = np.pad(np.diag(np.ones(33), 1), (0, 1))  # a nilpotent of index 34
        m[-1, -1] = 1e-10
        assert matrix_index(m) == 34
        with pytest.raises(NumericalFailureError, match="underflows"):
            core_ep_via_formula(m)
        assert core_ep_via_decomposition(m)[-1, -1] == pytest.approx(1e10)

    def test_huge_entries_do_not_overflow(self):
        m = np.array([[1e110, 1e110], [0.0, 0.0]])
        expected = [[1e-110, 0.0], [0.0, 0.0]]
        np.testing.assert_allclose(core_ep_via_formula(m), expected, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(core_ep_via_decomposition(m), expected, rtol=1e-12, atol=0.0)

    def test_high_index_at_huge_scale(self):
        # sigma_max(A)^4 overflows at this scale; no route forms that power
        m = index_matrix(np.random.default_rng(1), 6, 4)
        expected = core_ep_via_formula(m) / 1e100
        with np.errstate(over="raise", invalid="raise"):
            assert matrix_index(1e100 * m) == 4
            for route in (core_ep_via_formula, core_ep_via_decomposition):
                np.testing.assert_allclose(route(1e100 * m), expected, rtol=0.0,
                                           atol=1e-12 * np.abs(expected).max())

    def test_checks_hold_at_extreme_scales(self):
        # The reconstruction and equation-(1) checks take norms of matrices
        # whose squared entries leave the double range; numpy's overflow
        # warnings are errors in this suite.
        m = index_matrix(np.random.default_rng(24), 5, 1)
        for scale in (1e200, 1e-200):
            dec = core_ep_decompose(scale * m)
            ranks = power_ranks(m)
            assert (dec.k, dec.rho) == (len(ranks) - 2, ranks[-1])
            np.testing.assert_allclose(core_inverse(scale * m) * scale,
                                       core_ep_via_decomposition(m), rtol=1e-9, atol=1e-9)


class TestNearTheFloatMaximum:
    """A finite matrix within a factor n of the float maximum has the ranks
    and inverses of the same matrix at unit scale, scaled: its norm and
    singular values overflow, those of its unit-scale copy do not."""

    def test_square(self):
        m = 1e308 * np.ones((2, 2))
        inverse = np.full((2, 2), 1e-308 / 4)  # 2.5e-309, subnormal
        assert in_column_space(m, [1.0, 1.0])
        for given in (m, MatrixPowers(m)):
            assert rank(given) == 1
            assert power_ranks(given) == [2, 1, 1]
            for f in (moore_penrose, core_ep_via_decomposition, core_inverse):
                np.testing.assert_allclose(f(given), inverse, rtol=1e-12, atol=0.0)

    def test_decomposition_names_the_overflow_of_t(self):
        # every factor is computed; only T = [[2e308]] is not representable
        with pytest.raises(NumericalFailureError, match="overflows"):
            core_ep_decompose(1e308 * np.ones((2, 2)))

    def test_rectangular(self):
        m = 1e308 * np.ones((3, 2))
        assert rank(m) == 1
        np.testing.assert_allclose(moore_penrose(m), np.full((2, 3), 1e-308 / 6),
                                   rtol=1e-12, atol=0.0)


class TestCoreInverse:
    def test_worked_system(self, consistent_2x2):
        np.testing.assert_allclose(
            core_inverse(consistent_2x2.s), consistent_2x2.core_inverse, atol=EQ_TOL
        )

    def test_identity(self):
        np.testing.assert_allclose(core_inverse(np.eye(3)), np.eye(3), atol=EQ_TOL)

    def test_rejects_index_two(self, consistent_3x3):
        with pytest.raises(IndexTooLargeError):
            core_inverse(consistent_3x3.s)

    def test_collapses_to_core_ep_at_index_one(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = index_matrix(rng, n, 1)
            x = core_inverse(m)
            np.testing.assert_array_equal(x, core_ep_via_decomposition(m))
            np.testing.assert_allclose(x, core_ep_via_formula(m), atol=EQ_TOL)
            scale = 1.0 + np.linalg.norm(m)
            assert np.linalg.norm(m @ x @ m - m) <= EQ_TOL * scale

    def test_ill_conditioned_non_normal(self):
        # A = diag(J, 0), J = [[1, 1e5], [0, 1]] of condition 1e10, index 1:
        # the core inverse is diag(J^-1, 0)
        m = np.zeros((3, 3))
        m[:2, :2] = [[1.0, 1e5], [0.0, 1.0]]
        expected = np.zeros((3, 3))
        expected[:2, :2] = [[1.0, -1e5], [0.0, 1.0]]
        np.testing.assert_allclose(core_inverse(m), expected, rtol=1e-9, atol=1e-6)


    def test_backward_error_bound_at_every_scale(self, monkeypatch):
        # equation (1) holds to a backward error, eps * ||A|| * cond, however
        # ill-conditioned the core and whatever the scale of A; an X off by
        # 1e-6 fails it at every scale
        rng = np.random.default_rng(82)
        cases = [graded_index_one(rng, 12, 10.0 ** rng.uniform(4.0, 12.0)) for _ in range(100)]
        scales = (1.0, 1e-150, 1e150, 1e-200, 1e200, 2.0 ** -500)
        for m in cases:
            for scale in scales:
                np.testing.assert_array_equal(core_inverse(scale * m),
                                              core_ep_via_decomposition(scale * m))
        noise = rng.standard_normal((12, 12))
        apply = MatrixPowers.core_ep_apply

        def perturbed(self, w, tol=DEFAULT_TOLERANCES):
            x = apply(self, w, tol)
            return x + 1e-6 * np.abs(x).max() * noise

        monkeypatch.setattr(MatrixPowers, "core_ep_apply", perturbed)
        # an inverse kept from before the patch would skip the perturbation
        monkeypatch.setattr(ginv, "_last_powers", None)
        for m in cases:
            for scale in scales:
                with pytest.raises(NumericalFailureError, match="defining equation"):
                    core_inverse(scale * m)


class TestOverflow:
    """An inverse beyond the floating-point range raises, without a warning."""

    @pytest.mark.parametrize("a", [[[1e-310, 2e-310], [1e-310, 3e-310]],
                                   [[5e-324, 0.0], [0.0, 0.0]],
                                   [[1e-310]], (1e-310 * np.eye(3)).tolist()],
                             ids=["subnormal", "min", "1x1", "scaled-identity"])
    @pytest.mark.parametrize("inverse", [core_ep_via_decomposition, core_ep_via_formula,
                                         core_inverse, moore_penrose],
                             ids=lambda f: f.__name__)
    def test_overflowing_inverse_raises(self, inverse, a):
        for m in (np.array(a), MatrixPowers(a)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalFailureError, match="overflows"):
                    inverse(m)

    def test_nan_core_inverse_fails_without_a_warning(self):
        # the core-EP inverse of this index-1 matrix near the subnormal range
        # comes back with NaN entries and no inf, and 2**1038 times its
        # unit-scale copy overflows
        a = np.ldexp(np.array([[1.0, 2.0, 1.0], [3.0, -1.0, 3.0], [0.0, 1.0, 0.0]]), -1040)
        for m in (a, MatrixPowers(a)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalFailureError, match="defining equation"):
                    core_inverse(m)

    def test_nan_residual_fails_core_inverse(self, monkeypatch):
        monkeypatch.setattr(MatrixPowers, "core_ep_apply",
                            lambda self, w, tol=DEFAULT_TOLERANCES: np.full(w.shape, np.nan))
        # an inverse kept from an earlier test would skip the patch
        monkeypatch.setattr(ginv, "_last_powers", None)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalFailureError, match="defining equation"):
            core_inverse(np.eye(2))

    def test_core_inverse_check_is_finite_under_a_fine_cutoff(self, monkeypatch):
        # the core-EP inverse of the unit-scale copy has an entry 2e160,
        # whose square overflows a plain Frobenius norm; X off by 1e-6 of
        # its largest entry still fails the defining equation
        powers = MatrixPowers(np.diag([1.0, 1e-160]))
        tol = TolerancePolicy(rank_rel_tol=1e-300)
        apply = MatrixPowers.core_ep_apply

        def perturbed(self, w, tol=DEFAULT_TOLERANCES):
            x = apply(self, w, tol)
            x[0, 0] += 1e-6 * np.abs(x).max()
            return x

        monkeypatch.setattr(MatrixPowers, "core_ep_apply", perturbed)
        with pytest.raises(NumericalFailureError, match="defining equation"):
            core_inverse(powers, tol)

    def test_overflowing_check_of_core_inverse(self):
        # under a fine cutoff 2**601 X, the core-EP inverse of the unit-scale
        # copy, has entries near 1e180; the check is taken on X's own
        # unit-scale copy: no warning, and X or the error of the defining
        # equation
        m, tol = np.array([[1.0, 2.0**600], [0.0, 1.0]]), TolerancePolicy(rank_rel_tol=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                x = core_inverse(m, tol)
            except NumericalFailureError as exc:
                assert "defining equation" in str(exc)
            else:
                np.testing.assert_array_equal(x, core_ep_via_decomposition(m, tol))


class TestInColumnSpace:
    def test_worked_memberships(self, consistent_3x3, inconsistent_2x2):
        s2 = matrix_power(consistent_3x3.s, 2)
        assert in_column_space(s2, consistent_3x3.y0)
        s2_bad = matrix_power(inconsistent_2x2.s, 2)
        assert not in_column_space(s2_bad, inconsistent_2x2.y0)
        # exact cross-check: S^2 is all-ones (rank 1), the augmented rank is 2
        assert exact_rank(s2_bad.astype(int).tolist()) == 1
        assert exact_rank(np.column_stack([s2_bad, inconsistent_2x2.y0]).astype(int).tolist()) == 2

    def test_zero_vector_always_member(self):
        rng = np.random.default_rng(20)
        m = rng.standard_normal((4, 4))
        assert in_column_space(m, np.zeros(4))

    def test_image_vectors_are_members(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = rng.standard_normal((rows, cols))
            z = rng.standard_normal(cols)
            assert in_column_space(m, m @ z)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            in_column_space(np.eye(3), np.ones(2))

    def test_judged_relative_to_y_at_any_scale(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert in_column_space(np.eye(2), [1e200, 1e200])
            for c in (1e-200, 1e-160, 1.0, 1e160, 1e200):
                assert in_column_space(m, [c, c])
                assert not in_column_space(m, [c, 2 * c])

    def test_reads_the_kept_svd(self, svd_shapes, monkeypatch):
        def no_lstsq(*args, **kwargs):
            raise AssertionError("in_column_space called np.linalg.lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        m = np.array([[0.0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1]])
        for given in (m, MatrixPowers(m)):
            moore_penrose(given)
            svd_shapes.clear()
            assert in_column_space(given, [1.0, 1.0, 2.0, 2.0])
            assert not in_column_space(given, [1.0, 0.0, 0.0, 0.0])
            assert svd_shapes == []

    def test_checks_y_before_any_svd(self, svd_shapes, monkeypatch):
        # a zero y is a member, a y of the wrong length or with a NaN is an
        # error, and none of the three needs a factorization of m
        monkeypatch.setattr(ginv, "_last_powers", None)
        rng = np.random.default_rng(25)
        square = rng.standard_normal((64, 64))
        for m in (square, MatrixPowers(square), rng.standard_normal((64, 48))):
            assert in_column_space(m, np.zeros(64))
            with pytest.raises(DimensionMismatchError):
                in_column_space(m, np.ones(63))
            with pytest.raises(ValueError, match="finite"):
                in_column_space(m, np.r_[np.ones(63), np.nan])
        assert svd_shapes == []

    def test_qr_route_takes_over_when_gesdd_fails(self, monkeypatch):
        monkeypatch.setattr(ginv, "_last_powers", None)
        rng = np.random.default_rng(24)
        cases = [rng.standard_normal((p, 3)) @ rng.standard_normal((3, q))
                 for p, q in ((5, 6), (6, 5), (5, 5))]
        members = [(m, m @ rng.standard_normal(m.shape[1])) for m in cases]
        outsiders = [(m, rng.standard_normal(m.shape[0])) for m in cases]

        gesdd_fails_off_triangular(monkeypatch)
        assert all(in_column_space(m, y) for m, y in members)
        assert not any(in_column_space(m, y) for m, y in outsiders)


class TestCertificate:
    """``_clears(m, floor)`` may say True only where sigma_min(m) > 10 floor."""

    def test_sound_on_graded_matrices(self):
        rng = np.random.default_rng(60)
        certified = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1.0, 1e-150, 1e150, 1e-300, 1e300):
                for _ in range(240):
                    k = int(rng.integers(1, 41))
                    graded = np.logspace(0.0, -rng.uniform(0.0, 10.0), k)
                    m = scale * (random_orthogonal(rng, k) * graded) @ random_orthogonal(rng, k)
                    sigma = np.linalg.svd(m, compute_uv=False)[-1]
                    # floors straddling sigma / 10, coarsely and within roundoff
                    spread = rng.uniform(-1.0, 0.3) if rng.random() < 0.5 else \
                        rng.uniform(-1e-9, 1e-9)
                    floor = sigma / 10.0 * 10.0 ** spread
                    if _clears(m, floor):
                        certified += 1
                        assert sigma > 10.0 * floor
        assert certified >= 200

    def test_edges_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _clears(np.zeros((3, 3)), 0.0)
            assert not _clears(np.eye(3), 1e308)
            assert not _clears(1e-300 * np.eye(3), 1e308)
            assert not _clears(np.diag([1.0, 1e-12]), 1e-20)  # beyond its reach
            assert _clears(np.eye(3), 0.09)
            assert not _clears(np.eye(3), 0.1)

    @pytest.mark.parametrize("m, floor", [
        (np.array([[1e-320]]), np.float64(1.0)),  # floor / peak overflows
        (np.eye(2), np.float64(1e307)),  # t * t overflows
        (1e-320 * np.eye(2), np.float64(1e-15)),  # t * t overflows
        (1e-300 * np.eye(3), np.float64(1e10)),  # floor / peak overflows
    ])
    def test_a_core_that_cannot_clear_warns_of_nothing(self, m, floor):
        # 10 floor >= k peak rules a certificate out before any product
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _clears(m, floor)

    @pytest.mark.parametrize("tol", [DEFAULT_TOLERANCES, TolerancePolicy(rank_rel_tol=0.5)])
    def test_subnormal_second_core_warns_of_nothing(self, tol):
        # the second step's core is subnormal; a certificate formed in full
        # overflows, in ``t * t`` under the default policy and in
        # ``floor / peak`` under a coarse one
        m = np.array([[1e-320, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert power_ranks(MatrixPowers(m), tol) == [2, 1, 0, 0]


class TestTolerancePolicy:
    def test_defaults_resolve_by_shape(self):
        tol = TolerancePolicy()
        assert tol.rank_cutoff((4, 4)) == 4 * np.finfo(float).eps
        assert tol.rank_cutoff((3, 7)) == 7 * np.finfo(float).eps

    @pytest.mark.parametrize("bad", [{"rank_rel_tol": 0.0}, {"rank_rel_tol": 1.5},
                                     {"residual_tol": -1e-9}, {"equality_tol": 1.0}])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            TolerancePolicy(**bad)

    @pytest.mark.parametrize("name", ["rank_rel_tol", "residual_tol", "equality_tol"])
    @pytest.mark.parametrize("value", ["1e-8", [1e-8], 1e-8j, float("nan")])
    def test_rejects_what_is_not_a_real_number(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            TolerancePolicy(**{name: value})


# The functions that read a staircase, given a bare matrix or a MatrixPowers.
STAIRCASE_FUNCTIONS = (power_ranks, matrix_index, core_ep_decompose,
                       core_ep_via_decomposition, core_ep_via_formula, core_inverse,
                       moore_penrose)


def _bits(result):
    """A value equal for two results exactly when their bits are."""
    if isinstance(result, CoreEpDecomposition):
        return (result.k,) + tuple(_bits(getattr(result, name))
                                   for name in ("u", "t", "s_block", "n_block"))
    if isinstance(result, np.ndarray):
        return result.shape, result.dtype.str, result.tobytes()
    return result


def _outcome(f, m, tol=DEFAULT_TOLERANCES):
    try:
        return _bits(f(m, tol))
    except FuzzyLinSysError as exc:
        return type(exc), str(exc)


@pytest.fixture
def staircases(monkeypatch):
    """The tolerance policy of each staircase computed while the test runs:
    a call that returns a record not seen before computed it."""
    calls, records = [], []
    staircase = MatrixPowers.staircase

    def counting(self, tol=DEFAULT_TOLERANCES):
        record = staircase(self, tol)
        if not any(record is seen for seen in records):
            records.append(record)
            calls.append(tol)
        return record

    monkeypatch.setattr(MatrixPowers, "staircase", counting)
    return calls


def _direct_moore_penrose(m):
    """The reference: ``2**-e V S^+ U^T`` from an SVD ``U S V^T`` of
    ``2**-e m`` taken here, e the exponent of the largest entry of m."""
    a = np.asarray(m, dtype=float)
    e = np.frexp(np.abs(a).max())[1]
    u, s, vt = np.linalg.svd(np.ldexp(a, -e), full_matrices=False)
    inv = np.zeros_like(s)
    keep = s > DEFAULT_TOLERANCES.rank_cutoff(a.shape) * s[0]
    inv[keep] = 1.0 / s[keep]
    return np.ldexp((vt.T * inv) @ u.T, -e)


class TestSharedSvd:
    """A MatrixPowers keeps one SVD of its matrix: the first step of its
    staircase and moore_penrose read it."""

    def test_moore_penrose_bits_are_those_of_its_own_svd(self):
        rng = np.random.default_rng(98)
        square = [scale * m for m, _, _ in index_matrix_suite()
                  for scale in (1.0, 1e-150, 1e150)]
        rectangular = [rng.standard_normal((p, 2)) @ rng.standard_normal((2, q))
                       for p, q in ((3, 5), (5, 3)) for _ in range(10)]
        for m in square + rectangular:
            for given in (m, np.asfortranarray(m), m.tolist()):
                assert _bits(moore_penrose(given)) == _bits(_direct_moore_penrose(given))
            if m.shape[0] == m.shape[1]:
                assert _bits(moore_penrose(MatrixPowers(m))) == \
                    _bits(_direct_moore_penrose(m))

    def test_index_zero_formula_is_the_kept_moore_penrose(self, svd_shapes, monkeypatch):
        # at index 0 the formula is A^+, read from the SVD of A that its
        # MatrixPowers keeps: the same bits as moore_penrose, and one SVD
        orders = ((core_ep_via_formula, moore_penrose), (moore_penrose, core_ep_via_formula))
        for m0, k, _ in index_matrix_suite():
            if k:
                continue
            for scale in (1.0, 1e-150, 1e150):
                m = scale * m0
                for first, second in orders:
                    monkeypatch.setattr(ginv, "_last_powers", None)
                    for given in (m, MatrixPowers(m)):
                        calls = len(svd_shapes)
                        assert matrix_index(given) == 0
                        assert _bits(first(given)) == _bits(second(given))
                        assert svd_shapes[calls:] == [m.shape]
                    # the memo still holds A, not a matrix of the formula's
                    assert ginv._last_powers.m.tobytes() == m.tobytes()

    def test_one_svd_per_matrix(self, staircases, svd_shapes):
        m = index_matrix(np.random.default_rng(99), 8, 2)
        assert matrix_index(m) == 2
        calls = len(svd_shapes)
        assert svd_shapes[0] == (8, 8) and staircases == [DEFAULT_TOLERANCES]
        moore_penrose(m)
        moore_penrose(np.asfortranarray(m))
        assert len(svd_shapes) == calls and len(staircases) == 1
        # the formula's own pseudoinverse leaves the memo to m
        other = index_matrix(np.random.default_rng(100), 8, 1)
        core_ep_via_formula(other)
        core_ep_decompose(other)
        assert len(staircases) == 2


class TestStaircaseMemo:
    """Given a bare matrix, the engine keeps its MatrixPowers until the next
    bare matrix: results are those of a fresh MatrixPowers."""

    def test_results_are_those_of_a_fresh_staircase(self):
        suite = [scale * m for m, _, _ in index_matrix_suite(reps=1)
                 for scale in (1.0, 1e-150, 1e150)]
        for a, b in zip(suite, suite[1:]):
            for f in STAIRCASE_FUNCTIONS:
                for m in (a, a, b, a):
                    assert _outcome(f, m) == _outcome(f, MatrixPowers(m))

    def test_one_staircase_per_matrix_and_policy(self, staircases):
        # the questions of demos/01 about one matrix, with rank and
        # moore_penrose between them, and the same matrix in another layout
        m = index_matrix(np.random.default_rng(95), 6, 1)
        other = TolerancePolicy(rank_rel_tol=1e-10)
        for tol in (DEFAULT_TOLERANCES, other):
            for _ in range(2):
                assert matrix_index(m, tol) == 1
                rank(m, tol)
                core_ep_via_formula(m, tol)
                moore_penrose(m, tol)
                core_ep_via_decomposition(np.asfortranarray(m), tol)
                core_ep_decompose(m.tolist(), tol)
                core_inverse(m.copy(), tol)
        assert staircases == [DEFAULT_TOLERANCES, other]

    def test_other_layouts_are_a_hit(self, staircases):
        # the bits are compared, not the memory layout
        m = index_matrix(np.random.default_rng(94), 6, 1)
        strided = np.repeat(m, 2, axis=1)[:, ::2]
        for given in (m, np.asfortranarray(m), m.T.T, strided, m.tolist()):
            assert matrix_index(given) == 1
        assert len(staircases) == 1

    def test_changed_bits_are_a_miss(self, staircases):
        m = index_matrix(np.random.default_rng(96), 5, 2)
        m[0, 1] = 0.0
        before = _outcome(core_ep_via_decomposition, m)
        assert matrix_index(m) == matrix_index(m)
        assert len(staircases) == 1
        m[0, 1] = -0.0
        assert _outcome(core_ep_via_decomposition, m) == \
            _outcome(core_ep_via_decomposition, MatrixPowers(m))
        assert len(staircases) == 3
        m[2, 2] += 1.0  # in place
        after = _outcome(core_ep_via_decomposition, m)
        assert after == _outcome(core_ep_via_decomposition, MatrixPowers(m))
        assert after != before
        assert len(staircases) == 5

    def test_solve_takes_its_own_staircases(self, staircases, consistent_2x2):
        solve(consistent_2x2.problem)
        solve(consistent_2x2.problem)
        assert len(staircases) == 2 + 2

    def test_threads_alternating_two_matrices(self):
        rng = np.random.default_rng(97)
        mats = [index_matrix(rng, 12, 1), index_matrix(rng, 12, 2)]
        serial = [[_outcome(f, m) for f in STAIRCASE_FUNCTIONS] for m in mats]
        errors = []

        def work(first):
            try:
                for j in range(40):
                    i = (first + j) % 2
                    if [_outcome(f, mats[i]) for f in STAIRCASE_FUNCTIONS] != serial[i]:
                        errors.append(f"thread {first}, call {j}: results differ")
            except Exception as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


# The questions of one ginv-engine op, and of ``inverse --show-decomposition``
# asked for every kind.
ENGINE_SEQUENCE = (core_ep_via_formula, core_ep_decompose, core_ep_via_decomposition,
                   moore_penrose, core_inverse)


class TestKeptInverse:
    """A MatrixPowers keeps its core-EP inverse: the core-EP and core inverses
    copy the one kept, so an engine op solves once."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(ginv, "_last_powers", None)

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("explicit", [False, True], ids=["bare", "MatrixPowers"])
    def test_engine_call_budget(self, index, explicit, staircases, svd_shapes, solve_shapes):
        # one solve for the inverse, one staircase, and the SVD of m, which
        # the staircase and moore_penrose share and, at index 0, the formula
        # reads; at index 1 the formula takes one SVD of its own
        m = index_matrix(np.random.default_rng(110 + index), 8, index)
        given = MatrixPowers(m) if explicit else m
        for f in ENGINE_SEQUENCE:
            f(given)
        assert len(solve_shapes) == 1 and staircases == [DEFAULT_TOLERANCES]
        assert len(svd_shapes) == 1 + index and (8, 8) in svd_shapes

    def test_core_inverse_first(self, solve_shapes):
        m = index_matrix(np.random.default_rng(112), 8, 1)
        np.testing.assert_array_equal(core_inverse(m), core_ep_via_decomposition(m))
        assert len(solve_shapes) == 1

    @pytest.mark.parametrize("explicit", [False, True], ids=["bare", "MatrixPowers"])
    def test_results_are_the_callers_own(self, explicit):
        m = index_matrix(np.random.default_rng(113), 6, 1)
        given = MatrixPowers(m) if explicit else m
        fresh = [_bits(f(MatrixPowers(m))) for f in (core_ep_via_decomposition, core_inverse)]
        for _ in range(2):
            x, y = core_ep_via_decomposition(given), core_inverse(given)
            assert x.flags.writeable and y.flags.writeable
            assert not np.shares_memory(x, y)
            assert [_bits(x), _bits(y)] == fresh
            x[...] = 7.0
            y[...] = -1.0


def _arrays(obj):
    """Every ndarray reachable from ``obj`` through dicts, tuples, lists and
    dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value)
    elif dataclasses.is_dataclass(obj):
        yield from _arrays(vars(obj))


def _hilbert(n):
    i = np.arange(n)
    return 1.0 / (i[:, None] + i[None, :] + 1.0)


def _shift(n):
    """The nilpotent shift of order n, of index n: each power drops one rank."""
    return np.diag(np.ones(n - 1), 1)


class TestStaircaseRecord:
    """``MatrixPowers.staircase(tol)`` returns one record per policy, whose
    sequences are tuples and whose arrays are read-only."""

    def test_a_shared_matrix_powers_cannot_be_corrupted(self):
        cases = [_shift(4), _hilbert(12)] + [m for m, _, _ in index_matrix_suite()]

        def edits(record):
            def assign(a):
                a[...] = 1.0

            yield lambda: record.ranks.append(0)
            yield lambda: setattr(record, "ranks", (1, 1))
            yield lambda: assign(record.core)
            yield lambda: assign(record.frame)
            yield lambda: assign(record.frame[:, : record.ranks[-1]])

        for m in cases:
            p = MatrixPowers(m)
            for f in ENGINE_SEQUENCE:  # the five calls of an engine op
                _outcome(f, p)
            record = p.staircase()
            assert type(record.ranks) is tuple
            arrays = list(_arrays(vars(p)))
            assert any(a is record.core for a in arrays)
            assert not any(a.flags.writeable for a in arrays)
            assert p.staircase() is record
            ranks, index = power_ranks(p), matrix_index(p)
            power_ranks(p).append(0)  # a new list, the caller's own
            for edit in edits(record):
                with pytest.raises((AttributeError, ValueError)):
                    edit()
            assert (power_ranks(p), matrix_index(p)) == (ranks, index)
            assert p.staircase() is record

    def test_the_frame_is_wangs_orthogonal_u(self):
        # every prefix F[:, :ranks[j]] of the frame is an orthonormal basis
        # of col(m**j), as the left singular vectors of m**j span it; the
        # large matrices take certified drops
        large = [m for m, kind in large_staircase_suite() if kind != "permuted nilpotent"]
        for m in [m for m, _, _ in index_matrix_suite()] + large:
            n, record = m.shape[0], MatrixPowers(m).staircase()
            f = record.frame
            assert f.shape == (n, n)
            assert np.linalg.norm(f.T @ f - np.eye(n)) <= 1e-12 * n
            for j, r in enumerate(record.ranks):
                u = np.linalg.svd(matrix_power(m, j))[0][:, :r]
                b = f[:, :r]
                assert np.linalg.norm(b @ b.T - u @ u.T) <= 1e-10

    def test_norm_bound_lies_in_half_to_n_or_is_zero(self):
        # sigma_max(unit) from the SVD, or the bound ||unit||_F where the
        # certificate skipped it: in [1/2, n] for a nonzero m, 0 for a zero m
        cases = [_shift(5), _hilbert(12), np.eye(3), np.ldexp(np.ones((4, 4)), -1074)]
        cases += [np.zeros((n, n)) for n in (1, 2, 7)]
        cases += [m for m, _, _ in index_matrix_suite()]  # the 1 x 1 zero among them
        for m in cases:
            bound = MatrixPowers(m).staircase().norm_bound
            assert type(bound) is float
            assert 0.5 <= bound <= m.shape[0] if m.any() else bound == 0.0

    def test_the_record_of_a_high_index_matrix_holds_o_n2_bytes(self):
        # one n x n frame, not a basis per power: a view counts the whole
        # array it keeps alive, once
        n = 120
        record = MatrixPowers(_shift(n)).staircase()
        held = {}
        for a in _arrays(vars(record)):
            while a.base is not None:
                a = a.base
            held[id(a)] = a.nbytes
        assert sum(held.values()) <= 16 * n * n

    def test_ranks_fall_strictly_until_their_one_repeat(self):
        # each core has the previous rank as its order, so the ranks fall
        # from n until they repeat, at the latest at m**(n+1)
        shifts = [_shift(n) for n in range(1, 9)]
        for m in [m for m, _, _ in index_matrix_suite()] + [_hilbert(12)] + shifts:
            n, ranks = m.shape[0], MatrixPowers(m).staircase().ranks
            assert ranks[0] == n and ranks[-1] == ranks[-2]
            assert all(a > b for a, b in zip(ranks[:-2], ranks[1:-1]))
            assert len(ranks) <= n + 2
        for n, m in enumerate(shifts, start=1):  # the bound is reached
            assert MatrixPowers(m).staircase().ranks == tuple(range(n, -1, -1)) + (0,)


def _spans(a, b):
    """The distance between the projectors on the column spaces of the
    orthonormal a and b."""
    return np.linalg.norm(a @ a.T - b @ b.T)


class TestCertifiedDrop:
    """A rank drop after step 1, on a core of order 32 or more, is certified
    from the null space that step 1's SVD holds, with the count the SVD
    would give; the SVD decides what the certificate cannot."""

    @pytest.fixture
    def answers(self, monkeypatch):
        """What each call of ``_certified_drop`` returned while the test runs."""
        answers = []
        certified_drop = ginv._certified_drop

        def recording(*args):
            answers.append(certified_drop(*args))
            return answers[-1]

        monkeypatch.setattr(ginv, "_certified_drop", recording)
        return answers

    def test_one_svd_per_staircase(self, svd_shapes):
        # index 3: steps 2 and 3 drop on cores of order about 60 without an
        # SVD, and step 4 holds on its certificate
        m = block_triangular_system(np.random.default_rng(64), 64, 3, True)[0]
        assert matrix_index(MatrixPowers(m)) == 3
        assert svd_shapes == [(64, 64)]

    def test_decides_as_the_svd_does(self, answers, monkeypatch):
        # the ranks of an SVD at every drop, on permuted nilpotent matrices
        # too, whose ranks no SVD reference decides reliably, and the same
        # spaces where they are well conditioned
        suite = large_staircase_suite()
        records = [MatrixPowers(m).staircase() for m, _ in suite]
        assert any(a is None for a in answers) and any(a is not None for a in answers)
        monkeypatch.setattr(ginv, "_CERTIFIED_DROP_ORDER", math.inf)
        for (m, kind), record in zip(suite, records):
            by_svd = MatrixPowers(m).staircase()
            assert record.ranks == by_svd.ranks
            if kind != "permuted nilpotent":
                for r in record.ranks:
                    assert _spans(record.frame[:, :r], by_svd.frame[:, :r]) <= 1e-10

    def test_the_svd_decides_where_the_certificate_declines(self, svd_shapes, answers):
        # 8 zero eigenvalues and one at 1.5 n eps max|lambda|, which step 2
        # drops: that direction is no null vector of m, so step 1's null
        # space holds no candidate, and the SVD of the order-56 core decides
        m = symmetric_near_floor(np.random.default_rng(65), 64, 8, 1.5)
        ranks = power_ranks(MatrixPowers(m))
        assert answers == [None]
        assert svd_shapes == [(64, 64), (56, 56)]
        assert ranks == [64, 56, 55, 55] == svd_staircase_ranks(m)


# Matrices whose scaled copies must give the same staircase: the small index
# suite and matrices of order 47 to 75 and index 0 to 4, whose drops after
# step 1 are certified.
SCALE_CASES = [m for m, _, _ in index_matrix_suite(reps=1)] + \
    [m for m, kind in large_staircase_suite() if kind == "block"]


class TestScaleCovariance:
    """Scaling m by a power of two moves no rank and no frame bit, and
    scales the blocks of the core-EP decomposition exactly."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from(SCALE_CASES), p=st.integers(-600, 600))
    def test_scaling_by_a_power_of_two_is_exact(self, m, p):
        base, scaled = MatrixPowers(m), MatrixPowers(np.ldexp(m, p))
        assert scaled.staircase().ranks == base.staircase().ranks
        assert _bits(scaled.staircase().frame) == _bits(base.staircase().frame)
        dec, dec_scaled = core_ep_decompose(base), core_ep_decompose(scaled)
        assert _bits(dec_scaled.u) == _bits(dec.u)
        for block in ("t", "s_block", "n_block"):
            assert _bits(getattr(dec_scaled, block)) == _bits(np.ldexp(getattr(dec, block), p))


class TestComplexInput:
    """Complex entries raise instead of losing their imaginary parts."""

    @pytest.mark.parametrize("f", [MatrixPowers, rank, moore_penrose], ids=lambda f: f.__name__)
    def test_matrix(self, f):
        with pytest.raises(ValueError, match="matrix entries must be real"):
            f(np.array([[1j, 0.0], [0.0, 1.0]]))

    def test_column_space_member(self):
        with pytest.raises(ValueError, match="vector entries must be real"):
            in_column_space(np.eye(2), [1.0 + 1j, 0.0])

    def test_real_arrays_are_not_copied(self):
        a = np.eye(3)
        assert as_matrix(a) is a
        assert np.shares_memory(as_vector(a[0]), a)


def _object_matrix(x):
    """``[[x, 0], [0, 1]]`` as an object array holding x itself."""
    m = np.array([[0, 0], [0, 1]], dtype=object)
    m[0, 0] = x
    return m


# Matrices no entry point accepts: strings, bytes, a masked array, whose mask
# a cast would drop, and object arrays holding a non-real or out-of-range entry.
HOSTILE_MATRICES = {
    "numeric strings": [["1", "0"], ["0", "1"]],
    "bytes": np.array([[b"1", b"0"], [b"0", b"1"]]),
    "masked": np.ma.masked_array(np.eye(2), mask=[[False, True], [False, False]]),
    "str entry": _object_matrix("1"),
    "complex entry": _object_matrix(1j),
    "dict entry": _object_matrix({}),
    "None entry": [[None, 0], [0, 1]],
    "int beyond float": [[10**400, 0], [0, 1]],
}

# The public functions that take a matrix, each given one.
MATRIX_ENTRY_POINTS = {
    "rank": rank,
    "moore_penrose": moore_penrose,
    "matrix_index": matrix_index,
    "power_ranks": power_ranks,
    "core_ep_decompose": core_ep_decompose,
    "core_ep_via_decomposition": core_ep_via_decomposition,
    "core_ep_via_formula": core_ep_via_formula,
    "core_inverse": core_inverse,
    "MatrixPowers": MatrixPowers,
    "matrix_power": lambda m: matrix_power(m, 2),
    "in_column_space": lambda m: in_column_space(m, [1.0, 0.0]),
    "in_column_space y": lambda m: in_column_space(np.eye(4), m),
    "core_ep_from_blocks": lambda m: core_ep_from_blocks(m, np.eye(2)),
    "FlsProblem": lambda m: FlsProblem(m, [FuzzyNumber(AffineFn(0.0), AffineFn(1.0))] * 2),
}


_NUMBER = FuzzyNumber(AffineFn(0.0), AffineFn(1.0))

# Values that are not real numbers within the float range, and some that are.
_junk = st.one_of(st.text(max_size=3), st.binary(max_size=3), st.booleans(), st.none(),
                  st.integers(-2**1100, 2**1100), st.floats(), st.complex_numbers(),
                  st.just({}), st.just(np.ma.masked), st.just(_NUMBER))


def _square_object_array(entries):
    return np.array(entries + [0] * (4 - len(entries)), dtype=object).reshape(2, 2)


# Hostile inputs: a value, ragged nested lists, object arrays, bool, string
# and masked arrays.
_hostile = st.one_of(
    _junk,
    st.lists(_junk, max_size=4),
    st.lists(st.lists(_junk, max_size=3), max_size=3),
    st.lists(_junk, max_size=4).map(_square_object_array),
    st.lists(st.booleans(), min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2))),
    st.lists(st.text(max_size=2), min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2))),
    st.lists(st.booleans(), min_size=4, max_size=4).map(
        lambda mask: np.ma.masked_array(np.eye(2), mask=np.reshape(mask, (2, 2)))),
)

# Every public entry point that takes numbers, a matrix or a vector, each
# given one hostile argument.
HOSTILE_ENTRY_POINTS = {
    **MATRIX_ENTRY_POINTS,
    "FlsProblem y": lambda y: FlsProblem(np.eye(2), y),
    "FlsProblem y entry": lambda y: FlsProblem(np.eye(2), [_NUMBER, y]),
    "solve y": lambda y: solve(FlsProblem(np.eye(2), [_NUMBER, y])),
    "AffineFn c0": lambda c: AffineFn(c),
    "AffineFn c1": lambda c: AffineFn(0.0, c),
    "FuzzyNumber lower": lambda f: FuzzyNumber(f, AffineFn(1.0)),
    "FuzzyNumber upper": lambda f: FuzzyNumber(AffineFn(0.0), f),
    "fuzzy_solution x0": lambda x: fuzzy_solution(x, [0.0, 0.0]),
    "fuzzy_solution x1": lambda x: fuzzy_solution([0.0, 0.0], x),
    "validity slack": lambda tol: validity(_NUMBER, tol),
    "TolerancePolicy": lambda v: TolerancePolicy(rank_rel_tol=v),
}


class TestInputGate:
    """Every public entry point refuses a non-real input with a ValueError
    that names it, and no warning, while real dtypes and big ints that fit a
    float pass."""

    @pytest.mark.parametrize("m", HOSTILE_MATRICES.values(), ids=HOSTILE_MATRICES.keys())
    @pytest.mark.parametrize("f", MATRIX_ENTRY_POINTS.values(), ids=MATRIX_ENTRY_POINTS.keys())
    def test_matrix_entry_points(self, f, m):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="entries must"):
                f(m)
        assert caught == []

    @pytest.mark.parametrize("c", ["1", b"1", 1j, {}, None, [1.0], 10**400, np.ma.masked],
                             ids=["str", "bytes", "complex", "dict", "None", "list", "big int",
                                  "masked"])
    @pytest.mark.parametrize("where", ["c0", "c1"])
    def test_affine_coefficients(self, c, where):
        args = (c, 0.0) if where == "c0" else (0.0, c)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="affine coefficients must be real"):
                AffineFn(*args)
        assert caught == []

    def test_real_inputs_pass(self):
        big = [[2**70, 0], [0, 2**70]]  # an object array: 2**70 exceeds int64
        assert np.asarray(big).dtype == object
        assert rank(big) == 2
        assert rank([[2**70, 0], [0, 1]]) == rank(np.array([[2.0**70, 0.0], [0.0, 1.0]]))
        for m in (np.eye(2, dtype=bool), np.eye(2, dtype=np.int8), np.eye(2, dtype=np.float32),
                  np.eye(2, dtype=np.uint64), [[True, 0], [0, 1.5]]):
            assert rank(m) == 2
        assert AffineFn(True, np.int64(2)) == AffineFn(1.0, 2.0)

    def test_fuzzy_number_endpoints(self):
        with pytest.raises(ValueError, match="fuzzy number endpoints must be AffineFn"):
            FuzzyNumber(1.0, 2.0)
        with pytest.raises(ValueError, match="fuzzy number endpoints must be AffineFn"):
            FuzzyNumber(AffineFn(1.0), (2.0, 0.0))

    def test_right_hand_side_entries(self):
        with pytest.raises(ValueError, match=r"^y\[0\] must be a FuzzyNumber"):
            solve(FlsProblem(np.eye(2), [1.0, 2.0]))
        with pytest.raises(ValueError, match=r"^y\[1\] must be a FuzzyNumber"):
            FlsProblem(np.eye(2), [_NUMBER, (0.0, 1.0)])
        with pytest.raises(ValueError, match="^y must be a sequence of FuzzyNumber"):
            FlsProblem(np.eye(1), 1.0)

    @pytest.mark.parametrize("f", HOSTILE_ENTRY_POINTS.values(), ids=HOSTILE_ENTRY_POINTS.keys())
    @settings(max_examples=40, deadline=None)
    @given(x=_hostile)
    def test_hostile_inputs(self, f, x):
        # whatever comes in, a result, a ValueError or a FuzzyLinSysError
        # comes out, and no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                f(x)
            except (ValueError, FuzzyLinSysError):
                pass
        assert caught == []


def test_block_pair_suite_shapes():
    pairs = block_pair_suite(reps=2)
    assert all(d.shape == e.shape for d, e in pairs)


def test_index_suite_counts():
    suite = index_matrix_suite(reps=1)
    assert len(suite) == 35
    assert sum(1 for _, _, c in suite if c) == 14


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(22)
    q = random_orthogonal(rng, 5)
    np.testing.assert_allclose(q @ q.T, np.eye(5), atol=1e-12)
