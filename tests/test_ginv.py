import warnings

import numpy as np
import pytest
from matgen import (
    block_pair_suite,
    block_triangular_system,
    gesdd_failure_case,
    index_matrix,
    index_matrix_suite,
    random_orthogonal,
)
from oracles import exact_rank, svd_staircase_ranks

from fuzzylinsys import (
    DimensionMismatchError,
    IndexTooLargeError,
    TolerancePolicy,
    core_ep_decompose,
    core_ep_via_decomposition,
    core_ep_via_formula,
    core_inverse,
    in_column_space,
    index_power,
    matrix_index,
    matrix_power,
    moore_penrose,
    one_three_inverse,
    power_ranks,
    rank,
)
from fuzzylinsys.ginv import _clears

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


class TestSvdFallback:
    def test_core_ep_where_gesdd_does_not_converge(self):
        a, _ = gesdd_failure_case()
        x = core_ep_via_formula(a)
        assert max(core_ep_residuals(a, x, 1)) <= EQ_TOL

    def test_gesvd_takes_over_when_gesdd_fails(self, monkeypatch):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 6))
        expected_rank, expected_inverse = rank(m), moore_penrose(m)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert rank(m) == expected_rank
        np.testing.assert_allclose(moore_penrose(m), expected_inverse, atol=EQ_TOL)


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
            k, _, rho = index_power(m)
            assert (dec.k, dec.rho) == (k, rho)

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
            assert (dec.k, dec.rho) == index_power(m)[::2]
            np.testing.assert_allclose(core_inverse(scale * m) * scale,
                                       core_ep_via_decomposition(m), rtol=1e-9, atol=1e-9)


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
