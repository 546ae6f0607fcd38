import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import assert_fuzzy_matches, fz
from matgen import (
    block_pair_suite,
    block_triangular_system,
    gesdd_failure_case,
    index_matrix,
    index_matrix_suite,
    random_orthogonal,
)
from oracles import solve_2n

from fuzzylinsys import (
    CONSISTENT_INFINITE,
    CONSISTENT_UNIQUE,
    DEFAULT_TOLERANCES,
    INCONSISTENT,
    METHOD_2I,
    METHOD_2II,
    METHOD_CORE_EP,
    METHOD_INVERSE,
    AssociatedSystem,
    DimensionMismatchError,
    FlsProblem,
    IndexTooLargeError,
    MatrixPowers,
    NumericalFailureError,
    build_associated,
    classify,
    core_ep_from_blocks,
    core_ep_via_decomposition,
    core_ep_via_formula,
    fuzzy_eq,
    in_column_space,
    matrix_power,
    one_three_inverse,
    solve,
    verify_solution,
)
from fuzzylinsys import fls, ginv
from fuzzylinsys.fuzzy import AffineFn, FuzzyNumber

EQ_TOL = 1e-9
RES_TOL = 1e-8


def random_problem(rng, n):
    a = rng.integers(-3, 4, (n, n)).astype(float)
    y = [
        fz(*(float(v) for v in rng.integers(-4, 5, 4)))
        for _ in range(n)
    ]
    return FlsProblem(a=a, y=y)


class TestBuildAssociated:
    def test_splits_signs(self, consistent_2x2):
        w = consistent_2x2
        np.testing.assert_array_equal(w.system.s, w.s)
        np.testing.assert_array_equal(w.system.y0, w.y0)
        np.testing.assert_array_equal(w.system.y1, w.y1)
        np.testing.assert_array_equal(w.system.d - w.system.e, w.problem.a)
        np.testing.assert_array_equal(w.system.d + w.system.e, np.abs(w.problem.a))

    def test_nonnegative_matrix_gives_block_diagonal(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        sys = build_associated(FlsProblem(a=a, y=[fz(0, 1, 2, -1)] * 2))
        assert np.all(sys.e == 0)
        np.testing.assert_array_equal(sys.s[:2, :2], a)
        np.testing.assert_array_equal(sys.s[2:, 2:], a)
        assert np.all(sys.s[:2, 2:] == 0) and np.all(sys.s[2:, :2] == 0)

    def test_inconsistent_embedding(self, inconsistent_2x2):
        w = inconsistent_2x2
        np.testing.assert_array_equal(w.system.s, w.s)
        np.testing.assert_array_equal(w.system.y0, w.y0)
        np.testing.assert_array_equal(w.system.y1, w.y1)

    def test_disjoint_supports(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = random_problem(rng, n)
            sys = build_associated(p)
            assert np.all(sys.d >= 0) and np.all(sys.e >= 0)
            assert np.all(sys.d * sys.e == 0)

    def test_embedding_round_trip(self):
        # Back-mapping any crisp X to fuzzy and re-embedding reproduces X exactly.
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            x0 = rng.standard_normal(2 * n)
            x1 = rng.standard_normal(2 * n)
            fuzzy_x = [
                FuzzyNumber(
                    AffineFn(x0[i], x1[i]), AffineFn(-x0[n + i], -x1[n + i])
                )
                for i in range(n)
            ]
            sys = build_associated(
                FlsProblem(a=rng.standard_normal((n, n)), y=fuzzy_x)
            )
            np.testing.assert_array_equal(sys.y0, x0)
            np.testing.assert_array_equal(sys.y1, x1)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionMismatchError):
            FlsProblem(a=np.eye(3), y=[fz(0, 0, 0, 0)] * 2)


class TestClassify:
    def test_consistent_singular(self, consistent_2x2):
        cls = classify(consistent_2x2.system)
        assert cls.kind == CONSISTENT_INFINITE
        assert (cls.rank_s, cls.rank_aug, cls.index_s) == (2, 2, 1)

    def test_unique_for_identity(self):
        sys = build_associated(FlsProblem(a=np.eye(2), y=[fz(0, 1, 2, -1)] * 2))
        cls = classify(sys)
        assert cls.kind == CONSISTENT_UNIQUE
        assert cls.rank_s == cls.rank_aug == 4
        assert cls.index_s == 0

    def test_inconsistent(self, inconsistent_2x2):
        cls = classify(inconsistent_2x2.system)
        assert cls.kind == INCONSISTENT
        assert (cls.rank_s, cls.rank_aug, cls.index_s) == (2, 4, 2)

    def test_huge_entries(self):
        # Y is outside col(S); a rank cutoff on the scale of S (~1e110) would
        # hide it from the augmented rank while the solve still finds it.
        p = FlsProblem(a=np.array([[1e110, 1e110], [0.0, 0.0]]), y=[fz(1, 0, 2, 0)] * 2)
        report = solve(p)
        cls = report.classification
        assert (cls.kind, cls.rank_s, cls.rank_aug, cls.index_s) == (INCONSISTENT, 2, 3, 1)
        assert report.method == METHOD_2I
        assert report.is_generalized

    def test_high_index(self):
        rng = np.random.default_rng([4, 3418])
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n))
        a = index_matrix(rng, n, k)
        assert (n, k) == (6, 5)
        cls = classify(build_associated(FlsProblem(a=a, y=[fz(0, 0, 0, 0)] * n)))
        assert cls.index_s == 5

    def test_non_normal_consistent_system(self):
        # A = diag(J, 0), J = [[1, 1e5], [0, 1]] of condition 1e10: the second
        # singular value of A^2 is 5e-6, far under eps * sigma_max(A)^2, yet
        # real.  Y in col(S) is then consistent, index 1, solved exactly.
        a = np.zeros((3, 3))
        a[:2, :2] = [[1.0, 1e5], [0.0, 1.0]]
        s = build_associated(stacked_problem(a, np.zeros(6), np.zeros(6))).s
        y = s @ np.random.default_rng(0).standard_normal((6, 2))
        report = solve(stacked_problem(a, y[:, 0], y[:, 1]))
        cls = report.classification
        assert (cls.kind, cls.rank_s, cls.rank_aug, cls.index_s) == (CONSISTENT_INFINITE, 4, 4, 1)
        assert report.method == METHOD_CORE_EP
        assert not report.is_generalized
        x = np.column_stack([report.crisp_x0, report.crisp_x1])
        assert np.abs(s @ x - y).max() <= RES_TOL * (1.0 + np.abs(y).max())


class TestBlockCoreEp:
    def test_rank_one_system(self, inconsistent_2x2):
        np.testing.assert_allclose(
            core_ep_from_blocks(inconsistent_2x2.system.d, inconsistent_2x2.system.e),
            inconsistent_2x2.core_ep,
            atol=EQ_TOL,
        )

    def test_identity(self):
        sys = build_associated(FlsProblem(a=np.eye(3), y=[fz(0, 1, 2, -1)] * 3))
        np.testing.assert_allclose(core_ep_from_blocks(sys.d, sys.e), np.eye(6), atol=EQ_TOL)

    def test_index_two_system(self, consistent_3x3):
        np.testing.assert_allclose(
            core_ep_from_blocks(consistent_3x3.system.d, consistent_3x3.system.e),
            consistent_3x3.core_ep,
            atol=EQ_TOL,
        )

    def test_matches_direct_core_ep_random_pairs(self):
        # forward direction of the block-structure theorem
        for d, e in block_pair_suite(reps=8):
            s = np.block([[d, e], [e, d]])
            direct = core_ep_via_formula(s)
            blocked = core_ep_from_blocks(d, e)
            scale = 1.0 + np.linalg.norm(direct)
            assert np.linalg.norm(direct - blocked) <= RES_TOL * scale

    def test_leaves_the_staircase_memo_alone(self, monkeypatch):
        # each half gets a MatrixPowers of its own, so the call neither reads
        # nor replaces the engine's memo of the last bare matrix, and the
        # result has the bits of the two fresh staircases
        held = MatrixPowers(np.array([[1.0, 2.0], [0.0, 0.0]]))
        monkeypatch.setattr(ginv, "_last_powers", held)
        d, e = np.array([[2.0, 0.0], [1.0, 1.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])
        blocked = core_ep_from_blocks(d, e)
        assert ginv._last_powers is held
        p, q = (core_ep_via_decomposition(MatrixPowers(m)) for m in (d + e, d - e))
        np.testing.assert_array_equal(blocked, np.block([[p + q, p - q], [p - q, p + q]]) * 0.5)

    def test_blocks_near_the_float_maximum(self):
        # d + e overflows, d/2 + e/2 does not: 1 / 2e308 / 2 in every entry,
        # subnormal and so to a few digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = core_ep_from_blocks([[1e308]], [[1e308]])
        np.testing.assert_allclose(x, np.full((2, 2), 2.5e-309), rtol=1e-5, atol=0.0)

    def test_blocks_of_unequal_shape(self):
        with pytest.raises(DimensionMismatchError, match="block shapes differ"):
            core_ep_from_blocks(np.eye(2), np.eye(3))

    def test_extracted_blocks_recover_half_inverses(self):
        # reverse direction: H +- Z equal the half-size core-EP inverses
        for d, e in block_pair_suite(seed=99, reps=8):
            n = d.shape[0]
            s = np.block([[d, e], [e, d]])
            direct = core_ep_via_formula(s)
            h, z = direct[:n, :n], direct[:n, n:]
            plus = core_ep_via_formula(d + e)
            minus = core_ep_via_formula(d - e)
            scale = 1.0 + np.linalg.norm(plus) + np.linalg.norm(minus)
            assert np.linalg.norm((h + z) - plus) <= RES_TOL * scale
            assert np.linalg.norm((h - z) - minus) <= RES_TOL * scale


    def test_ill_conditioned_non_normal_halves(self):
        # A = diag(J, 0), J = [[1, 1e5], [0, 1]] of condition 1e10: the power
        # formula loses a real singular value of the halves, the staircase
        # does not.  Norms are taken on S scaled to unit largest entry and X
        # scaled to match, so that none overflows at 1e150.
        a = np.zeros((3, 3))
        a[:2, :2] = [[1.0, 1e5], [0.0, 1.0]]
        for scale in (1.0, 1e-150, 1e150):
            sys = build_associated(FlsProblem(a=scale * a, y=[fz(0, 1, 2, -1)] * 3))
            x = core_ep_from_blocks(sys.d, sys.e)
            peak = np.abs(sys.s).max()
            s, x, ref = sys.s / peak, x * peak, core_ep_via_decomposition(sys.s) * peak
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            assert classify(sys).index_s == 1
            sx = s @ x
            assert np.linalg.norm(x @ s @ s - s) <= 1e-9 * np.linalg.norm(s)
            assert np.linalg.norm(sx.T - sx) <= 1e-9 * np.linalg.norm(sx)
            assert np.linalg.norm(x @ s @ x - x) <= 1e-9 * np.linalg.norm(x)


class TestSolveWorkedSystems:
    def test_consistent_2x2(self, consistent_2x2):
        report = solve(consistent_2x2.problem)
        assert report.classification.kind == CONSISTENT_INFINITE
        assert report.method == METHOD_CORE_EP
        assert not report.is_generalized
        np.testing.assert_allclose(report.crisp_x0, consistent_2x2.crisp_x0, atol=EQ_TOL)
        np.testing.assert_allclose(report.crisp_x1, consistent_2x2.crisp_x1, atol=EQ_TOL)
        assert_fuzzy_matches(report.fuzzy_x, consistent_2x2.fuzzy)
        assert report.strong
        assert report.residual <= RES_TOL

    def test_consistent_3x3_weak(self, consistent_3x3):
        report = solve(consistent_3x3.problem)
        assert report.classification.kind == CONSISTENT_INFINITE
        assert not report.is_generalized
        np.testing.assert_allclose(report.crisp_x0, consistent_3x3.crisp_x0, atol=EQ_TOL)
        np.testing.assert_allclose(report.crisp_x1, consistent_3x3.crisp_x1, atol=EQ_TOL)
        assert_fuzzy_matches(report.fuzzy_x, consistent_3x3.fuzzy)
        assert not report.strong
        assert report.verdicts[0].violations == (3,)

    def test_inconsistent_2x2(self, inconsistent_2x2):
        report = solve(inconsistent_2x2.problem)
        assert report.classification.kind == INCONSISTENT
        assert report.is_generalized
        assert report.method == METHOD_2I
        assert_fuzzy_matches(report.fuzzy_x, inconsistent_2x2.fuzzy)
        # the auxiliary consistent system is solved exactly
        assert report.residual <= RES_TOL
        assert not report.strong

    def test_method2_variants_agree(self, inconsistent_2x2):
        r1 = solve(inconsistent_2x2.problem, method=METHOD_2I)
        r2 = solve(inconsistent_2x2.problem, method=METHOD_2II)
        assert r1.method == METHOD_2I and r2.method == METHOD_2II
        np.testing.assert_array_equal(r1.crisp_x0, r2.crisp_x0)
        np.testing.assert_array_equal(r1.crisp_x1, r2.crisp_x1)
        for a, b in zip(r1.fuzzy_x, r2.fuzzy_x):
            assert fuzzy_eq(a, b, tol=0.0)
        assert r1.residual == r2.residual <= RES_TOL

    def test_zero_system(self):
        p = FlsProblem(a=np.zeros((2, 2)), y=[fz(0, 0, 0, 0)] * 2)
        report = solve(p)
        assert report.residual == 0.0
        assert not report.is_generalized
        assert report.strong
        assert verify_solution(build_associated(p), report) == 0.0


class TestSolveMethodOverrides:
    def test_inverse_on_nonsingular(self):
        p = FlsProblem(a=np.eye(2), y=[fz(0, 1, 2, -1), fz(1, 1, 3, -1)])
        auto = solve(p)
        forced = solve(p, method=METHOD_INVERSE)
        assert auto.method == METHOD_INVERSE == forced.method
        np.testing.assert_allclose(auto.crisp_x0, forced.crisp_x0, atol=1e-14)

    def test_inverse_on_singular_rejected(self, consistent_2x2):
        with pytest.raises(IndexTooLargeError):
            solve(consistent_2x2.problem, method=METHOD_INVERSE)

    def test_core_ep_forced_on_inconsistent(self, inconsistent_2x2):
        report = solve(inconsistent_2x2.problem, method=METHOD_CORE_EP)
        assert report.is_generalized
        assert_fuzzy_matches(report.fuzzy_x, inconsistent_2x2.fuzzy)

    def test_method2_forced_on_consistent(self, consistent_3x3):
        report = solve(consistent_3x3.problem, method=METHOD_2I)
        assert not report.is_generalized  # solution is exact regardless of route
        np.testing.assert_allclose(report.crisp_x0, consistent_3x3.crisp_x0, atol=EQ_TOL)

    def test_unknown_method(self, consistent_2x2):
        with pytest.raises(ValueError):
            solve(consistent_2x2.problem, method="cramer")


class TestVerifySolution:
    def test_consistent_report_vanishes(self, consistent_2x2):
        report = solve(consistent_2x2.problem)
        assert verify_solution(consistent_2x2.system, report) <= RES_TOL

    def test_generalized_report_vanishes_on_auxiliary(self, inconsistent_2x2):
        report = solve(inconsistent_2x2.problem)
        assert verify_solution(inconsistent_2x2.system, report) <= RES_TOL

    def test_generalized_report_fails_raw_system(self, inconsistent_2x2):
        report = solve(inconsistent_2x2.problem)
        raw = dataclasses.replace(report, is_generalized=False)
        residual = verify_solution(inconsistent_2x2.system, raw)
        assert residual > RES_TOL
        # at r = 0: X = 0.625 * ones, every row of S sums to 2, so
        # S X(0) = 1.25 * ones against Y(0) = (3, 4, -2, 0) misses by 3.25;
        # the maximum over r is at r = 1, where the miss grows to 7
        sx = inconsistent_2x2.s @ report.crisp_x0
        np.testing.assert_allclose(sx, [1.25] * 4, atol=EQ_TOL)
        gap_at_0 = np.linalg.norm(sx - inconsistent_2x2.y0, np.inf)
        assert gap_at_0 == pytest.approx(3.25, abs=1e-9)
        assert residual == pytest.approx(7.0, abs=1e-9)

    def test_malformed_report_is_a_typed_error(self, consistent_2x2, consistent_3x3):
        # a report is re-substituted only if its columns fit the system and
        # are finite; report_from_dict can carry a NaN, which json.load reads
        report = solve(consistent_2x2.problem)
        with pytest.raises(DimensionMismatchError):
            verify_solution(consistent_3x3.system, report)
        x0 = report.crisp_x0.copy()
        x0[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            verify_solution(consistent_2x2.system, dataclasses.replace(report, crisp_x0=x0))

    def test_auxiliary_residual_of_a_zero_solution_is_zero(self):
        # A is nilpotent of index 3, so col(S^3) = 0: P = 0 and x = S^ce y = 0,
        # and S x - P y vanishes exactly, with no roundoff from the projection
        problem = FlsProblem(a=np.diag(np.ones(2), 1),
                             y=[fz(v, v / 2, 3 * v, -v) for v in (0.7, 0.1, 0.3)])
        report = solve(problem)
        assert report.is_generalized
        assert not np.any(report.crisp_x0) and not np.any(report.crisp_x1)
        assert report.residual == 0.0
        assert verify_solution(build_associated(problem), report) == report.residual

    def test_returns_the_report_residual(self):
        # one residual function: re-substitution gives the report's number
        # bit for bit, whatever the method
        rng = np.random.default_rng(58)
        checked = 0
        for a, _, _ in index_matrix_suite():
            n = a.shape[0]
            s = build_associated(stacked_problem(a, np.zeros(2 * n), np.zeros(2 * n))).s
            for inside in (np.eye(2 * n), matrix_power(s, n)):
                problem = stacked_problem(a, *(inside @ rng.standard_normal((2 * n, 2))).T)
                for method in (None, METHOD_INVERSE, METHOD_CORE_EP, METHOD_2I, METHOD_2II):
                    try:
                        report = solve(problem, method=method)
                    except IndexTooLargeError:
                        continue
                    assert verify_solution(build_associated(problem), report) == report.residual
                    checked += 1
        assert checked > 1000


class TestColumnSpaceTheorem:
    def test_membership_gives_exact_solution(self):
        # y in the column space of S^k makes X = S^ce y an exact solution
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, min(3, n) + 1))
            s = index_matrix(rng, n, k)
            sk = matrix_power(s, max(k, 1))
            y = sk @ rng.standard_normal(n)
            x = core_ep_via_formula(s) @ y
            scale = max(1.0, float(np.linalg.norm(y)))
            assert np.linalg.norm(s @ x - y) <= RES_TOL * scale
            assert in_column_space(sk, y)

    def test_nonmembership_leaves_residual(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(3, n) + 1))
            s = index_matrix(rng, n, k)
            sk = matrix_power(s, k)
            y = rng.standard_normal(n)
            if in_column_space(sk, y):
                continue
            found += 1
            x = core_ep_via_formula(s) @ y
            scale = max(1.0, float(np.linalg.norm(y)))
            assert np.linalg.norm(s @ x - y) > RES_TOL * scale
        assert found >= 20

    def test_projection_lands_in_power_column_space(self):
        # S^k (S^k)^(1,3) y is always a member, so the auxiliary system of the
        # generalized route is consistent.
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, min(3, n) + 1))
            s = index_matrix(rng, n, k)
            sk = matrix_power(s, k)
            proj = sk @ one_three_inverse(sk)
            y = rng.standard_normal(n)
            assert in_column_space(sk, proj @ y)


class TestClassificationConsistency:
    def test_inconsistent_implies_generalized(self):
        rng = np.random.default_rng(43)
        seen_inconsistent = 0
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p = random_problem(rng, n)
            report = solve(p)
            kind = report.classification.kind
            if kind == INCONSISTENT:
                seen_inconsistent += 1
                assert report.is_generalized
            if report.is_generalized:
                # generalized output means the right-hand side escaped the
                # column space of S^k; for a consistent system that can only
                # happen when the index exceeds one.
                assert kind == INCONSISTENT or report.classification.index_s >= 1
            if not report.is_generalized:
                assert kind != INCONSISTENT
                assert report.residual <= RES_TOL * max(
                    1.0,
                    float(np.linalg.norm(build_associated(p).y0, np.inf)),
                    float(np.linalg.norm(build_associated(p).y1, np.inf)),
                )
        assert seen_inconsistent >= 5

    def test_consistent_but_outside_power_column_space(self):
        # consistent system whose right-hand side is not in R(S^k): the
        # returned answer is the generalized one and is flagged as such
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = FlsProblem(a=a, y=[fz(1, 0, 2, 0), fz(0, 0, 0, 0)])
        sys = build_associated(p)
        cls = classify(sys)
        assert cls.kind != INCONSISTENT
        report = solve(p)
        assert report.is_generalized


def assert_report_invariants(report):
    cls = report.classification
    assert cls.rank_aug >= cls.rank_s
    if cls.kind == INCONSISTENT:
        assert report.is_generalized
    if cls.index_s <= 1:
        assert (cls.kind == INCONSISTENT) == report.is_generalized


class TestReportInvariants:
    """What holds in exact arithmetic holds in every report, whatever the
    scale of A, and no scale makes the solve fail."""

    def test_index_suite_at_three_scales(self):
        rng = np.random.default_rng(54)
        problems = [FlsProblem(a=1e-200 * np.array([[1.0, 2.0], [3.0, 4.0]]),
                               y=[fz(1, 0, 2, 0), fz(0, 1, 3, -1)])]
        for a, _, _ in index_matrix_suite():
            n = a.shape[0]
            s = build_associated(stacked_problem(a, np.zeros(2 * n), np.zeros(2 * n))).s
            # right-hand sides: random, in col(S), in col(S^k) = col(S^n)
            for inside in (np.eye(2 * n), s, matrix_power(s, n)):
                y0, y1 = (inside @ rng.standard_normal((2 * n, 2))).T
                problems += [stacked_problem(scale * a, y0, y1)
                             for scale in (1.0, 1e-100, 1e100)]
        for problem in problems:
            assert_report_invariants(solve(problem))

    def test_scaling_a_or_y_alone_keeps_the_decisions(self):
        # The decisions are those of the unscaled system whether A or Y is
        # scaled, up to 1e+-200, with no warning: every residual is judged
        # against its own generator's norm alone.
        rng = np.random.default_rng(56)
        scales = (1e-200, 1e-150, 1e150, 1e200, float(rng.uniform(0.1, 10.0)))
        for a, _, _ in index_matrix_suite(seed=57, reps=2):
            n = a.shape[0]
            s = build_associated(stacked_problem(a, np.zeros(2 * n), np.zeros(2 * n))).s
            for inside in (np.eye(2 * n), s, matrix_power(s, n)):
                y0, y1 = (inside @ rng.standard_normal((2 * n, 2))).T
                expected = solve(stacked_problem(a, y0, y1))
                decisions = (expected.classification, expected.is_generalized)
                for c in scales:
                    for problem in (stacked_problem(c * a, y0, y1),
                                    stacked_problem(a, c * y0, c * y1)):
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            report = solve(problem)
                        assert (report.classification, report.is_generalized) == decisions
                        assert_report_invariants(report)

    def test_a_near_the_float_maximum_keeps_the_decisions(self):
        # A's norm and singular values overflow at 2^1020..2^1023, those of
        # its unit-scale copy do not; a rank judged against an overflowed
        # norm once changed the classification, with a RuntimeWarning
        rng = np.random.default_rng(121)
        for count in range(40):
            n = int(rng.integers(2, 17))
            a = rng.choice([-1.0, 1.0], (n, n))
            if count % 2:
                a[:, 0] = a[:, 1]
            y = [fz(*rng.standard_normal(4)) for _ in range(n)]
            expected = solve(FlsProblem(a=a, y=y)).classification
            for p in (1020, 1021, 1022, 1023):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = solve(FlsProblem(a=np.ldexp(a, p), y=y))
                assert report.classification == expected, f"n = {n}, A * 2^{p}"

    @pytest.mark.parametrize("s", [1.0, 1e100, 1e160, 1e-160])
    def test_right_hand_side_scale_alone(self, s):
        # (s, 2s) lies outside col(S) for A = [[1, 1], [1, 1]] at every s;
        # an absolute floor on ||y|| or an overflowing norm used to decide
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        problem = FlsProblem(a=a, y=[fz(s, 0, 2 * s, 0), fz(0, 0, 0, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(problem)
        assert report.classification.kind == INCONSISTENT
        assert report.is_generalized

    def test_right_hand_side_near_the_float_range(self):
        # this system has rank [S | Y] = 4 at every scale of y; the projection
        # of the raw y once overflowed at 1.7e308, and the report read rank 3
        # and a NaN residual
        big = 1.7e308
        problem = FlsProblem(a=np.array([[1.0, -1.0], [1.0, -1.0]]),
                             y=[fz(big, big, big, big), fz(0, 0, big, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(problem)
        assert report.classification.rank_aug == 4
        assert np.isfinite(report.residual)

    def test_residual_near_the_float_range(self):
        # the same system scaled by 1e-8 has residual 5.0e284, so this one's
        # is representable; formed at the scale of y, M @ x_h once overflowed
        # and the residual read inf
        problem = FlsProblem(a=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [-1.0, 1.0, -1.0]]),
                             y=[fz(0, 0, -1e308, 0), fz(1e308, 0, 0, 0),
                                fz(-1e308, 0, -1e308, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(problem)
            assert verify_solution(build_associated(problem), report) == report.residual
        assert np.isfinite(report.residual)

    def test_verdicts_do_not_depend_on_the_scale_of_y(self):
        # clause 1 fails for y1 at every c; with an absolute slack both
        # verdicts once read valid at c = 2^-40 and 2^-300
        for p in (0, 40, 300, -40, -300):
            c = 2.0 ** p
            report = solve(FlsProblem(a=np.eye(2), y=[fz(0, -c, c, 0), fz(0, 0, c, 0)]))
            assert [v.violations for v in report.verdicts] == [(1,), ()], f"c = 2^{p}"


def _invariance_cases():
    for method in (METHOD_INVERSE, METHOD_CORE_EP, METHOD_2I, METHOD_2II):
        for p in (300, -300, 600, -600, None):
            label = "permuted" if p is None else f"2^{p}"
            yield pytest.param(method, p, False, id=f"{method}-{label}")
        for p in (300, -300, 600, -600):
            yield pytest.param(method, p, True, id=f"{method}-y*2^{p}")


@pytest.mark.parametrize("method, p, scale_y", _invariance_cases())
def test_scale_and_permutation_invariance(method, p, scale_y):
    # A * 2^p solves to x * 2^-p, y * 2^p to x * 2^p bit for bit (and its
    # residual to the residual times 2^p), and P A P^T with y permuted to P x,
    # with the same decisions and no warning: roundoff scales exactly by a
    # power of two and LAPACK's pivoting follows the rows.  Under either
    # scale the verdicts stay: their slack is relative to max|x|.
    rng = np.random.default_rng(59)
    for a, _, _ in index_matrix_suite():
        n = a.shape[0]
        y0, y1 = rng.standard_normal((2, 2 * n))
        perm = rng.permutation(n)
        rows = np.concatenate([perm, n + perm])
        if p is None:
            moved = stacked_problem(a[np.ix_(perm, perm)], y0[rows], y1[rows])
        elif scale_y:
            moved = stacked_problem(a, np.ldexp(y0, p), np.ldexp(y1, p))
        else:
            moved = stacked_problem(np.ldexp(a, p), y0, y1)
        try:
            base = solve(stacked_problem(a, y0, y1), method=method)
        except IndexTooLargeError:
            with pytest.raises(IndexTooLargeError):
                solve(moved, method=method)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(moved, method=method)
        assert (report.classification, report.method, report.is_generalized) == (
            base.classification, base.method, base.is_generalized)
        if scale_y:
            assert report.residual == math.ldexp(base.residual, p)
        if p is not None:
            assert report.verdicts == base.verdicts
        for got, x in ((report.crisp_x0, base.crisp_x0), (report.crisp_x1, base.crisp_x1)):
            if scale_y:
                np.testing.assert_array_equal(got, np.ldexp(x, p))
                continue
            want = x[rows] if p is None else np.ldexp(x, -p)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


def graded_problems(count):
    """Nonsingular n = 12 systems, the singular values of A graded from 1 down
    to 1e-2..1e-12, with a random right-hand side."""
    rng = np.random.default_rng(90)
    for _ in range(count):
        graded = np.logspace(0.0, -rng.uniform(2.0, 12.0), 12)
        a = (random_orthogonal(rng, 12) * graded) @ random_orthogonal(rng, 12)
        yield stacked_problem(a, *rng.standard_normal((2, 24)))


class TestExactRouteCheck:
    """The exact route's residual ``S x - y`` is judged as a backward error,
    against ``residual_tol * (||S|| ||x_i|| + ||y_i||)`` per generator."""

    def test_well_posed_systems_are_solved(self):
        # the check used to raise on about a third of these once cond(A)
        # passed 1e8, although x is a backward-stable solve
        for problem in graded_problems(350):
            report = solve(problem)
            assert report.classification.kind == CONSISTENT_UNIQUE
            assert not report.is_generalized
            sys = build_associated(problem)
            x = np.column_stack([report.crisp_x0, report.crisp_x1])
            y = np.column_stack([sys.y0, sys.y1])
            backward = np.linalg.norm(sys.s @ x - y, axis=0) / (
                np.linalg.norm(sys.s, 2) * np.linalg.norm(x, axis=0) + np.linalg.norm(y, axis=0))
            assert backward.max() <= 1e-14

    def test_perturbed_solution_raises(self, monkeypatch):
        rng = np.random.default_rng(91)
        apply = MatrixPowers.core_ep_apply

        def perturbed(self, w, tol=DEFAULT_TOLERANCES):
            x = apply(self, w, tol)
            return x * (1.0 + 1e-6 * rng.standard_normal(x.shape))

        monkeypatch.setattr(MatrixPowers, "core_ep_apply", perturbed)
        for problem in graded_problems(50):
            with pytest.raises(NumericalFailureError, match="exact route"):
                solve(problem)

    @pytest.mark.parametrize("pa, py", [(600, -600), (1000, -600), (1000, -1000), (60, -1060),
                                        (1020, -60)])
    def test_solution_lost_to_underflow_raises(self, pa, py):
        # x = y / A lies below the float range and comes out 0, so S x - y is
        # y itself, far beyond any backward error; a zero column of x once
        # counted as size 1 in the check's scale, which flushed y to zero
        # there, and the report read ConsistentUnique with x = 0.  The
        # message once blamed a disagreement of the membership test.
        y = math.ldexp(1.0, py)
        problem = FlsProblem(a=np.array([[-math.ldexp(1.0, pa)]]), y=[fz(y, 0, 3 * y, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError,
                               match="exact route: the solution underflows"):
                solve(problem)


@pytest.mark.parametrize("a, lower, upper, message", [
    ([[1e-310, 2e-310], [1e-310, 3e-310]], (1.0, 1.0), (3.0, -1.0),
     "the solution overflows"),  # x about 1e310
    ([[0.75]], (1.5e308, 0.0), (0.0, 0.0),
     "the solution overflows"),  # each half's solve finite, their sum 2e308
    ([[2.0 ** -60]], (2.0 ** 1000, 0.0), (2.0 ** 1001, 0.0),
     "the solution overflows"),  # the inverse 1.15e18 is finite, x about 2^1060
], ids=["inverse", "sum-of-halves", "finite-inverse"])
def test_overflowing_solution_raises(a, lower, upper, message):
    problem = FlsProblem(a=np.array(a), y=[fz(*lower, *upper)] * len(a))
    with pytest.raises(NumericalFailureError, match=message):
        solve(problem)


@pytest.mark.parametrize("a, lower, upper, x0", [
    ([[1e-300]], (1e8, 0.0), (5e7, 0.0), [1e308, -5e307]),  # halves near the top
    ([[1.0]], (-1.7e308, 0.0), (1.7e308, 0.0), [-1.7e308, -1.7e308]),  # y_top + y_bot overflows
    ([[1e-310]], (1e-10, 0.0), (2e-10, 0.0), [1e300, -2e300]),  # a subnormal pivot
], ids=["halves", "identity", "subnormal-pivot"])
def test_representable_solution_is_returned(a, lower, upper, x0):
    problem = FlsProblem(a=np.array(a), y=[fz(*lower, *upper)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(problem)
    np.testing.assert_allclose(report.crisp_x0, x0, rtol=1e-12)
    np.testing.assert_array_equal(report.crisp_x1, [0.0, 0.0])
    assert not report.is_generalized


def test_tiny_component_beside_a_huge_one():
    # the solve scales by the matrix's power of two, not by the right-hand
    # side's, so a component 1e-400 times the largest is not flushed to zero
    report = solve(FlsProblem(a=np.eye(2), y=[fz(1e300, 0, 1e300, 0), fz(1e-100, 0, 1e-100, 0)]))
    np.testing.assert_array_equal(report.crisp_x0, [1e300, 1e-100, -1e300, -1e-100])


def _solves_by_index(monkeypatch, helper):
    """``(k, calls)`` for solves at index k = 0..3 on every route, with
    ``calls`` the calls that one solve made to the fls helper named."""
    calls = []
    original = getattr(fls, helper)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fls, helper, counting)
    rng = np.random.default_rng(92)
    routes = set()
    for k, consistent in ((0, True), (1, True), (1, False), (2, True), (2, False),
                          (3, True), (3, False)):
        for n in (3, 8, 16) if k < 3 else (4, 8, 16):
            a, y0, y1 = block_triangular_system(rng, n, k, consistent)
            calls.clear()
            report = solve(stacked_problem(a, y0, y1))
            assert report.classification.index_s == k
            routes.add(report.method)
            yield k, calls
    assert routes == {METHOD_INVERSE, METHOD_CORE_EP, METHOD_2I}


def test_projections_per_solve(monkeypatch):
    # at index <= 1 col(S^k) = col(S): the membership test and the Method2-i
    # residual reuse the projection behind the augmented rank; above, the
    # membership test projects once more, onto col(S^k)
    for k, calls in _solves_by_index(monkeypatch, "_outside"):
        assert len(calls) == (1 if k <= 1 else 2)


def test_conversions_per_solve(monkeypatch):
    # y goes into half coordinates once per system; the solution comes back
    # once, goes into halves once for the residual, and the residual comes
    # back once for its infinity norm, at every index
    for _, calls in _solves_by_index(monkeypatch, "_butterfly"):
        assert len(calls) == 4


def stacked_problem(a, y0, y1):
    """The fuzzy system whose associated right-hand side is ``y0 + r*y1``."""
    n = a.shape[0]
    return FlsProblem(a=a, y=[
        FuzzyNumber(AffineFn(y0[i], y1[i]), AffineFn(-y0[n + i], -y1[n + i]))
        for i in range(n)
    ])


def assert_matches_full_size_route(problem):
    cls, method, generalized, x = solve_2n(problem)
    report = solve(problem)
    assert report.classification == cls
    assert (report.method, report.is_generalized) == (method, generalized)
    got = np.column_stack([report.crisp_x0, report.crisp_x1])
    assert np.linalg.norm(got - x) <= EQ_TOL * (1.0 + np.linalg.norm(x))


class TestHalfBlockRoute:
    """The solver decides and solves on ``|A|`` and ``A``; the same decisions
    and solution come from factorizing the 2n x 2n S (``oracles.solve_2n``)."""

    def test_index_suite_systems(self):
        rng = np.random.default_rng(50)
        for a, _, _ in index_matrix_suite(seed=51, reps=2):
            n = a.shape[0]
            s = build_associated(stacked_problem(a, np.zeros(2 * n), np.zeros(2 * n))).s
            inside = matrix_power(s, n)  # col(S^n) = col(S^k) for every k >= index
            for y0, y1 in (
                (rng.standard_normal(2 * n), rng.standard_normal(2 * n)),
                (inside @ rng.standard_normal(2 * n), inside @ rng.standard_normal(2 * n)),
            ):
                assert_matches_full_size_route(stacked_problem(a, y0, y1))

    def test_block_triangular_systems(self):
        rng = np.random.default_rng(52)
        for n in (8, 12, 16):
            for k in range(4):
                for consistent in (True, False):
                    a, y0, y1 = block_triangular_system(rng, n, k, consistent)
                    assert_matches_full_size_route(stacked_problem(a, y0, y1))

    def test_no_full_size_factorization(self, monkeypatch):
        # On a singular system no SVD or least-squares problem has 2n rows.
        n = 16
        a, y0, y1 = block_triangular_system(np.random.default_rng(53), n, 2, False)
        problem = stacked_problem(a, y0, y1)
        shapes = []

        def recording(name):
            original = getattr(np.linalg, name)

            def wrapper(m, *args, **kwargs):
                shapes.append((name, m.shape))
                return original(m, *args, **kwargs)

            return wrapper

        for name in ("svd", "lstsq"):
            monkeypatch.setattr(np.linalg, name, recording(name))
        for method in (None, METHOD_2II):
            shapes.clear()
            report = solve(problem, method=method)
            assert report.is_generalized
            verify_solution(build_associated(problem), report)
            assert not [s for s in shapes if s[0] == "lstsq"]
            assert shapes and not [s for s in shapes if s[1][0] == 2 * n]

    def test_no_matrix_factorized_twice(self, monkeypatch):
        # A nonsingular solve takes no SVD: a Cholesky certificate proves the
        # full rank of both half-blocks.  A singular one takes each SVD once,
        # with vectors, where the rank of a power drops.  Neither inverts a
        # matrix or forms S.
        seen, inverted = [], []
        original = np.linalg.svd

        def recording(m, *args, **kwargs):
            seen.append((m.shape, m.tobytes()))
            return original(m, *args, **kwargs)

        def not_formed(self):
            raise AssertionError("S was formed")

        monkeypatch.setattr(np.linalg, "svd", recording)
        monkeypatch.setattr(np.linalg, "inv", lambda m, *args, **kwargs: inverted.append(m))
        monkeypatch.setattr(AssociatedSystem, "s", property(not_formed))
        rng = np.random.default_rng(55)
        for k in (0, 2):
            seen.clear()
            a, y0, y1 = block_triangular_system(rng, 16, k, False)
            problem = stacked_problem(a, y0, y1)
            report = solve(problem)
            assert report.classification.index_s == k
            assert len(seen) == len(set(seen))
            assert inverted == []
            if k == 0:
                assert seen == []
                assert report.classification.kind == CONSISTENT_UNIQUE
            verify_solution(build_associated(problem), report)

    def test_gesdd_non_convergence_is_recovered(self):
        # the A block is the rank-192 index-1 matrix of gesdd_failure_case;
        # gesdd converges on every matrix the solver factorizes here, so this
        # checks a generalized solve of that system end to end
        a, y = gesdd_failure_case()
        problem = stacked_problem(a, np.concatenate([y, -y - 1.0]), np.ones(2 * y.size))
        report = solve(problem)
        assert report.classification.index_s == 1
        assert report.is_generalized
        assert verify_solution(build_associated(problem), report) <= RES_TOL
