import dataclasses
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
)
from oracles import solve_2n

from fuzzylinsys import (
    CONSISTENT_INFINITE,
    CONSISTENT_UNIQUE,
    INCONSISTENT,
    METHOD_2I,
    METHOD_2II,
    METHOD_CORE_EP,
    METHOD_INVERSE,
    AssociatedSystem,
    DimensionMismatchError,
    FlsProblem,
    IndexTooLargeError,
    build_associated,
    classify,
    core_ep_from_blocks,
    core_ep_via_formula,
    fuzzy_eq,
    in_column_space,
    matrix_power,
    one_three_inverse,
    solve,
    verify_solution,
)
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
        assert r2.residual <= RES_TOL

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
        # the core-EP inverse of the A block needs the SVD that gesdd fails on
        a, y = gesdd_failure_case()
        problem = stacked_problem(a, np.concatenate([y, -y - 1.0]), np.ones(2 * y.size))
        report = solve(problem)
        assert report.classification.index_s == 1
        assert report.is_generalized
        assert verify_solution(build_associated(problem), report) <= RES_TOL
