"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_fuzzy_matches
from matgen import block_pair_suite, index_matrix_suite, integer_membership_suite
from oracles import exact_in_colspace, exact_index, int_matpow

from fuzzylinsys import (
    METHOD_2I,
    METHOD_2II,
    core_ep_decompose,
    core_ep_from_blocks,
    core_ep_via_decomposition,
    core_ep_via_formula,
    core_inverse,
    in_column_space,
    matrix_index,
    matrix_power,
    moore_penrose,
    solve,
)
from fuzzylinsys.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_consistent_2x2_reproduction(consistent_2x2):
    w = consistent_2x2
    start = time.perf_counter()

    np.testing.assert_allclose(core_inverse(w.s), w.core_inverse, atol=1e-9)

    rep = solve(w.problem)
    assert_fuzzy_matches(rep.fuzzy_x, w.fuzzy, tol=1e-9)
    cls = rep.classification
    assert cls.kind == "ConsistentInfinite"
    assert (cls.rank_s, cls.rank_aug, cls.index_s) == (2, 2, 1)

    elapsed = time.perf_counter() - start
    report(1, elapsed < 1.0, f"(core inverse + solve reproduced, {elapsed:.3f}s)")


def test_criterion_2_consistent_3x3_reproduction(consistent_3x3):
    w = consistent_3x3
    start = time.perf_counter()

    assert matrix_index(w.s) == 2
    np.testing.assert_array_equal(matrix_power(w.s, 2), w.s_squared)
    np.testing.assert_allclose(core_ep_via_formula(w.s), w.core_ep, atol=1e-9)

    s2 = matrix_power(w.s, 2)
    assert in_column_space(s2, w.y0)  # right-hand side at r = 0
    assert in_column_space(s2, w.y0 + w.y1)  # and at r = 1

    rep = solve(w.problem)
    np.testing.assert_allclose(rep.crisp_x0, w.crisp_x0, atol=1e-9)
    np.testing.assert_allclose(rep.crisp_x1, w.crisp_x1, atol=1e-9)
    assert rep.verdicts[0].violations == (3,)
    assert not rep.strong

    elapsed = time.perf_counter() - start
    report(2, elapsed < 1.0, f"(index, power, core-EP, membership, solution, {elapsed:.3f}s)")


def test_criterion_3_inconsistent_2x2_reproduction(inconsistent_2x2):
    w = inconsistent_2x2
    start = time.perf_counter()

    cls = solve(w.problem).classification
    assert cls.kind == "Inconsistent"
    assert (cls.rank_s, cls.rank_aug, cls.index_s) == (2, 4, 2)

    np.testing.assert_allclose(core_ep_from_blocks(w.system.d, w.system.e), w.core_ep, atol=1e-9)
    np.testing.assert_allclose(core_ep_via_formula(w.s), w.core_ep, atol=1e-9)

    rep_i = solve(w.problem, method=METHOD_2I)
    rep_ii = solve(w.problem, method=METHOD_2II)
    for rep in (rep_i, rep_ii):
        assert rep.is_generalized
        assert_fuzzy_matches(rep.fuzzy_x, w.fuzzy, tol=1e-9)
    np.testing.assert_allclose(rep_i.crisp_x0, rep_ii.crisp_x0, atol=1e-12)
    np.testing.assert_allclose(rep_i.crisp_x1, rep_ii.crisp_x1, atol=1e-12)

    dec = core_ep_decompose(w.s)
    np.testing.assert_allclose(dec.t, [[2.0]], atol=1e-9)
    assert np.linalg.norm(np.linalg.matrix_power(dec.n_block, 2)) <= 1e-9

    elapsed = time.perf_counter() - start
    report(3, elapsed < 1.0, f"(classification, inverse, both variants, factors, {elapsed:.3f}s)")


def test_criterion_4_defining_equation_property_suite():
    suite = index_matrix_suite()
    assert len(suite) >= 200
    start = time.perf_counter()
    worst_core_ep = worst_penrose = 0.0
    for m, k, _ in suite:
        scale = 1e-8 * (1.0 + np.linalg.norm(m))
        assert matrix_index(m) == k

        x = core_ep_via_formula(m)
        mk = np.linalg.matrix_power(m, k)
        r1 = np.linalg.norm(x @ mk @ m - mk)
        r2 = np.linalg.norm(m @ x @ x - x)
        r3 = np.linalg.norm((m @ x).T - m @ x)
        worst_core_ep = max(worst_core_ep, max(r1, r2, r3) / scale)
        assert max(r1, r2, r3) <= scale

        p = moore_penrose(m)
        residuals = (
            np.linalg.norm(m @ p @ m - m),
            np.linalg.norm(p @ m @ p - p),
            np.linalg.norm((m @ p).T - m @ p),
            np.linalg.norm((p @ m).T - p @ m),
        )
        worst_penrose = max(worst_penrose, max(residuals) / scale)
        assert max(residuals) <= scale
    elapsed = time.perf_counter() - start
    report(
        4,
        elapsed < 30.0,
        f"({len(suite)} matrices, worst scaled residuals "
        f"core-EP {worst_core_ep:.2e}, Penrose {worst_penrose:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_5_block_structure_equivalence():
    pairs = block_pair_suite()
    assert len(pairs) >= 200
    for d, e in pairs:
        n = d.shape[0]
        s = np.block([[d, e], [e, d]])
        direct = core_ep_via_formula(s)
        blocked = core_ep_from_blocks(d, e)
        scale = 1e-8 * (1.0 + np.linalg.norm(direct))
        assert np.linalg.norm(direct - blocked) <= scale

        h, z = direct[:n, :n], direct[:n, n:]
        plus = core_ep_via_formula(d + e)
        minus = core_ep_via_formula(d - e)
        half_scale = 1e-8 * (1.0 + np.linalg.norm(plus) + np.linalg.norm(minus))
        assert np.linalg.norm((h + z) - plus) <= half_scale
        assert np.linalg.norm((h - z) - minus) <= half_scale
    report(5, True, f"({len(pairs)} block pairs, both directions)")


def test_criterion_6_membership_oracle_equivalence():
    items = integer_membership_suite()
    assert len(items) >= 200
    members = 0
    for s_int, y_int in items:
        k = exact_index(s_int)
        sk_int = int_matpow(s_int, k)
        expected = exact_in_colspace(sk_int, y_int)
        members += expected

        sk = np.array(sk_int, dtype=float)
        y = np.array(y_int, dtype=float)
        assert in_column_space(sk, y) == expected

        s = np.array(s_int, dtype=float)
        x = core_ep_via_formula(s) @ y
        residual = np.linalg.norm(s @ x - y)
        tol = 1e-8 * max(1.0, float(np.linalg.norm(y)))
        assert (residual <= tol) == expected
    report(6, 0 < members < len(items),
           f"({len(items)} pairs, {members} members, oracle agreement exact)")


def test_criterion_7_block_power_identity():
    pairs = block_pair_suite(seed=777, reps=13)
    assert len(pairs) >= 100
    for d, e in pairs:
        s = np.block([[d, e], [e, d]])
        for p in range(1, 6):
            plus = np.linalg.matrix_power(d + e, p)
            minus = np.linalg.matrix_power(d - e, p)
            expected = np.block(
                [[plus + minus, plus - minus], [plus - minus, plus + minus]]
            ) / 2.0
            scale = 1e-8 * (1.0 + np.linalg.norm(expected))
            assert np.linalg.norm(matrix_power(s, p) - expected) <= scale
    report(7, True, f"({len(pairs)} pairs, powers 1..5)")


def test_criterion_8_route_equivalence():
    suite = index_matrix_suite()
    complex_count = sum(1 for _, _, c in suite if c)
    assert complex_count >= 20
    for m, _, _ in suite:
        a = core_ep_via_formula(m)
        b = core_ep_via_decomposition(m)
        assert np.linalg.norm(a - b) <= 1e-8 * (1.0 + np.linalg.norm(a))
    report(8, True, f"({len(suite)} matrices, {complex_count} with complex pairs)")


class TestCriterion9CliIntegration:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_consistent_2x2_end_to_end(self, capsys, consistent_2x2):
        code, out = self.run(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"]["kind"] == "ConsistentInfinite"
        assert doc["classification"]["rank_s"] == 2
        assert doc["classification"]["index_s"] == 1
        assert doc["overall"] == "strong"
        expected = consistent_2x2.fuzzy
        for comp, (l0, l1, u0, u1) in zip(doc["fuzzy"], expected):
            np.testing.assert_allclose(comp["lower"], [l0, l1], atol=1e-9)
            np.testing.assert_allclose(comp["upper"], [u0, u1], atol=1e-9)

    def test_consistent_3x3_end_to_end(self, capsys, consistent_3x3):
        code, out = self.run(
            capsys, "solve", str(FIXTURES / "consistent_3x3.json"), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["overall"] == "weak"
        assert doc["verdicts"][0]["violated"] == [3]
        np.testing.assert_allclose(doc["crisp"]["x0"], consistent_3x3.crisp_x0, atol=1e-9)
        np.testing.assert_allclose(doc["crisp"]["x1"], consistent_3x3.crisp_x1, atol=1e-9)

    def test_inconsistent_2x2_end_to_end(self, capsys, inconsistent_2x2):
        code, out = self.run(
            capsys, "solve", str(FIXTURES / "inconsistent_2x2.json"), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"]["kind"] == "Inconsistent"
        assert doc["classification"]["rank_aug"] == 4
        assert doc["is_generalized"] is True
        for comp in doc["fuzzy"]:
            np.testing.assert_allclose(comp["lower"], [0.625, -1.125], atol=1e-9)
            np.testing.assert_allclose(comp["upper"], [-0.625, 1.125], atol=1e-9)

    def test_malformed_fixtures_exit_codes(self, capsys, tmp_path):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("[1, 2,")
        code, _ = self.run(capsys, "solve", str(garbled))
        assert code == 2

        non_square = tmp_path / "non_square.json"
        non_square.write_text(json.dumps({
            "a": [[1, 2, 3], [4, 5, 6]],
            "y": [{"lower": [0, 0], "upper": [0, 0]}] * 2,
        }))
        code, _ = self.run(capsys, "solve", str(non_square))
        assert code == 3
        report(9, True, "(three fixtures end-to-end, malformed inputs exit 2/3)")
