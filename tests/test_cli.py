import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matgen import graded_index_one

from fuzzylinsys import (
    DEFAULT_TOLERANCES,
    FlsProblem,
    TolerancePolicy,
    cli,
    errors,
    fls,
    ginv,
    solve,
)
from fuzzylinsys.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DIMENSION,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    format_affine,
    load_matrix,
    load_problem,
    main,
    report_from_dict,
    report_to_dict,
)
from fuzzylinsys.errors import DimensionMismatchError, ProblemFormatError
from fuzzylinsys.fuzzy import AffineFn

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_consistent_fixture_text(self, capsys):
        code, out, err = run_cli(capsys, "solve", str(FIXTURES / "consistent_2x2.json"))
        assert code == EXIT_OK and err == ""
        assert "ConsistentInfinite" in out
        assert "strong" in out
        assert "-0.75 + 0.25*r" in out
        assert "0.25 - 0.75*r" in out

    def test_consistent_fixture_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"), "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["classification"] == {
            "kind": "ConsistentInfinite", "rank_s": 2, "rank_aug": 2, "index_s": 1,
        }
        assert doc["overall"] == "strong"
        np.testing.assert_allclose(
            doc["crisp"]["x0"], [-0.75, -0.5, -0.25, -1.5], atol=1e-9
        )
        np.testing.assert_allclose(doc["fuzzy"][0]["lower"], [-0.75, 0.25], atol=1e-9)
        np.testing.assert_allclose(doc["fuzzy"][0]["upper"], [0.25, -0.75], atol=1e-9)

    def test_weak_fixture_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_3x3.json"), "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["overall"] == "weak"
        assert doc["verdicts"][0] == {"valid": False, "violated": [3]}
        np.testing.assert_allclose(doc["crisp"]["x0"], [0, 5, 3, 4, 1, 3], atol=1e-9)
        np.testing.assert_allclose(doc["crisp"]["x1"], [2, -1, 0, 0, 1, 0], atol=1e-9)

    def test_inconsistent_fixture_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", str(FIXTURES / "inconsistent_2x2.json"), "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["classification"]["kind"] == "Inconsistent"
        assert doc["is_generalized"] is True
        for comp in doc["fuzzy"]:
            np.testing.assert_allclose(comp["lower"], [0.625, -1.125], atol=1e-9)
            np.testing.assert_allclose(comp["upper"], [-0.625, 1.125], atol=1e-9)

    def test_method_variants_byte_identical_fuzzy(self, capsys):
        outs = []
        for variant in ("method2-i", "method2-ii"):
            _, out, _ = run_cli(
                capsys, "solve", str(FIXTURES / "inconsistent_2x2.json"),
                "--method", variant, "--format", "json",
            )
            doc = json.loads(out)
            outs.append(json.dumps(doc["fuzzy"]))
        assert outs[0] == outs[1]

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"),
            "--format", "json", "--output", str(target),
        )
        assert code == EXIT_OK and out == ""
        doc = json.loads(target.read_text())
        assert doc["method"] == "CoreEp"

    def test_tolerance_flags_are_applied(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"),
            "--format", "json", "--residual-tol", "1e-6",
        )
        assert code == EXIT_OK
        assert json.loads(out)["tolerances"]["residual_tol"] == 1e-6
        code, out, _ = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"),
            "--format", "json", "--eq-tol", "1e-7",
        )
        assert code == EXIT_OK
        assert json.loads(out)["tolerances"]["equality_tol"] == 1e-7

    def test_zero_upper_endpoint_is_written_unsigned(self, capsys, tmp_path):
        # the upper endpoints are the negated lower rows n..2n of x, and a
        # zero there once printed as -0
        doc = tmp_path / "p.json"
        doc.write_text(json.dumps({"a": [[1, 0], [0, 1]],
                                   "y": [{"lower": [0, 0], "upper": [0, 0]},
                                         {"lower": [1, 0], "upper": [2, 0]}]}))
        code, out, _ = run_cli(capsys, "solve", str(doc))
        assert code == EXIT_OK
        assert "x~1 = (0 + 0*r, 0 + 0*r)" in out
        code, out, _ = run_cli(capsys, "solve", str(doc), "--format", "json")
        assert code == EXIT_OK
        uppers = [rec["upper"] for rec in json.loads(out)["fuzzy"]]
        assert [[math.copysign(1.0, v) for v in upper] for upper in uppers] == \
            [[1.0, 1.0], [1.0, 1.0]]

    def test_huge_entries_inconsistent(self, capsys, tmp_path):
        doc = tmp_path / "p.json"
        rec = {"lower": [1, 0], "upper": [2, 0]}
        doc.write_text(json.dumps({"a": [[1e110, 1e110], [0, 0]], "y": [rec, rec]}))
        code, out, _ = run_cli(capsys, "solve", str(doc))
        assert code == EXIT_OK
        assert out.splitlines()[0] == (
            "classification : Inconsistent  (rank S = 2, rank [S|Y] = 3, index = 1)"
        )

    def test_json_report_holds_no_non_finite_number(self, capsys, tmp_path, monkeypatch):
        # this system is inconsistent and its solution representable; the
        # products behind its residual overflow unless they are formed at a
        # power-of-two scale, and its residual is finite
        big = 1e308
        doc = tmp_path / "p.json"
        doc.write_text(json.dumps({"a": [[1, 1, 1], [1, 1, 0], [-1, 1, -1]],
                                   "y": [{"lower": [0, 0], "upper": [-big, 0]},
                                         {"lower": [big, 0], "upper": [0, 0]},
                                         {"lower": [-big, 0], "upper": [-big, 0]}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "solve", str(doc), "--format", "json")
        assert code == EXIT_OK and err == ""
        assert math.isfinite(json.loads(out)["residual"])

        # this index-2 system's Method 2-ii residual once overflowed; it is the
        # Method 2-i residual, finite and with no warning
        big = math.ldexp(1.0, 600)
        doc.write_text(json.dumps({"a": [[big, big], [-big, -big]],
                                   "y": [{"lower": [1, 0], "upper": [2, 0]},
                                         {"lower": [0, 0], "upper": [0, 0]}]}))
        residuals = []
        for method in ("method2-i", "method2-ii"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "solve", str(doc), "--method", method,
                                         "--format", "json")
            assert code == EXIT_OK and err == ""
            residuals.append(json.loads(out)["residual"])
        assert math.isfinite(residuals[0]) and residuals[0] == residuals[1]

        # JSON has no Infinity, so a report with an infinite residual is a
        # numerical failure, not written
        solve_ = fls.solve
        monkeypatch.setattr(fls, "solve", lambda *args, **kwargs: dataclasses.replace(
            solve_(*args, **kwargs), residual=math.inf))
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "solve", str(doc), "--format", "json",
                                 "--output", str(target))
        assert code == EXIT_NUMERICAL and out == "" and not target.exists()
        assert err.startswith("error: the report is not valid JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("pa, py", [(600, -600), (1000, -600), (1000, -1000), (60, -1060)])
    def test_solution_lost_to_underflow(self, capsys, tmp_path, pa, py):
        # x = y / A underflows to 0, which is no solution of S x = y
        y = math.ldexp(1.0, py)
        doc = tmp_path / "p.json"
        doc.write_text(json.dumps({"a": [[-math.ldexp(1.0, pa)]],
                                   "y": [{"lower": [y, 0], "upper": [3 * y, 0]}]}))
        code, out, err = run_cli(capsys, "solve", str(doc))
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("error: exact route") and err.count("\n") == 1

    def test_bad_tolerance_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"), "--rank-tol", "2.0"
        )
        assert code == EXIT_PARSE
        assert "rank_rel_tol" in err
        code, out, err = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"), "--eq-tol", "2"
        )
        assert code == EXIT_PARSE and out == ""
        assert "equality_tol" in err

    def test_forced_inverse_on_singular_system(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"), "--method", "inverse"
        )
        assert code == EXIT_NUMERICAL
        assert "index" in err


# Malformed input files whose fault is not JSON syntax: an integer literal
# past the float range, bytes that are not UTF-8, nesting deeper than the
# parser's stack, and a matrix of empty rows.
MALFORMED_FILES = {
    "integer-beyond-float": b'{"a": [[1' + b"0" * 400 + b']], '
                            b'"y": [{"lower": [0, 0], "upper": [0, 0]}]}',
    "empty-rows": b'{"a": [[]], "y": [{"lower": [0, 0], "upper": [0, 0]}]}',
    "not-utf-8": b'\xff\xfe{"a": [[1]]}',
    "nesting-too-deep": b"[" * 100_000 + b"]" * 100_000,
}

# Any JSON value, with the keys and shapes of the input documents likely
# enough that the loaders' inner checks are reached, and integers well past
# the float range among the numbers.
_NUMBERS = (st.integers(-9, 9) | st.floats(-1e3, 1e3) | st.integers(-10**400, 10**400)
            | st.floats())
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | _NUMBERS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["a", "y", "lower", "upper", "samples"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=12,
)
_PAIR = st.lists(_NUMBERS, min_size=2, max_size=2)
_DOCUMENTS = st.fixed_dictionaries({
    "a": st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(_NUMBERS, min_size=n, max_size=n), min_size=1, max_size=3)) | _JSON,
    "y": st.lists(st.fixed_dictionaries({"lower": _PAIR, "upper": _PAIR}) | _JSON,
                  min_size=1, max_size=3) | _JSON,
}) | _JSON


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_DOCUMENTS)
def test_loaders_return_or_raise_a_typed_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for load in (load_problem, load_matrix):
        try:
            load(str(path))
        except (ProblemFormatError, DimensionMismatchError):
            pass


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "no-such-file.json")
        assert code == EXIT_PARSE and "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == EXIT_PARSE and "not valid JSON" in err

    def test_non_square_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "a": [[1, 2, 3], [4, 5, 6]],
            "y": [{"lower": [0, 0], "upper": [0, 0]}] * 2,
        }))
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == EXIT_DIMENSION and "square" in err

    def test_length_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "a": [[1, 0], [0, 1]],
            "y": [{"lower": [0, 0], "upper": [0, 0]}],
        }))
        code, _, _ = run_cli(capsys, "solve", str(bad))
        assert code == EXIT_DIMENSION

    def test_ragged_rows(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "a": [[1, 2], [3]],
            "y": [{"lower": [0, 0], "upper": [0, 0]}] * 2,
        }))
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == EXIT_PARSE and "ragged" in err

    def test_reserved_sampled_encoding(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "a": [[1]],
            "y": [{"samples": [[0, 1], [1, 2]]}],
        }))
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == EXIT_PARSE
        assert "affine" in err and "sampled" in err

    def test_nonfinite_entry(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": [[NaN]], "y": [{"lower": [0, 0], "upper": [0, 0]}]}')
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("command", ["solve", "inverse"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_malformed_file_is_a_parse_error(self, capsys, tmp_path, command, case):
        bad = tmp_path / "bad.json"
        bad.write_bytes(MALFORMED_FILES[case])
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("record, message", [
        ({"lower": [0, 0], "upper": [0, 0], "mode": [0, 0]}, "exactly the fields"),
        ({"lower": [0, 0, 0], "upper": [0, 0]}, "two-element list"),
    ], ids=["extra-field", "three-element-endpoint"])
    def test_malformed_record_is_a_parse_error(self, capsys, tmp_path, record, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a": [[1]], "y": [record]}))
        code, out, err = run_cli(capsys, "solve", str(bad))
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: y[0]") and message in err and err.count("\n") == 1

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(capsys, "solve", str(FIXTURES / "consistent_2x2.json"),
                                 "--output", str(target))
        assert code == EXIT_PARSE and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    def test_loader_round_trip(self):
        problem = load_problem(str(FIXTURES / "consistent_3x3.json"))
        assert problem.a.shape == (3, 3)
        assert problem.y[0].lower == AffineFn(0, 4)


class TestInverseCommand:
    def test_core_inverse_matches_display(self, capsys):
        code, out, _ = run_cli(
            capsys, "inverse", str(FIXTURES / "associated_4x4.json"), "--kind", "core"
        )
        assert code == EXIT_OK
        rows = [line.split() for line in out.splitlines()[1:] if line.strip()]
        got = np.array([[float(v) for v in row] for row in rows])
        expected = np.array([
            [0.00, 0.10, 0.05, 0.00],
            [0.10, 0.00, 0.00, 0.20],
            [0.05, 0.00, 0.00, 0.10],
            [0.00, 0.20, 0.10, 0.00],
        ])
        np.testing.assert_allclose(got, expected, atol=1e-4)

    def test_identity_any_kind(self, capsys, tmp_path):
        doc = tmp_path / "eye.json"
        doc.write_text(json.dumps({"a": [[1, 0], [0, 1]]}))
        for kind in ("core-ep", "core", "moore-penrose"):
            code, out, _ = run_cli(capsys, "inverse", str(doc), "--kind", kind)
            assert code == EXIT_OK
            rows = [line.split() for line in out.splitlines()[1:] if line.strip()]
            got = np.array([[float(v) for v in row] for row in rows])
            np.testing.assert_allclose(got, np.eye(2), atol=1e-9)

    def test_show_decomposition(self, capsys, tmp_path):
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[0, 1, 1, 0], [0, 1, 1, 0],
                                         [1, 0, 0, 1], [1, 0, 0, 1]]}))
        code, out, _ = run_cli(capsys, "inverse", str(doc), "--show-decomposition")
        assert code == EXIT_OK
        assert "index = 2" in out
        t_section = out.split("T:")[1].split("S-block:")[0]
        assert float(t_section.strip()) == pytest.approx(2.0, abs=1e-9)

    def test_show_decomposition_decides_the_ranks_once(self, capsys, tmp_path, monkeypatch):
        # the inverse and the decomposition share one staircase
        calls = []
        staircase = ginv.MatrixPowers._staircase

        def counting(self, tol):
            calls.append(tol)
            return staircase(self, tol)

        monkeypatch.setattr(ginv.MatrixPowers, "_staircase", counting)
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[0, 1, 1, 0], [0, 1, 1, 0],
                                         [1, 0, 0, 1], [1, 0, 0, 1]]}))
        for kind in ("core-ep", "core", "moore-penrose"):
            calls.clear()
            code, out, _ = run_cli(capsys, "inverse", str(doc), "--kind", kind,
                                   "--show-decomposition")
            assert code == (EXIT_NUMERICAL if kind == "core" else EXIT_OK)
            assert len(calls) == 1

    def test_moore_penrose_shares_the_staircase_svd(self, capsys, tmp_path, svd_shapes):
        # one SVD of the 4x4 matrix serves the pseudoinverse and the first
        # step of the staircase; the second step factorizes its 2x2 core
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[0, 1, 1, 0], [0, 1, 1, 0],
                                         [1, 0, 0, 1], [1, 0, 0, 1]]}))
        code, out, _ = run_cli(capsys, "inverse", str(doc), "--kind", "moore-penrose",
                               "--show-decomposition")
        assert code == EXIT_OK and "index = 2" in out
        assert svd_shapes == [(4, 4), (2, 2)]

    def test_huge_entries_do_not_overflow(self, capsys, tmp_path):
        # (A^T)^k A^(k+1) would be ~1e330 here; the inverse itself is tiny
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[1e110, 1e110], [0, 0]]}))
        code, out, err = run_cli(capsys, "inverse", str(doc), "--show-decomposition")
        assert code == EXIT_OK and err == ""
        rows = [line.split() for line in out.splitlines()[1:3]]
        got = np.array([[float(v) for v in row] for row in rows])
        np.testing.assert_allclose(got, [[1e-110, 0.0], [0.0, 0.0]], rtol=1e-6, atol=0.0)
        assert "index = 1" in out

    def test_ill_conditioned_non_normal(self, capsys, tmp_path):
        # A = diag(J, 0), J = [[1, 1e5], [0, 1]]: the core-EP formula squares
        # cond(J) = 1e10 and loses a real singular value; both kinds must
        # print diag(J^-1, 0)
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[1, 1e5, 0], [0, 1, 0], [0, 0, 0]]}))
        for kind in ("core-ep", "core"):
            code, out, err = run_cli(capsys, "inverse", str(doc), "--kind", kind)
            assert code == EXIT_OK and err == ""
            rows = [line.split() for line in out.splitlines()[1:] if line.strip()]
            got = np.array([[float(v) for v in row] for row in rows])
            np.testing.assert_allclose(got, [[1, -1e5, 0], [0, 1, 0], [0, 0, 0]],
                                       rtol=1e-6, atol=1e-6)

    def test_core_on_ill_conditioned_core(self, capsys, tmp_path):
        # index 1, a core of condition 1e8: equation (1) holds to a backward
        # error, so the core inverse prints what the core-EP inverse prints
        doc = tmp_path / "m.json"
        a = graded_index_one(np.random.default_rng(85), 12, 1e8)
        doc.write_text(json.dumps({"a": a.tolist()}))
        printed = []
        for kind in ("core-ep", "core"):
            code, out, err = run_cli(capsys, "inverse", str(doc), "--kind", kind)
            assert code == EXIT_OK and err == ""
            printed.append(out.splitlines()[1:])
        assert printed[0] == printed[1]

    def test_core_on_index_two_matrix(self, capsys, tmp_path):
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[0, 1, 1, 0], [0, 1, 1, 0],
                                         [1, 0, 0, 1], [1, 0, 0, 1]]}))
        code, _, err = run_cli(capsys, "inverse", str(doc), "--kind", "core")
        assert code == EXIT_NUMERICAL
        assert "index" in err

    @pytest.mark.parametrize("kind", ["core-ep", "core", "moore-penrose"])
    @pytest.mark.parametrize("a", [[[1e-310, 2e-310], [1e-310, 3e-310]],
                                   [[5e-324, 0], [0, 0]]], ids=["subnormal", "min"])
    def test_overflowing_inverse(self, capsys, tmp_path, kind, a):
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": a}))
        code, out, err = run_cli(capsys, "inverse", str(doc), "--kind", kind)
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("error: ") and "overflows" in err and err.count("\n") == 1

    def test_rectangular_matrix_rejected(self, capsys, tmp_path):
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[1, 2, 3], [4, 5, 6]]}))
        code, _, _ = run_cli(capsys, "inverse", str(doc))
        assert code == EXIT_DIMENSION

    def test_precision_flag(self, capsys, tmp_path):
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[3, 0], [0, 3]]}))
        code, out, _ = run_cli(capsys, "inverse", str(doc), "--precision", "3")
        assert code == EXIT_OK and "0.333" in out
        code, _, err = run_cli(capsys, "inverse", str(doc), "--precision", "0")
        assert code == EXIT_PARSE


class TestReportRoundTrip:
    def test_parse_print_identity_on_solved_reports(self, consistent_2x2,
                                                    consistent_3x3, inconsistent_2x2):
        for worked, tol in (
            (consistent_2x2, DEFAULT_TOLERANCES),
            (consistent_3x3, TolerancePolicy(rank_rel_tol=1e-10)),
            (inconsistent_2x2, TolerancePolicy(residual_tol=1e-7, equality_tol=1e-10)),
        ):
            report = solve(worked.problem, tol)
            doc = json.loads(json.dumps(report_to_dict(report, tol)))
            back, back_tol = report_from_dict(doc)
            assert back_tol == tol
            assert back.classification == report.classification
            assert back.method == report.method
            assert back.is_generalized == report.is_generalized
            assert back.residual == report.residual
            np.testing.assert_array_equal(back.crisp_x0, report.crisp_x0)
            np.testing.assert_array_equal(back.crisp_x1, report.crisp_x1)
            assert back.fuzzy_x == report.fuzzy_x
            assert back.verdicts == report.verdicts

    def test_round_trip_random_problems(self):
        rng = np.random.default_rng(50)
        from conftest import fz
        for _ in range(15):
            n = int(rng.integers(1, 4))
            problem = FlsProblem(
                a=rng.integers(-3, 4, (n, n)).astype(float),
                y=[fz(*(float(v) for v in rng.integers(-4, 5, 4))) for _ in range(n)],
            )
            report = solve(problem)
            doc = json.loads(json.dumps(report_to_dict(report, DEFAULT_TOLERANCES)))
            back, _ = report_from_dict(doc)
            np.testing.assert_array_equal(back.crisp_x0, report.crisp_x0)
            np.testing.assert_array_equal(back.crisp_x1, report.crisp_x1)
            assert back.fuzzy_x == report.fuzzy_x
            assert back.verdicts == report.verdicts
            assert back.residual == report.residual


def _solved_report_doc():
    """The JSON document of the solved report of the 2x2 fixture."""
    tol = TolerancePolicy(rank_rel_tol=1e-10)
    report = solve(load_problem(str(FIXTURES / "consistent_2x2.json")), tol)
    return json.loads(json.dumps(report_to_dict(report, tol)))


def _set(path, value):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _delete(path):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return mutate


# Documents report_to_dict cannot write, each with the field its error names.
MALFORMED_REPORTS = {
    "empty": (lambda doc: doc.clear(), "classification"),
    "three-number-endpoint": (_set(("fuzzy", 0, "lower"), [1.0, 2.0, 3.0]), "fuzzy[0].lower"),
    "nan-in-crisp": (_set(("crisp", "x0", 0), math.nan), "crisp.x0"),
    "short-crisp": (lambda doc: doc["crisp"]["x0"].pop(), "crisp.x0"),
    "extra-classification-key": (_set(("classification", "note"), 1), "classification"),
    "verdict-without-valid": (_set(("verdicts",), [{"violated": 7}]), "verdicts"),
    "tolerance-outside-0-1": (_set(("tolerances", "residual_tol"), 2.0), "residual_tol"),
    "missing-tolerances": (_delete(("tolerances",)), "tolerances"),
    "rank-below-zero": (_set(("classification", "rank_s"), -1), "classification.rank_s"),
    "kind-at-odds-with-ranks": (_set(("classification", "kind"), fls.INCONSISTENT),
                                "classification.kind"),
    "unknown-method": (_set(("method",), "Gauss"), "method"),
    "valid-at-odds-with-violated": (_set(("verdicts", 0, "valid"), False), "verdicts[0].valid"),
    "overall-at-odds-with-verdicts": (_set(("overall",), "weak"), "overall"),
    "clause-as-a-float": (_set(("verdicts", 0), {"valid": False, "violated": [1.0]}),
                          "verdicts[0].violated"),
    "negative-residual": (_set(("residual",), -1.0), "residual"),
    "changed-crisp-number": (_set(("crisp", "x0", 0), -0.5), "fuzzy[0].lower"),
    "changed-fuzzy-number": (_set(("fuzzy", 1, "upper", 0), 1.25), "fuzzy[1].upper"),
    "flipped-verdict": (lambda doc: doc.update(
        verdicts=[doc["verdicts"][0], {"valid": False, "violated": [3]}], overall="weak"),
        "verdicts[1].valid"),
}


class TestMalformedReport:
    @pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
    def test_is_a_format_error_naming_the_field(self, case):
        mutate, field = MALFORMED_REPORTS[case]
        doc = _solved_report_doc()
        mutate(doc)
        with pytest.raises(ProblemFormatError, match=re.escape(field)):
            report_from_dict(doc)

    def test_leaf_mutations_raise_only_format_errors(self):
        # the document is read or refused, never crashes
        escaped = []
        for _, doc in _leaf_mutations():
            try:
                report_from_dict(doc)
            except ProblemFormatError:
                pass
            except Exception as exc:  # noqa: BLE001 - the test is that none escapes
                escaped.append(repr(exc))
        assert escaped == []

    def test_leaf_mutations_read_change_only_independent_fields(self):
        # whether the solution is generalized and the rank cutoff do not
        # follow from the rest of the report; every other change is refused
        original = json.dumps(_solved_report_doc())
        changed = set()
        for path, doc in _leaf_mutations():
            try:
                report_from_dict(doc)
            except ProblemFormatError:
                continue
            if json.dumps(doc) != original:
                changed.add(path)
        assert changed == {("is_generalized",), ("tolerances", "rank_rel_tol")}


def _leaf_mutations():
    """``(path, document)`` for every node of the solved report set to each
    of a few values, and every node but the root deleted: 422 documents."""
    values = (None, "x", [], {}, math.nan, -1, True, [1, 2, 3])

    def paths(node, path=()):
        yield path
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                yield from paths(node[key], path + (key,))

    yield from (((), v) for v in values)  # the root set to each value
    for path in list(paths(_solved_report_doc()))[1:]:
        for mutate in [_set(path, v) for v in values] + [_delete(path)]:
            doc = _solved_report_doc()
            mutate(doc)
            yield path, doc


# The exit code the cli module docstring gives each of the package's errors.
DOCUMENTED_EXIT_CODES = {
    "ProblemFormatError": EXIT_PARSE,
    "DimensionMismatchError": EXIT_DIMENSION,
    "NumericalFailureError": EXIT_NUMERICAL,
    "IndexTooLargeError": EXIT_NUMERICAL,
}


def test_every_error_type_has_an_exit_code():
    subclasses = {name for name in errors.__all__ if name != "FuzzyLinSysError"}
    assert set(DOCUMENTED_EXIT_CODES) == subclasses
    assert {kind.__name__: code for kind, code in cli._EXIT_CODES.items()} == DOCUMENTED_EXIT_CODES


@pytest.mark.parametrize("name", sorted(DOCUMENTED_EXIT_CODES))
def test_handler_error_maps_to_its_exit_code(capsys, monkeypatch, name):
    def handler(args):
        raise getattr(errors, name)("handler failed")

    monkeypatch.setattr(cli, "cmd_solve", handler)
    code, out, err = run_cli(capsys, "solve", str(FIXTURES / "consistent_2x2.json"))
    assert code == DOCUMENTED_EXIT_CODES[name]
    assert out == "" and err == "error: handler failed\n"


def test_format_affine():
    assert format_affine(AffineFn(-0.75, 0.25)) == "-0.75 + 0.25*r"
    assert format_affine(AffineFn(1.5, -0.5)) == "1.5 - 0.5*r"
    assert format_affine(AffineFn(2.0, 0.0)) == "2 + 0*r"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzylinsys", "solve",
         str(FIXTURES / "consistent_2x2.json"), "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["overall"] == "strong"


def _source_env():
    """The environment with PYTHONPATH at the source tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_with_closed_stdout(args):
    """Run ``args`` with PYTHONPATH at the source tree, stdout block-buffered
    and a pipe whose reader is gone before anything is written; return (exit
    code, stderr)."""
    env = _source_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(args, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


def test_closed_stdout_exits_quietly():
    # the reader of the report is gone before it is written
    code, err = _run_with_closed_stdout(
        [sys.executable, "-m", "fuzzylinsys", "solve", str(FIXTURES / "consistent_3x3.json")])
    assert code == EXIT_BROKEN_PIPE
    assert err == b""


def test_closed_stdout_keeps_the_error_code():
    # a failure after part of the output was written keeps its own exit code
    script = (
        "import sys\n"
        "from fuzzylinsys import cli, fls\n"
        "def solve(*args, **kwargs):\n"
        "    print('partial report')\n"
        "    raise cli.NumericalFailureError('late failure')\n"
        "fls.solve = solve\n"
        "sys.exit(cli.main(['solve', sys.argv[1]]))\n"
    )
    code, err = _run_with_closed_stdout(
        [sys.executable, "-c", script, str(FIXTURES / "consistent_3x3.json")])
    assert code == EXIT_NUMERICAL
    assert err == b"error: late failure\n"


def test_overflow_leaves_one_line_on_stderr(tmp_path):
    # the inverse and the solution of a subnormal A overflow: no warning is
    # printed, only the error
    rec = {"lower": [1, 1], "upper": [3, -1]}
    a = [[1e-310, 2e-310], [1e-310, 3e-310]]
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"a": a, "y": [rec, rec]}))
    env = _source_env()
    for args in (["inverse", str(doc), "--kind", "moore-penrose"], ["solve", str(doc)]):
        proc = subprocess.run([sys.executable, "-m", "fuzzylinsys"] + args,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_NUMERICAL and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_matrix_near_the_float_maximum(tmp_path):
    # its norm overflows, that of its unit-scale copy does not: the core-EP
    # inverse is 2.5e-309 in every entry, printed with no warning, and T of
    # the decomposition, 2e308, is not representable, which the error says
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"a": [[1e308, 1e308], [1e308, 1e308]]}))
    env = _source_env()
    proc = subprocess.run([sys.executable, "-m", "fuzzylinsys", "inverse", str(doc),
                           "--kind", "core-ep"], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    np.testing.assert_allclose(np.array(rows, dtype=float), np.full((2, 2), 1e-308 / 4),
                               rtol=1e-5, atol=0.0)
    proc = subprocess.run([sys.executable, "-m", "fuzzylinsys", "inverse", str(doc),
                           "--show-decomposition"], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "overflows" in proc.stderr


def test_subnormal_core_warns_of_nothing(tmp_path):
    # a warning filter set in the interpreter reaches what pytest's does not:
    # the staircase of this matrix meets a subnormal core at its second step
    rec = {"lower": [1, 1], "upper": [3, -1]}
    a = [[1e-320, 1.0], [0.0, 0.0]]
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"a": a, "y": [rec, rec]}))
    env = _source_env()
    for args in (["inverse", str(doc), "--show-decomposition"],
                 ["solve", str(doc), "--format", "json"]):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fuzzylinsys"]
                              + args, capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK and proc.stderr == ""


def test_solve_does_not_import_scipy_linalg():
    # the package imports numpy and the standard library alone (a static
    # check in test_hygiene.py); at run time, importing it, solving and
    # showing a core-EP decomposition load no scipy.linalg either.
    script = (
        "import sys\n"
        "import fuzzylinsys\n"
        "from fuzzylinsys.cli import main\n"
        "codes = (main(['solve', sys.argv[1], '--format', 'json']),\n"
        "         main(['inverse', sys.argv[2], '--show-decomposition']))\n"
        "print(*codes, 'scipy.linalg' in sys.modules)\n"
    )
    env = _source_env()
    proc = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / "consistent_2x2.json"),
         str(FIXTURES / "associated_4x4.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 False"
