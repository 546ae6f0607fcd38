import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuzzylinsys import DEFAULT_TOLERANCES, FlsProblem, TolerancePolicy, ginv, solve
from fuzzylinsys.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DIMENSION,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    format_affine,
    load_problem,
    main,
    report_from_dict,
    report_to_dict,
)
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

    def test_huge_entries_inconsistent(self, capsys, tmp_path):
        doc = tmp_path / "p.json"
        rec = {"lower": [1, 0], "upper": [2, 0]}
        doc.write_text(json.dumps({"a": [[1e110, 1e110], [0, 0]], "y": [rec, rec]}))
        code, out, _ = run_cli(capsys, "solve", str(doc))
        assert code == EXIT_OK
        assert out.splitlines()[0] == (
            "classification : Inconsistent  (rank S = 2, rank [S|Y] = 3, index = 1)"
        )

    def test_bad_tolerance_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"), "--rank-tol", "2.0"
        )
        assert code == EXIT_PARSE
        assert "rank_rel_tol" in err

    def test_forced_inverse_on_singular_system(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", str(FIXTURES / "consistent_2x2.json"), "--method", "inverse"
        )
        assert code == EXIT_NUMERICAL
        assert "index" in err


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

    def test_core_on_index_two_matrix(self, capsys, tmp_path):
        doc = tmp_path / "m.json"
        doc.write_text(json.dumps({"a": [[0, 1, 1, 0], [0, 1, 1, 0],
                                         [1, 0, 0, 1], [1, 0, 0, 1]]}))
        code, _, err = run_cli(capsys, "inverse", str(doc), "--kind", "core")
        assert code == EXIT_NUMERICAL
        assert "index" in err

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


def _run_with_closed_stdout(args):
    """Run ``args`` with PYTHONPATH at the source tree, stdout block-buffered
    and a pipe whose reader is gone before anything is written; return (exit
    code, stderr)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
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


def test_solve_does_not_import_scipy_linalg():
    # scipy.linalg is needed only by the Schur-based decomposition and the
    # gesvd fallback, so importing the package and solving leave it unloaded.
    script = (
        "import sys\n"
        "import fuzzylinsys\n"
        "from fuzzylinsys.cli import main\n"
        "code = main(['solve', sys.argv[1], '--format', 'json'])\n"
        "print(code, 'scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / "consistent_2x2.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
