"""The ``solve`` and ``inverse`` commands held to their contract on random
input files: ``solve`` exits 0 with a report that the codec reads back and
whose residual ``verify_solution`` reproduces, ``inverse`` exits 0 with
nothing on stderr, or either names one cause of failure from a fixed list,
with the exit code of that failure and nothing on stdout."""

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _source_env

from fuzzylinsys import build_associated, cli, verify_solution
from fuzzylinsys.cli import EXIT_DIMENSION, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE

# The opening of every message of a NumericalFailureError or an
# IndexTooLargeError that the package raises; tests/test_hygiene.py fails on
# any other.
FAILURE_CAUSES = (
    "the solution overflows the floating-point range",
    "exact route: the solution underflows the floating-point range",
    "exact route left residual",
    "direct inversion requires matrix index 0",
    "the report is not valid JSON",
    "core-EP inverse overflows",
    "core inverse overflows",
    "Moore-Penrose inverse overflows",
    "matrix power overflows",
    "T block of the core-EP decomposition overflows",
    "S block of the core-EP decomposition overflows",
    "N block of the core-EP decomposition overflows",
    "core-EP formula: A^k underflows",
    "core inverse failed its defining equation",
    "core inverse requires matrix index <= 1",
    "block triangularization does not reconstruct the input",
    "linear solve failed",
    "SVD failed",
)

_KINDS = ("gaussian", "integer", "repeated-column", "strictly-upper")


def _matrix(rng, kind, n):
    if kind == "low-rank":  # rank 0..n-1
        r = int(rng.integers(0, n))
        return rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    if kind == "integer":
        return rng.integers(-4, 5, (n, n)).astype(float)
    a = rng.standard_normal((n, n))
    if kind == "repeated-column" and n > 1:
        a[:, -1] = a[:, 0]
    elif kind == "strictly-upper":
        a = np.triu(a, 1)
    return a


# A power of two near unit scale or anywhere up to the float range.
_SCALES = st.one_of(st.integers(-8, 8), st.integers(-1000, 1020))

# How a matrix is scaled entry by entry: one power of two per entry, row or
# column, each anywhere from the subnormal range to near the float maximum.
_SPREADS = {"entry": lambda n: (n, n), "row": lambda n: (n, 1), "column": lambda n: (1, n)}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), kind=st.sampled_from(_KINDS),
       pa=_SCALES, py=_SCALES, method=st.sampled_from(sorted(cli._METHOD_FLAGS)))
def test_solve_command_keeps_its_contract(tmp_path_factory, seed, n, kind, pa, py, method):
    rng = np.random.default_rng(seed)
    a = np.ldexp(_matrix(rng, kind, n), pa)
    y = np.ldexp(rng.standard_normal((n, 4)), py)
    _assert_contract(tmp_path_factory, a, y, method)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), kind=st.sampled_from(_KINDS),
       spread=st.sampled_from(sorted(_SPREADS)), py=_SCALES,
       method=st.sampled_from(sorted(cli._METHOD_FLAGS)))
def test_solve_command_keeps_its_contract_at_mixed_scales(tmp_path_factory, seed, n, kind,
                                                          spread, py, method):
    rng = np.random.default_rng(seed)
    a = np.ldexp(_matrix(rng, kind, n), rng.integers(-1070, 1015, _SPREADS[spread](n)))
    y = np.ldexp(rng.standard_normal((n, 4)), py)
    _assert_contract(tmp_path_factory, a, y, method)


@pytest.mark.parametrize("method", sorted(cli._METHOD_FLAGS))
def test_solve_command_keeps_its_contract_on_a_subnormal_core(tmp_path_factory, method):
    # the second step of the staircase of A has a subnormal core
    a = np.array([[1e-320, 1.0], [0.0, 0.0]])
    _assert_contract(tmp_path_factory, a, np.array([[1.0, 1.0, 3.0, -1.0]] * 2), method)


# A rank-2 matrix of order 5 with largest entry 1.7e308, whose T block
# overflows, and a nilpotent one whose N block does.
NEAR_MAXIMUM = {
    "T": (np.array([[1, 2], [-3, 2], [2, 0], [1, 2], [0, -3]], dtype=float)
          @ np.array([[1, 1, -2, 0, -1], [-3, 0, -1, -3, -1]], dtype=float)) * (1.7e308 / 9),
    "N": 1.7e308 * np.array([[1.0, -1.0], [1.0, -1.0]]),
}


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
       kind=st.sampled_from(_KINDS + ("low-rank",)),
       spread=st.sampled_from(sorted(_SPREADS) + ["matrix", "peak"]),
       inverse=st.sampled_from(sorted(cli._INVERSE_KINDS)), show=st.booleans())
def test_inverse_command_keeps_its_contract(tmp_path_factory, seed, n, kind, spread, inverse,
                                            show):
    # a power of two per matrix, entry, row or column, up to just below
    # 2**1023 times a largest entry in [1/2, 1), or a largest entry of 1.7e308
    rng = np.random.default_rng(seed)
    a = _matrix(rng, kind, n)
    peak = np.abs(a).max() or 1.0
    if spread == "peak":
        a = a / peak * 1.7e308
    else:
        shape = (1, 1) if spread == "matrix" else _SPREADS[spread](n)
        a = np.ldexp(a, rng.integers(-1070, 1024, shape) - np.frexp(peak)[1])
    _assert_inverse_contract(tmp_path_factory, a, inverse, show)


# the N matrix is nilpotent of index 2, so it has no core inverse
@pytest.mark.parametrize("inverse", ["core-ep", "moore-penrose"])
@pytest.mark.parametrize("block", sorted(NEAR_MAXIMUM))
def test_inverse_command_names_the_block_that_overflows(tmp_path_factory, block, inverse):
    a = NEAR_MAXIMUM[block]
    assert _assert_inverse_contract(tmp_path_factory, a, inverse, False) is None
    error = _assert_inverse_contract(tmp_path_factory, a, inverse, True)
    assert error == (f"error: {block} block of the core-EP decomposition overflows the "
                     "floating-point range")


def test_inverse_command_warns_of_nothing_near_the_float_maximum(tmp_path):
    # a warning filter set in the interpreter reaches what pytest's does not
    doc = tmp_path / "a.json"
    doc.write_text(json.dumps({"a": NEAR_MAXIMUM["T"].tolist()}))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fuzzylinsys",
                           "inverse", str(doc), "--show-decomposition"],
                          capture_output=True, text=True, env=_source_env())
    assert (proc.returncode, proc.stdout) == (EXIT_NUMERICAL, "")
    assert proc.stderr.splitlines() == [
        "error: T block of the core-EP decomposition overflows the floating-point range"]


def _run_contract(argv, codes):
    """Run the CLI on ``argv`` in process and check that it exits with one of
    ``codes``: with nothing on stderr, or with nothing on stdout and one
    ``error:`` line naming a listed cause.  Return the exit code and stdout,
    or that line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in codes
    if code == EXIT_OK:
        assert err.getvalue() == ""
        return code, out.getvalue()
    lines = err.getvalue().splitlines()
    assert out.getvalue() == "" and len(lines) == 1
    assert lines[0].startswith("error: ")
    assert lines[0][len("error: "):].startswith(FAILURE_CAUSES), lines[0]
    return code, lines[0]


def _assert_inverse_contract(tmp_path_factory, a, inverse, show):
    """Run ``inverse --kind inverse`` on the matrix ``a``, with the
    decomposition if ``show``, check its contract and return its error line
    (None on success)."""
    path = tmp_path_factory.getbasetemp() / "inverse.json"
    path.write_text(json.dumps({"a": a.tolist()}))
    code, text = _run_contract(["inverse", str(path), "--kind", inverse]
                               + ["--show-decomposition"] * show,
                               (EXIT_OK, EXIT_DIMENSION, EXIT_NUMERICAL))
    return None if code == EXIT_OK else text


def _assert_contract(tmp_path_factory, a, y, method):
    """Run ``solve`` on the problem ``a``, with y's rows the records
    ``[l0, l1, u0, u1]``, and check its contract."""
    path = tmp_path_factory.getbasetemp() / "contract.json"
    path.write_text(json.dumps({"a": a.tolist(), "y": [
        {"lower": [l0, l1], "upper": [u0, u1]} for l0, l1, u0, u1 in y.tolist()]}))
    code, text = _run_contract(["solve", str(path), "--format", "json", "--method", method],
                               (EXIT_OK, EXIT_PARSE, EXIT_DIMENSION, EXIT_NUMERICAL))
    if code != EXIT_OK:
        return
    doc = json.loads(text)
    report, tol = cli.report_from_dict(doc)
    assert cli.report_to_dict(report, tol) == doc
    residual = verify_solution(build_associated(cli.load_problem(str(path))), report, tol)
    assert residual == report.residual
