"""The whole ``solve`` command held to its contract on random problem files:
it exits 0 with a report that the codec reads back and whose residual
``verify_solution`` reproduces, or it names one cause of failure from a fixed
list, with the exit code of that failure."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "T block of the core-EP decomposition overflows",
    "core-EP formula: A^k underflows",
    "core inverse failed its defining equation",
    "core inverse requires matrix index <= 1",
    "block triangularization does not reconstruct the input",
    "rank sequence did not stabilize",
    "linear solve failed",
    "SVD failed",
)

_KINDS = ("gaussian", "integer", "repeated-column", "strictly-upper")


def _matrix(rng, kind, n):
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


def _assert_contract(tmp_path_factory, a, y, method):
    """Run ``solve`` on the problem ``a``, with y's rows the records
    ``[l0, l1, u0, u1]``, and check its contract."""
    path = tmp_path_factory.getbasetemp() / "contract.json"
    path.write_text(json.dumps({"a": a.tolist(), "y": [
        {"lower": [l0, l1], "upper": [u0, u1]} for l0, l1, u0, u1 in y.tolist()]}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", str(path), "--format", "json", "--method", method])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DIMENSION, EXIT_NUMERICAL)
    if code != EXIT_OK:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1
        assert lines[0].startswith("error: ")
        assert lines[0][len("error: "):].startswith(FAILURE_CAUSES), lines[0]
        return
    assert err.getvalue() == ""
    doc = json.loads(out.getvalue())
    report, tol = cli.report_from_dict(doc)
    assert cli.report_to_dict(report, tol) == doc
    residual = verify_solution(build_associated(cli.load_problem(str(path))), report, tol)
    assert residual == report.residual
