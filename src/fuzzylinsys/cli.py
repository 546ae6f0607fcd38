"""Command-line front end.

Two subcommands: ``solve`` runs the full pipeline on a problem file and emits
a report (text or JSON), ``inverse`` exposes the generalized-inverse engine on
a bare matrix file.  Input documents are JSON with explicit field names; see
the README for the schemas.

Exit codes: 0 success, 1 stdout closed before the report was written (and
no other error), 2 parse error, 3 dimension mismatch, 4 numerical failure.
Diagnostics go to stderr, reports to stdout (or ``--output``).
"""

import argparse
import json
import os
import sys
from math import isfinite

import numpy as np

from . import fls, ginv
from .errors import (
    DimensionMismatchError,
    IndexTooLargeError,
    NumericalFailureError,
    ProblemFormatError,
)
from .fuzzy import AffineFn, FuzzyNumber
from .ginv import TolerancePolicy

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NUMERICAL = 4

_EXIT_CODES = {ProblemFormatError: EXIT_PARSE, DimensionMismatchError: EXIT_DIMENSION,
               NumericalFailureError: EXIT_NUMERICAL, IndexTooLargeError: EXIT_NUMERICAL}

_METHOD_FLAGS = {
    "auto": None,
    "inverse": fls.METHOD_INVERSE,
    "core-ep": fls.METHOD_CORE_EP,
    "method2-i": fls.METHOD_2I,
    "method2-ii": fls.METHOD_2II,
}

_INVERSE_KINDS = {
    "core-ep": ginv.core_ep_via_decomposition,
    "core": ginv.core_inverse,
    "moore-penrose": ginv.moore_penrose,
}

# Keys reserved for a future sampled-grid fuzzy-number encoding; rejected
# explicitly so the diagnostic names the unsupported format.
_RESERVED_KEYS = ("samples", "grid", "r")

# Significant digits of the numbers in a text report.
_PRECISION = 6


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    code = EXIT_OK
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader went away; the flush at exit must not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code or EXIT_BROKEN_PIPE
    return code


def _run(args) -> int:
    """Run the subcommand, mapping the package's errors to exit codes."""
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzylinsys",
        description="Solve fuzzy linear systems via the core-EP inverse of the "
        "associated crisp system.",
    )
    sub = parser.add_subparsers(required=True)

    p_solve = sub.add_parser("solve", help="solve a fuzzy linear system from a problem file")
    p_solve.add_argument("input", help="path to a JSON problem file")
    p_solve.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="auto")
    # each tolerance flag stores into the TolerancePolicy field it sets
    p_solve.add_argument("--rank-tol", dest="rank_rel_tol", type=float, default=None,
                         help="relative singular-value cutoff (default: shape-dependent)")
    p_solve.add_argument("--residual-tol", dest="residual_tol", type=float, default=None)
    p_solve.add_argument("--eq-tol", dest="equality_tol", type=float, default=None)
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    p_solve.add_argument("--output", default=None, help="write the report here instead of stdout")
    p_solve.set_defaults(handler=cmd_solve)

    p_inv = sub.add_parser("inverse", help="print a generalized inverse of a matrix file")
    p_inv.add_argument("input", help="path to a JSON matrix file")
    p_inv.add_argument("--kind", choices=sorted(_INVERSE_KINDS), default="core-ep")
    p_inv.add_argument("--show-decomposition", action="store_true",
                       help="also print the U/T/S-block/N factors and the matrix index")
    p_inv.add_argument("--precision", type=int, default=6,
                       help="significant digits for printed entries")
    p_inv.set_defaults(handler=cmd_inverse)
    return parser


def cmd_solve(args) -> int:
    problem = load_problem(args.input)
    tol = _tolerance_policy({key: value for key, value in vars(args).items()
                             if key in TolerancePolicy.__dataclass_fields__ and value is not None})
    report = fls.solve(problem, tol, method=_METHOD_FLAGS[args.method])
    if args.format == "json":
        try:  # RFC 8259 has no Infinity or NaN
            text = json.dumps(report_to_dict(report, tol), indent=2, allow_nan=False)
        except ValueError as exc:
            raise NumericalFailureError(f"the report is not valid JSON: {exc}") from exc
    else:
        text = format_report_text(report, tol)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ProblemFormatError(f"cannot write {args.output}: {exc}") from exc
    else:
        print(text)
    return EXIT_OK


def cmd_inverse(args) -> int:
    if not 1 <= args.precision <= 17:
        raise ProblemFormatError(f"--precision must be in 1..17, got {args.precision}")
    a = load_matrix(args.input)
    # every kind and the decomposition share one staircase and one SVD; it
    # raises DimensionMismatchError for a matrix that is not square
    powers = ginv.MatrixPowers(a)
    x = _INVERSE_KINDS[args.kind](powers)
    # all is computed before anything is printed, so a failure prints nothing
    dec = ginv.core_ep_decompose(powers) if args.show_decomposition else None
    print(f"{args.kind} inverse ({a.shape[0]}x{a.shape[1]}):")
    print(format_matrix(x, args.precision))
    if dec is not None:
        print(f"\ncore-EP decomposition (index = {dec.k}):")
        for name, block in (("U", dec.u), ("T", dec.t),
                            ("S-block", dec.s_block), ("N", dec.n_block)):
            print(f"{name}:")
            print(format_matrix(block, args.precision))
    return EXIT_OK


# -- input documents ---------------------------------------------------------

def load_problem(path: str) -> fls.FlsProblem:
    """Parse a problem file: ``{"a": rows, "y": [{"lower": [c0, c1], "upper": [c0, c1]}, ...]}``."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    missing = {"a", "y"} - doc.keys()
    if missing:
        raise ProblemFormatError(f"problem document lacks field(s): {', '.join(sorted(missing))}")
    return fls.FlsProblem(a=_parse_matrix_rows(doc["a"], "a"),
                          y=_parse_fuzzy_records(doc["y"]))


def load_matrix(path: str) -> np.ndarray:
    """Parse a matrix file: ``{"a": rows}``."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "a" not in doc:
        raise ProblemFormatError('matrix document must be a JSON object with field "a"')
    return _parse_matrix_rows(doc["a"], "a")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals past the interpreter's digit limit; RecursionError, nesting
    # deeper than the parser's stack
    except (ValueError, RecursionError) as exc:
        raise ProblemFormatError(f"{path} is not valid JSON: {exc}") from exc


def _parse_matrix_rows(rows, name: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ProblemFormatError(f"field {name!r} must be a list of rows")
    if not rows[0]:
        raise ProblemFormatError(f"field {name!r} has empty rows")
    ragged = f"as long as {name}[0]: field {name!r} has ragged rows"
    return np.array([_numbers(r, f"{name}[{i}]", len(rows[0]), ragged) for i, r in enumerate(rows)])


def _parse_fuzzy_records(recs) -> list[FuzzyNumber]:
    if not isinstance(recs, list) or not recs:
        raise ProblemFormatError("field 'y' must be a nonempty list of fuzzy-number records")
    return [_parse_fuzzy_record(rec, f"y[{i}]") for i, rec in enumerate(recs)]


def _parse_fuzzy_record(rec, name: str) -> FuzzyNumber:
    reserved = [k for k in _RESERVED_KEYS if isinstance(rec, dict) and k in rec]
    if reserved:
        raise ProblemFormatError(f"{name} uses the reserved sampled-grid encoding "
                                 f"({reserved[0]!r}); only affine endpoints [c0, c1] are supported")
    rec = _record(rec, name, ("lower", "upper"))
    lower, upper = (_numbers(rec[end], f"{name}.{end}", 2, "a two-element list [c0, c1]")
                    for end in ("lower", "upper"))
    return FuzzyNumber(AffineFn(*lower), AffineFn(*upper))


def _record(obj, name: str, fields) -> dict:
    """``obj`` if it is an object with exactly the given fields."""
    if not isinstance(obj, dict) or set(obj) != set(fields):
        raise ProblemFormatError(f"{name} must be an object with exactly the fields {list(fields)}")
    return obj


def _numbers(obj, name: str, length: int, form: str) -> list[float]:
    """``obj`` as floats if it is a list of ``length`` finite numbers."""
    if not isinstance(obj, list) or len(obj) != length:
        raise ProblemFormatError(f"{name} must be {form}")
    return [float(_require_number(v, name)) for v in obj]


def _require_number(v, name: str):
    try:
        number = not isinstance(v, bool) and isinstance(v, (int, float)) and isfinite(v)
    except OverflowError:  # an integer beyond the float range
        number = False
    if not number:
        raise ProblemFormatError(f"{name} contains a non-numeric or non-finite entry: {v!r}")
    return v


def _require_count(v, name: str, low: int, high: int):
    if type(v) is not int or not low <= v <= high:
        raise ProblemFormatError(f"{name} must be an integer in {low}..{high}, got {v!r}")


def _tolerance_policy(fields: dict) -> TolerancePolicy:
    try:
        return TolerancePolicy(**fields)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc


# -- report documents --------------------------------------------------------

def report_to_dict(report: fls.SolveReport, tol: TolerancePolicy) -> dict:
    """Serializable form of a report; floats keep full round-trip precision."""
    return {
        "classification": dict(vars(report.classification)),
        "method": report.method,
        "crisp": {"x0": report.crisp_x0.tolist(), "x1": report.crisp_x1.tolist()},
        "fuzzy": [{"lower": [fn.lower.c0, fn.lower.c1], "upper": [fn.upper.c0, fn.upper.c1]}
                  for fn in report.fuzzy_x],
        "verdicts": [{"valid": v.is_valid, "violated": list(v.violations)}
                     for v in report.verdicts],
        "overall": "strong" if report.strong else "weak",
        "is_generalized": report.is_generalized,
        "residual": float(report.residual),
        "tolerances": dict(vars(tol)),
    }


def report_from_dict(doc: dict) -> tuple[fls.SolveReport, TolerancePolicy]:
    """Inverse of :func:`report_to_dict`.

    Only the fields that a report does not derive are read: the ranks and
    index of ``classification``, ``method``, ``crisp``, ``is_generalized``,
    ``residual`` and ``tolerances``, numbers by the parsers of
    :func:`load_problem`; n is half the length of ``crisp.x0``.
    ``classification.kind``, ``fuzzy``, ``verdicts`` and ``overall`` are
    rebuilt from them by the package's own functions
    (:meth:`fls.Classification.of`, :func:`fls.fuzzy_solution`), so a
    report states one solution.  A document that :func:`report_to_dict`
    could not have written raises
    :class:`~fuzzylinsys.errors.ProblemFormatError` naming the field: a
    missing or unknown field, a value of the wrong type, a non-finite number,
    vectors whose lengths disagree, a method the solver does not report, a
    rank or index out of range, or each field that differs from what
    :func:`report_to_dict` writes for the rebuilt report, under a
    type-strict comparison (``true`` is not ``1``; JSON keeps every bit of a
    float, so floats compare exactly).
    """
    doc = _record(doc, "report", ("classification", "method", "crisp", "fuzzy", "verdicts",
                                  "overall", "is_generalized", "residual", "tolerances"))
    crisp = _record(doc["crisp"], "crisp", ("x0", "x1"))
    x = crisp["x0"]
    order = len(x) if isinstance(x, list) and x and len(x) % 2 == 0 else -1  # 2n; -1 is refused
    x0, x1 = (np.array(_numbers(crisp[key], f"crisp.{key}", order,
                                "a list of 2n numbers, n >= 1, x0 and x1 of one length"))
              for key in ("x0", "x1"))
    cls = _record(doc["classification"], "classification", fls.Classification.__dataclass_fields__)
    _require_count(cls["rank_s"], "classification.rank_s", 0, order)
    _require_count(cls["rank_aug"], "classification.rank_aug", cls["rank_s"], cls["rank_s"] + 2)
    _require_count(cls["index_s"], "classification.index_s", 0, order // 2)
    if doc["method"] is None or doc["method"] not in _METHOD_FLAGS.values():
        raise ProblemFormatError(f"method must name a solver method, got {doc['method']!r}")
    if _require_number(doc["residual"], "residual") < 0:
        raise ProblemFormatError(f"residual must be nonnegative, got {doc['residual']!r}")
    tol = _record(doc["tolerances"], "tolerances", TolerancePolicy.__dataclass_fields__)
    for field, value in tol.items():
        if not (field == "rank_rel_tol" and value is None):  # None: the shape-dependent cutoff
            _require_number(value, f"tolerances.{field}")
    tol = _tolerance_policy(tol)
    report = fls.SolveReport(
        fls.Classification.of(cls["rank_s"], cls["rank_aug"], cls["index_s"], order),
        doc["method"], x0, x1, *fls.fuzzy_solution(x0, x1, tol), doc["residual"],
        bool(doc["is_generalized"]))  # a non-boolean differs from the bool it becomes
    differ = list(_differences(doc, report_to_dict(report, tol)))
    if differ:
        raise ProblemFormatError(f"report field(s) {', '.join(differ)} differ from what its "
                                 "crisp solution, ranks and tolerances give")
    return report, tol


def _differences(got, want, name=""):
    """The path of each field of the document ``got`` that is not as in
    ``want``, such as ``fuzzy[0].lower``: a list of another length or an
    object with other fields is named whole, and other values must have the
    same ``repr``, which tells the JSON types apart (``True``, ``1``,
    ``1.0``) and every bit of a float."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        for key in want:
            yield from _differences(got[key], want[key], f"{name}.{key}" if name else key)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _differences(g, w, f"{name}[{i}]")
    elif repr(got) != repr(want):
        yield name


def format_report_text(report: fls.SolveReport, tol: TolerancePolicy) -> str:
    cls = report.classification
    lines = [
        f"classification : {cls.kind}  "
        f"(rank S = {cls.rank_s}, rank [S|Y] = {cls.rank_aug}, index = {cls.index_s})",
        f"method         : {report.method}",
        f"generalized    : {'yes' if report.is_generalized else 'no'}",
        f"overall        : {'strong' if report.strong else 'weak'}",
        f"residual       : {report.residual:.{_PRECISION}g}",
        "",
        "fuzzy solution (r in [0, 1]):",
    ]
    for i, (fn, verdict) in enumerate(zip(report.fuzzy_x, report.verdicts), start=1):
        clauses = ",".join(map(str, verdict.violations))
        tag = f"invalid{{{clauses}}}" if clauses else "valid"
        lines.append(f"  x~{i} = ({format_affine(fn.lower)}, {format_affine(fn.upper)})   {tag}")
    lines += [
        "",
        "crisp solution X(r) = x0 + r*x1:",
        "  x0 = [" + ", ".join(f"{v:.{_PRECISION}g}" for v in report.crisp_x0) + "]",
        "  x1 = [" + ", ".join(f"{v:.{_PRECISION}g}" for v in report.crisp_x1) + "]",
        "",
        "tolerances: rank_rel_tol="
        + ("auto" if tol.rank_rel_tol is None else f"{tol.rank_rel_tol:g}")
        + f", residual_tol={tol.residual_tol:g}, equality_tol={tol.equality_tol:g}",
    ]
    return "\n".join(lines)


def format_affine(fn: AffineFn) -> str:
    sign = "-" if fn.c1 < 0 else "+"
    return f"{fn.c0:.{_PRECISION}g} {sign} {abs(fn.c1):.{_PRECISION}g}*r"


def format_matrix(a: np.ndarray, precision: int = 6) -> str:
    if a.size == 0:
        return f"  (empty, shape {a.shape[0]}x{a.shape[1]})"
    cells = [[f"{v:.{precision}g}" for v in row] for row in np.atleast_2d(a)]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  " + "  ".join(c.rjust(width) for c in row) for row in cells)


if __name__ == "__main__":
    sys.exit(main())
