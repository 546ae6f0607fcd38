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
from .fuzzy import AffineFn, FuzzyNumber, Validity
from .ginv import TolerancePolicy

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NUMERICAL = 4

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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (NumericalFailureError, IndexTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


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
    p_solve.add_argument("--rank-tol", type=float, default=None,
                         help="relative singular-value cutoff (default: shape-dependent)")
    p_solve.add_argument("--residual-tol", type=float, default=None)
    p_solve.add_argument("--eq-tol", type=float, default=None)
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
    tol = _tolerances_from_flags(args)
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
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"inverse requires a square matrix, got {a.shape}")
    # every kind and the decomposition share one staircase and one SVD
    powers = ginv.MatrixPowers(a)
    x = _INVERSE_KINDS[args.kind](powers)
    print(f"{args.kind} inverse ({a.shape[0]}x{a.shape[1]}):")
    print(format_matrix(x, args.precision))
    if args.show_decomposition:
        dec = ginv.core_ep_decompose(powers)
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
    a = _parse_matrix_rows(doc["a"], "a")
    if not isinstance(doc["y"], list) or not doc["y"]:
        raise ProblemFormatError("field 'y' must be a nonempty list of fuzzy-number records")
    y = [_parse_fuzzy_record(rec, i) for i, rec in enumerate(doc["y"])]
    return fls.FlsProblem(a=a, y=y)


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
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ProblemFormatError(f"field {name!r} has ragged rows")
    if width == 0:
        raise ProblemFormatError(f"field {name!r} has empty rows")
    for r in rows:
        for v in r:
            _require_number(v, name)
    return np.array(rows, dtype=float)


def _parse_fuzzy_record(rec, i: int) -> FuzzyNumber:
    if not isinstance(rec, dict):
        raise ProblemFormatError(f"y[{i}] must be an object with 'lower' and 'upper'")
    reserved = [k for k in _RESERVED_KEYS if k in rec]
    if reserved:
        raise ProblemFormatError(
            f"y[{i}] uses the reserved sampled-grid encoding ({reserved[0]!r}); "
            "only affine endpoints [c0, c1] are supported"
        )
    if set(rec) != {"lower", "upper"}:
        raise ProblemFormatError(f"y[{i}] must have exactly the fields 'lower' and 'upper'")
    return FuzzyNumber(
        lower=_parse_affine(rec["lower"], f"y[{i}].lower"),
        upper=_parse_affine(rec["upper"], f"y[{i}].upper"),
    )


def _parse_affine(obj, name: str) -> AffineFn:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ProblemFormatError(f"{name} must be a two-element list [c0, c1]")
    for v in obj:
        _require_number(v, name)
    return AffineFn(float(obj[0]), float(obj[1]))


def _require_number(v, name: str):
    try:
        number = not isinstance(v, bool) and isinstance(v, (int, float)) and isfinite(v)
    except OverflowError:  # an integer beyond the float range
        number = False
    if not number:
        raise ProblemFormatError(f"{name} contains a non-numeric or non-finite entry: {v!r}")


def _tolerances_from_flags(args) -> TolerancePolicy:
    kwargs = {}
    if args.rank_tol is not None:
        kwargs["rank_rel_tol"] = args.rank_tol
    if args.residual_tol is not None:
        kwargs["residual_tol"] = args.residual_tol
    if args.eq_tol is not None:
        kwargs["equality_tol"] = args.eq_tol
    try:
        return TolerancePolicy(**kwargs)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc


# -- report documents --------------------------------------------------------

def report_to_dict(report: fls.SolveReport, tol: TolerancePolicy) -> dict:
    """Serializable form of a report; floats keep full round-trip precision."""
    return {
        "classification": {
            "kind": report.classification.kind,
            "rank_s": report.classification.rank_s,
            "rank_aug": report.classification.rank_aug,
            "index_s": report.classification.index_s,
        },
        "method": report.method,
        "crisp": {
            "x0": [float(v) for v in report.crisp_x0],
            "x1": [float(v) for v in report.crisp_x1],
        },
        "fuzzy": [
            {
                "lower": [fn.lower.c0, fn.lower.c1],
                "upper": [fn.upper.c0, fn.upper.c1],
            }
            for fn in report.fuzzy_x
        ],
        "verdicts": [
            {"valid": v.is_valid, "violated": list(v.violations)} for v in report.verdicts
        ],
        "overall": "strong" if report.strong else "weak",
        "is_generalized": report.is_generalized,
        "residual": float(report.residual),
        "tolerances": {
            "rank_rel_tol": tol.rank_rel_tol,
            "residual_tol": tol.residual_tol,
            "equality_tol": tol.equality_tol,
        },
    }


def report_from_dict(doc: dict) -> tuple[fls.SolveReport, TolerancePolicy]:
    """Inverse of :func:`report_to_dict`."""
    cls = fls.Classification(
        kind=doc["classification"]["kind"],
        rank_s=doc["classification"]["rank_s"],
        rank_aug=doc["classification"]["rank_aug"],
        index_s=doc["classification"]["index_s"],
    )
    fuzzy_x = [
        FuzzyNumber(
            lower=AffineFn(*rec["lower"]),
            upper=AffineFn(*rec["upper"]),
        )
        for rec in doc["fuzzy"]
    ]
    verdicts = [Validity(tuple(v["violated"])) for v in doc["verdicts"]]
    report = fls.SolveReport(
        classification=cls,
        method=doc["method"],
        crisp_x0=np.array(doc["crisp"]["x0"], dtype=float),
        crisp_x1=np.array(doc["crisp"]["x1"], dtype=float),
        fuzzy_x=fuzzy_x,
        verdicts=verdicts,
        residual=doc["residual"],
        is_generalized=doc["is_generalized"],
    )
    t = doc["tolerances"]
    tol = TolerancePolicy(
        rank_rel_tol=t["rank_rel_tol"],
        residual_tol=t["residual_tol"],
        equality_tol=t["equality_tol"],
    )
    return report, tol


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
        tag = "valid" if verdict.is_valid else (
            "invalid{" + ",".join(str(c) for c in verdict.violations) + "}"
        )
        lines.append(
            f"  x~{i} = ({format_affine(fn.lower)}, "
            f"{format_affine(fn.upper)})   {tag}"
        )
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
