"""Span tracer that wraps the package's public functions from outside.

``Tracer.install()`` replaces module attributes (the package's public
functions and the ``numpy.linalg`` / ``scipy.linalg`` entry points it calls)
with wrappers that record one span per call: name, start, end, parent span
and operation id.  The package looks these names up at call time, so its own
internal calls are traced too.  Spans stay in memory until ``write``.
``uninstall`` restores the originals.

Run as a script, it traces one CLI invocation in a fresh process:
``python tracer.py SPANS.json solve FILE --format json``.
"""

import json
import sys
import time

# (module, attribute, span name). fls binds ``validity`` by name at import.
PACKAGE_TARGETS = (
    ("fuzzylinsys.fls", "solve", "fls.solve"),
    ("fuzzylinsys.fls", "build_associated", "fls.build_associated"),
    ("fuzzylinsys.fls", "classify", "fls.classify"),
    ("fuzzylinsys.fls", "core_ep_from_blocks", "fls.core_ep_from_blocks"),
    ("fuzzylinsys.fls", "validity", "fuzzy.validity"),
    ("fuzzylinsys.ginv", "rank", "ginv.rank"),
    ("fuzzylinsys.ginv", "matrix_index", "ginv.matrix_index"),
    ("fuzzylinsys.ginv", "in_column_space", "ginv.in_column_space"),
    ("fuzzylinsys.ginv", "core_ep_via_formula", "ginv.core_ep_via_formula"),
    ("fuzzylinsys.ginv", "moore_penrose", "ginv.moore_penrose"),
    ("fuzzylinsys.ginv", "one_three_inverse", "ginv.one_three_inverse"),
    ("fuzzylinsys.ginv", "core_ep_decompose", "ginv.core_ep_decompose"),
    ("fuzzylinsys.ginv", "core_ep_via_decomposition", "ginv.core_ep_via_decomposition"),
    ("fuzzylinsys.ginv", "core_inverse", "ginv.core_inverse"),
    ("fuzzylinsys.cli", "load_problem", "cli.load_problem"),
    ("fuzzylinsys.cli", "report_to_dict", "cli.report_to_dict"),
    ("fuzzylinsys.cli", "format_report_text", "cli.format_report_text"),
)


def _square_work(a, *_, **__):
    n = a.shape[-1]
    return n * n * n


def _rect_work(a, *_, **__):
    m, n = a.shape[-2:]
    return m * n * min(m, n)


# LAPACK entry points; work is m*n*min(m, n) of the matrix argument, computed
# from shapes (not measured).
LAPACK_TARGETS = (
    ("numpy.linalg", "svd", "lapack.svd", _rect_work),
    ("numpy.linalg", "lstsq", "lapack.lstsq", _rect_work),
    ("numpy.linalg", "solve", "lapack.solve", _square_work),
    ("numpy.linalg", "inv", "lapack.inv", _square_work),
    ("numpy.linalg", "eigvals", "lapack.eigvals", _square_work),
    ("scipy.linalg", "schur", "lapack.schur", _square_work),
)

SPAN_NAMES = tuple(t[2] for t in PACKAGE_TARGETS) + tuple(t[2] for t in LAPACK_TARGETS) + (
    "cli.json_dumps",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, op, start_ns, end_ns, work]
        self._stack = []
        self._saved = []
        self.op = -1

    def span(self, name, fn, work=None):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, time.perf_counter_ns(), 0,
                   work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = time.perf_counter_ns()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, json_module=None):
        """Wrap every target; ``json_module`` (the CLI's ``json``) gets its ``dumps`` traced."""
        import importlib

        targets = [(m, a, n, None) for m, a, n in PACKAGE_TARGETS] + list(LAPACK_TARGETS)
        for mod_name, attr, name, work in targets:
            mod = importlib.import_module(mod_name)
            self._replace(mod, attr, self.span(name, getattr(mod, attr), work))
        if json_module is not None:
            self._replace(json_module, "dumps", self.span("cli.json_dumps", json_module.dumps))

    def _replace(self, mod, attr, value):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def write_spans(path, spans):
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "parent", "op", "start_ns", "end_ns", "work"],
                   "spans": spans}, fh)


def summarize(spans, ops):
    """Per-span-name ``calls``, ``work`` and ``self_ms`` (duration minus the
    time covered by direct children), each divided by ``ops``."""
    child_ns = [0] * len(spans)
    for name, parent, _op, start, end, _work in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {name: {"calls": 0, "work": 0, "self_ms": 0.0} for name in SPAN_NAMES}
    for i, (name, _parent, _op, start, end, work) in enumerate(spans):
        if name not in out:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["work"] += work
        entry["self_ms"] += (end - start - child_ns[i]) / 1e6
    for entry in out.values():
        entry["calls"] /= ops
        entry["work"] /= ops
        entry["self_ms"] /= ops
    return out


def _main(argv):
    """Run one CLI invocation with every target traced; write its spans."""
    spans_path, cli_argv = argv[0], argv[1:]
    from fuzzylinsys import cli

    tracer = Tracer()
    tracer.install(json_module=cli.json)
    tracer.op = 0
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        write_spans(spans_path, tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
