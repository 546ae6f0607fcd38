"""The benchmark's tracer wraps package functions by (module, attribute);
every name it wraps must exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_package_name_resolves():
    # executed from its source text: nothing is imported from or written to bench/
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    targets = namespace["PACKAGE_TARGETS"]
    assert targets
    missing = [(module, attr) for module, attr, _ in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
