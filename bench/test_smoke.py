"""Smoke test of the benchmark itself (not of the package).

    python -m pytest -q bench

Runs each workload for a few operations, shows that the oracle rejects a
deliberately corrupted solution, and that two traced runs of one seed make
identical LAPACK call counts and computed work.  It asserts no fixed count,
so a change that lowers the counts still passes.  It also keeps in view the
inputs the workloads leave out because the package misjudges them: they are
expected failures here, and an unexpected pass means the workloads can take
them back.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import run
import worker

SRC = os.path.join(run.ROOT, "src")


def run_worker(tmp_path, workload, max_ops, trace=False, seed=3):
    cfg = {"workload": workload, "seed": seed, "seconds": 0, "trace": trace,
           "out_dir": str(tmp_path), "setup_only": False, "max_ops": max_ops}
    return run.run_worker(cfg, run.worker_env())


@pytest.fixture(scope="module")
def package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    worker._import_package()
    worker._import_helpers()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_few_operations_pass_the_oracle(tmp_path, workload):
    res = run_worker(tmp_path, workload, max_ops=3)
    counts = res["counts"]
    assert len(res["latencies"]) == 3
    assert counts["attempted"] == 4  # the warm-up operation is checked too
    assert counts["failed"] == 0, counts["first_failure"]
    assert res["setup_s"] > 0 and res["peak_rss_mb"] > 0


def _corrupt_report(report):
    report.crisp_x0 = report.crisp_x0.copy()
    report.crisp_x0[0] += 1e-3
    return report


def _corrupt_json(text):
    doc = json.loads(text)
    doc["crisp"]["x0"][0] += 1e-3
    return json.dumps(doc)


def _corrupt_text(text):
    head, rest = text.split("  x0 = [", 1)
    first, tail = rest.split(",", 1)
    return f"{head}  x0 = [{float(first) + 1e-3:.6g},{tail}"


def _corrupt_process(out):
    code, stdout, stderr = out
    corrupt = _corrupt_json if stdout.startswith("{") else _corrupt_text
    return code, corrupt(stdout), stderr


@pytest.mark.parametrize("workload, op, corrupt", [
    ("solve-large", 0, _corrupt_report),
    ("solve-small", 0, _corrupt_json),
    ("cli-cold", 0, _corrupt_process),  # a fixture, text report
    ("cli-cold", len(worker.FIXTURE_NAMES), _corrupt_process),  # generated, JSON report
])
def test_corrupted_crisp_x0_counts_as_failure(tmp_path, monkeypatch, package, workload, op,
                                              corrupt):
    for key, value in run.worker_env().items():
        monkeypatch.setenv(key, value)  # for the CLI child process
    wl = worker.make_workload(workload, 4, str(tmp_path))
    case = wl.case(op)
    counts = worker.Counts()
    assert counts.judge(wl, op, case)[1]
    assert not counts.judge(wl, op, case, lambda c: corrupt(wl.run_op(c)))[1]
    assert (counts.attempted, counts.failed, counts.wrong_x) == (2, 1, 1)


# Draws that ``inputs.decisions_clear`` leaves out of the workloads, as
# (rng seed, n, index, consistent, spread), with what the package gets wrong.
LEFT_OUT_DRAWS = [
    pytest.param(([15, 197], 14, 2, True, worker._spread(2)), id="index-too-high",
                 marks=pytest.mark.xfail(strict=True, reason="index 3 reported for 2")),
    pytest.param(([12, 87], 6, 2, True, worker._spread(1)), id="consistent-taken-as-not",
                 marks=pytest.mark.xfail(reason="membership residual over the tolerance")),
    pytest.param(([28, 79], 4, 3, False, worker._spread(1)), id="wrong-solution",
                 marks=pytest.mark.xfail(reason="roundoff counted in rank(A^3)")),
]


def _left_out_case(draw):
    seed, n, k, consistent, spread = draw
    return inputs.draw_system(np.random.default_rng(seed), n, k, consistent, spread) + (
        consistent,)


@pytest.mark.parametrize("draw", [p.values[0] for p in LEFT_OUT_DRAWS])
def test_draws_the_package_misjudges_are_left_out(draw):
    assert not inputs.decisions_clear(*_left_out_case(draw))


@pytest.mark.parametrize("draw", LEFT_OUT_DRAWS)
def test_package_on_left_out_draws(package, draw):
    case = inputs.make_solve_case(*_left_out_case(draw))
    wl = worker.make_workload("solve-small", 1, "")
    assert worker.Counts().judge(wl, 0, (case, worker.fls_problem(case)))[1]


@pytest.mark.xfail(reason="core_ep_decompose raises NumericalFailureError on this index-2 "
                          "matrix with some LAPACK builds: ginv-engine keeps to index 0 and 1")
def test_engine_on_left_out_index(package):
    case = inputs.engine_case(np.random.default_rng([2, 38]), 128, 2, worker._spread(9))
    wl = worker.make_workload("ginv-engine", 1, "")
    assert worker.Counts().judge(wl, 0, case)[1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_lapack_counts_repeat(tmp_path, workload):
    first, second = (run_worker(tmp_path, workload, max_ops=2, trace=True)["trace"]["layers"]
                     for _ in range(2))
    lapack = [name for name in first if name.startswith("lapack.")]
    assert sum(first[name]["calls"] for name in lapack) > 0
    for name in lapack:
        assert (first[name]["calls"], first[name]["work"]) == (
            second[name]["calls"], second[name]["work"]), name


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
