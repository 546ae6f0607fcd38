"""Benchmark of fuzzylinsys: one closed-loop client, one workload per invocation.

    python3 bench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Workloads (see ``bench/README.md`` for why each exists): ``solve-large``,
``solve-small``, ``cli-cold``, ``ginv-engine``.  Every operation is checked
against an independent oracle.  With ``--trace 0`` the last stdout line is a
JSON object carrying the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced pass.  A full result, with provenance,
is written to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.

Run from the root of a source checkout; the package is imported from
``src/``.  BLAS is pinned to one thread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("solve-large", "solve-small", "cli-cold", "ginv-engine")

# Set-up is measured in this many processes, the measuring one and the others
# half before and half after it, so that they span the run; the median is
# reported.
SETUP_PROCESSES = 11

# Per-layer span names reported in the traced run's result line.  ``calls`` and
# ``lapack.*.work`` repeat exactly for a seed; ``self_ms`` is listed only for
# spans that every workload exercises, the rest appear in the printed table
# and the result file.
CALL_SPANS = (
    "fls.solve", "fls.build_associated", "fls.classify", "fls.core_ep_from_blocks",
    "fuzzy.validity", "ginv.rank", "ginv.matrix_index", "ginv.in_column_space",
    "ginv.core_ep_via_formula", "ginv.moore_penrose", "ginv.one_three_inverse",
    "ginv.core_ep_decompose", "ginv.core_ep_via_decomposition", "ginv.core_inverse",
    "cli.load_problem", "cli.report_to_dict", "cli.json_dumps", "cli.format_report_text",
    "lapack.svd", "lapack.lstsq", "lapack.solve", "lapack.inv", "lapack.eigvals",
    "lapack.schur",
)
SELF_TIME_SPANS = ("ginv.matrix_index", "ginv.core_ep_via_formula", "ginv.moore_penrose",
                   "lapack.svd")
IMPORTS = (("numpy", "import.numpy_ms"), ("scipy.linalg", "import.scipy_linalg_ms"),
           ("fuzzylinsys", "import.fuzzylinsys_ms"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fuzzylinsys", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = worker_env()
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "out_dir": OUT_DIR, "setup_only": False}

    def setup_samples(count):
        return [] if args.trace else [run_worker(dict(cfg, setup_only=True), env)["setup_s"]
                                      for _ in range(count)]

    try:
        setups = setup_samples(SETUP_PROCESSES // 2)
        res = run_worker(cfg, env)
        setups += setup_samples(SETUP_PROCESSES - 1 - SETUP_PROCESSES // 2)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    counts = res["counts"]
    # Every operation of the measured loop is timed, whatever the oracle says
    # of it, so the timed inputs do not depend on the program's correctness.
    # The time metrics take each input's best pass: the machine's speed drifts
    # by 10-20% within seconds, and the best of several passes spread over the
    # run is far steadier from run to run than any statistic of single passes.
    lat_ms = [1000.0 * t for t in res["latencies"]]
    pool = res["pool_size"]
    best_ms = [min(lat_ms[j::pool]) for j in range(pool)]
    if args.trace:
        metrics, table = per_layer_metrics(res["trace"], counts)
    else:
        metrics = {
            "throughput_ops_s": (pool / (sum(best_ms) / 1000.0), "1/s"),
            "latency_p50_ms": (statistics.median(best_ms), "ms"),
            "latency_p90_ms": (statistics.quantiles(best_ms, n=10)[8], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        table = []
    fail_frac = counts["failed"] / counts["attempted"]
    correct = counts["failed"] == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(lat_ms)} ({len(lat_ms) // pool} passes over {pool} inputs, all timed)  "
          f"setup samples {len(setups)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<44} {fail_frac:>14.6g} (failed {counts['failed']} of "
          f"{counts['attempted']}: errors {counts['errors']}, wrong_class "
          f"{counts['wrong_class']}, wrong_x {counts['wrong_x']})")
    if counts["first_failure"]:
        print(f"  first failure: {counts['first_failure']}")
    for line in table:
        print(line)

    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, fail_frac=fail_frac, counts=counts,
                  latencies_ms=lat_ms, accepted=res["accepted"], setup_samples_s=setups,
                  provenance=dict(res["provenance"], git_commit=git_commit(),
                                  blas_threads_env=env["OPENBLAS_NUM_THREADS"],
                                  seed=args.seed))
    if args.trace:
        record["layers"] = res["trace"]["layers"]
    path = os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


class WorkerError(RuntimeError):
    pass


def worker_env():
    """Environment of every benchmark process: one BLAS thread, the checkout's ``src``."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    return env


def run_worker(cfg, env):
    """Run ``worker.py`` in a fresh process and return its JSON result."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(cfg)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer_metrics(trace, counts):
    """Result-line metrics and a printed table of every traced span."""
    layers = trace["layers"]
    metrics = {}
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = (layers[name]["calls"], "1/op")
        if name.startswith("lapack."):
            metrics[f"{name}.work"] = (layers[name]["work"], "mnk/op")
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_ms"] = (layers[name]["self_ms"], "ms/op")
    for module, name in IMPORTS:
        metrics[name] = (trace["import_ms"][module], "ms")
    metrics["trace.overhead_ms"] = (trace["overhead_ms"], "ms/op")
    for name in ("errors", "wrong_class", "wrong_x"):
        metrics[f"check.{name}"] = (counts[name], "count")
    table = [f"  traced pass: {trace['ops']} ops; per op:",
             f"    {'span':<34} {'calls':>10} {'self_ms':>12} {'work (computed)':>18}"]
    for name in sorted(layers, key=lambda n: -layers[n]["self_ms"]):
        entry = layers[name]
        table.append(f"    {name:<34} {entry['calls']:>10.4g} {entry['self_ms']:>12.4f} "
                     f"{entry['work']:>18.6g}")
    return metrics, table


def git_commit():
    """The checkout's commit, or None when it is not a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


if __name__ == "__main__":
    sys.exit(main())
