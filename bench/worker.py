"""One benchmark process: imports the package, runs one workload, prints a JSON result.

Started by ``run.py`` as ``python worker.py CONFIG_JSON``.  The clock for the
set-up time starts at the top of this file, before numpy is imported, so that
``setup_s`` covers importing the package and one untimed warm-up operation
(input generation is excluded).  With ``"setup_only": true`` the process
stops after set-up; ``run.py`` starts several such processes and reports the
median.
"""

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FIXTURE_NAMES = ("consistent_2x2", "consistent_3x3", "inconsistent_2x2")
# Classes of fuzzy systems, in equal shares: (index of A, right-hand side in
# col(S^k)).  Nonsingular; consistent index 1 and 2; inconsistent index 1 and 3.
SOLVE_CLASSES = ((0, True), (1, True), (2, True), (1, False), (3, False))


class Workload:
    """Operation ``i`` runs input ``i % pool_size``.  Input ``j`` is drawn from
    ``default_rng([seed, j])`` on first use and kept.  A run stops only after
    whole passes over the pool, so that every input runs equally often."""

    in_process = True

    def __init__(self, seed, pool_size):
        self.seed = seed
        self.pool_size = pool_size
        self._cache = {}

    def case(self, i):
        j = i % self.pool_size
        if j not in self._cache:
            self._cache[j] = self.make_case(j, np.random.default_rng([self.seed, j]))
        return self._cache[j]


class SolveWorkload(Workload):
    """``fls.solve()`` on generated systems, the classes of ``SOLVE_CLASSES`` in
    turn; ``serialize`` adds the report-to-JSON step of ``solve-small``."""

    def __init__(self, seed, sizes, pool_size, trace_ops, serialize):
        super().__init__(seed, pool_size)
        self.sizes = sizes
        self.trace_ops = trace_ops
        self.serialize = serialize

    def make_case(self, j, rng):
        k, consistent = SOLVE_CLASSES[j % len(SOLVE_CLASSES)]
        n = self.sizes[(j // len(SOLVE_CLASSES)) % len(self.sizes)]
        spread = _spread(j // (len(SOLVE_CLASSES) * len(self.sizes)))
        case = inputs.solve_case(rng, n, min(k, n - 1), consistent, spread)
        return case, fls_problem(case)

    def run_op(self, case):
        report = fls.solve(case[1])
        if not self.serialize:
            return report
        return json.dumps(cli.report_to_dict(report, ginv.DEFAULT_TOLERANCES))

    def check(self, case, out):
        exp = case[0].expected
        if self.serialize:
            return _check_doc(exp, json.loads(out))
        return inputs.check_solution(
            exp,
            vars(out.classification),
            out.method,
            out.is_generalized,
            out.crisp_x0,
            out.crisp_x1,
            [((f.lower.c0, f.lower.c1), (f.upper.c0, f.upper.c1)) for f in out.fuzzy_x],
            [v.violations for v in out.verdicts],
            ginv.DEFAULT_TOLERANCES.equality_tol,
        )


class EngineWorkload(Workload):
    """Everything ``fuzzylinsys inverse --show-decomposition`` computes for its
    three kinds, on one ``n x n`` matrix of index 0 or 1.

    Index 2 and 3 are left out: on about one in 2000 such matrices,
    ``core_ep_decompose`` raises ``NumericalFailureError`` (its ordered Schur
    form selects more eigenvalues than ``rank(A^k)``), and which ones it
    fails on depends on LAPACK rounding, not on a property of the input."""

    # The index of each input in turn.  Index 1 takes about 2.5 times as long
    # as index 0; at two thirds of the inputs, the median falls inside its
    # latencies rather than in the gap between the two.
    indices = (0, 1, 1)

    def __init__(self, seed, n, pool_size, trace_ops):
        super().__init__(seed, pool_size)
        self.n = n
        self.trace_ops = trace_ops

    def make_case(self, j, rng):
        turn, pos = divmod(j, len(self.indices))
        k = self.indices[pos]
        r = turn * self.indices.count(k) + self.indices[:pos].count(k)  # r-th input of index k
        return inputs.engine_case(rng, self.n, k, _spread(r))

    def run_op(self, case):
        a = case.a
        formula = ginv.core_ep_via_formula(a)
        dec = ginv.core_ep_decompose(a)
        via_dec = ginv.core_ep_via_decomposition(a)
        mp = ginv.moore_penrose(a)
        core = ginv.core_inverse(a) if dec.k <= 1 else None
        return formula, dec, via_dec, mp, core

    def check(self, case, out):
        formula, dec, via_dec, mp, core = out
        a = case.a
        rtol = inputs.SOLUTION_RTOL
        class_ok = dec.k == case.k and dec.rho == case.rho
        ok = (
            np.linalg.norm(dec.assemble() - a) <= rtol * (1.0 + np.linalg.norm(a))
            and inputs.relative_error(formula, case.a_ce) <= rtol
            and inputs.relative_error(via_dec, case.a_ce) <= rtol
            and (core is None) == (case.k > 1)
            and (core is None or inputs.relative_error(core, case.a_ce) <= rtol)
            and _penrose_ok(a, mp, rtol)
        )
        return class_ok, bool(ok)


class CliWorkload(Workload):
    """One ``python -m fuzzylinsys solve FILE`` process per operation: the
    fixture problems with ``--format text`` and one generated file per class
    with ``--format json``, so both report formatters run."""

    in_process = False

    def __init__(self, seed, sizes, trace_ops, out_dir):
        super().__init__(seed, len(FIXTURE_NAMES) + len(SOLVE_CLASSES))
        self.sizes = sizes  # order of the generated problem of each class
        self.trace_ops = trace_ops
        self.out_dir = out_dir
        self.traced_spans = None  # spans file of each traced operation, while tracing

    def make_case(self, j, rng):
        if j < len(FIXTURE_NAMES):
            path = os.path.join(ROOT, "fixtures", FIXTURE_NAMES[j] + ".json")
            return path, inputs.exact_expected(inputs.load_doc(path)), "text"
        c = j - len(FIXTURE_NAMES)
        k, consistent = SOLVE_CLASSES[c]
        case = inputs.solve_case(rng, self.sizes[c], min(k, self.sizes[c] - 1), consistent,
                                 _spread(0))
        path = os.path.join(self.out_dir, f"cli_input_seed{self.seed}_{c}.json")
        with open(path, "w") as fh:
            json.dump(case.problem_doc(), fh)
        return path, case.expected, "json"

    def run_op(self, case):
        args = ["solve", case[0], "--format", case[2]]
        if self.traced_spans is None:
            cmd = [sys.executable, "-m", "fuzzylinsys"] + args
        else:
            spans_path = os.path.join(self.out_dir, f"cli_spans_{len(self.traced_spans)}.json")
            self.traced_spans.append(spans_path)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans_path] + args
        proc = subprocess.run(cmd, capture_output=True, text=True, env=os.environ, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, case, out):
        code, stdout, stderr = out
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.strip()[-300:]}")
        if case[2] == "text":
            return _check_text(case[1], stdout)
        return _check_doc(case[1], json.loads(stdout))


def fls_problem(case):
    """The package's problem object for an ``inputs.SolveCase``."""
    n = case.a.shape[0]
    y = [
        fuzzy.FuzzyNumber(fuzzy.AffineFn(float(case.y0[i]), float(case.y1[i])),
                          fuzzy.AffineFn(float(-case.y0[n + i]), float(-case.y1[n + i])))
        for i in range(n)
    ]
    return fls.FlsProblem(a=case.a, y=y)


def _spread(r):
    """Point ``r`` of the golden-ratio sequence in [0, 1), for the ``r``-th
    input of a class: the first inputs of every class, however many a run
    reaches, are spread evenly, and every seed has the same mix of null-block
    sizes."""
    return (0.5 + r * 0.6180339887498949) % 1.0


def _check_doc(exp, doc):
    """Check a JSON report document (``cli.report_to_dict``) against ``exp``."""
    return inputs.check_solution(
        exp,
        doc["classification"],
        doc["method"],
        doc["is_generalized"],
        doc["crisp"]["x0"],
        doc["crisp"]["x1"],
        [(tuple(f["lower"]), tuple(f["upper"])) for f in doc["fuzzy"]],
        [v["violated"] for v in doc["verdicts"]],
        doc["tolerances"]["equality_tol"],
    )


_TEXT_CLASS = re.compile(r"classification : (\S+)  \(rank S = (\d+), "
                         r"rank \[S\|Y\] = (\d+), index = (\d+)\)")
_TEXT_FIELD = re.compile(r"^(method|generalized) +: (\S+)$", re.M)
_TEXT_VECTOR = re.compile(r"^  (x0|x1) = \[(.*)\]$", re.M)
_TEXT_FUZZY = re.compile(r"^  x~\d+ = \((\S+) ([+-]) (\S+)\*r, (\S+) ([+-]) (\S+)\*r\)   "
                         r"(valid|invalid\{([\d,]+)\})$", re.M)
_TEXT_EQ_TOL = re.compile(r"equality_tol=(\S+)$", re.M)


def _check_text(exp, text):
    """Check a text report (``cli.format_report_text``) against ``exp``.  Its
    numbers carry six significant digits, so the solution tolerance is
    ``inputs.TEXT_RTOL``; a report that does not parse raises."""
    kind, rank_s, rank_aug, index_s = _TEXT_CLASS.search(text).groups()
    fields = dict(_TEXT_FIELD.findall(text))
    vectors = {name: [float(v) for v in values.split(", ")]
               for name, values in _TEXT_VECTOR.findall(text)}
    fuzzy, verdicts = [], []
    for l0, ls, l1, u0, us, u1, _tag, bad in _TEXT_FUZZY.findall(text):
        fuzzy.append(((float(l0), float(ls + l1)), (float(u0), float(us + u1))))
        verdicts.append(tuple(int(c) for c in bad.split(",")) if bad else ())
    return inputs.check_solution(
        exp,
        {"kind": kind, "rank_s": int(rank_s), "rank_aug": int(rank_aug),
         "index_s": int(index_s)},
        fields["method"],
        {"yes": True, "no": False}[fields["generalized"]],
        vectors["x0"],
        vectors["x1"],
        fuzzy,
        verdicts,
        float(_TEXT_EQ_TOL.search(text).group(1)),
        rtol=inputs.TEXT_RTOL,
    )


def _penrose_ok(a, x, rtol):
    """The four Penrose equations, relative to the norms involved."""
    ax, xa = a @ x, x @ a
    na, nx = np.linalg.norm(a), np.linalg.norm(x)
    return (
        np.linalg.norm(ax @ a - a) <= rtol * na * (1 + na * nx)
        and np.linalg.norm(xa @ x - x) <= rtol * nx * (1 + na * nx)
        and np.linalg.norm(ax - ax.T) <= rtol * na * nx
        and np.linalg.norm(xa - xa.T) <= rtol * na * nx
    )


def make_workload(name, seed, out_dir):
    # Pools sized for at least four passes in a 20-second run: the time
    # metrics take each input's best pass.
    if name == "solve-large":
        return SolveWorkload(seed, sizes=(128,), pool_size=8 * len(SOLVE_CLASSES),
                             trace_ops=20, serialize=False)
    if name == "solve-small":
        sizes = tuple(range(3, 17))
        return SolveWorkload(seed, sizes=sizes, pool_size=3 * len(SOLVE_CLASSES) * len(sizes),
                             trace_ops=2 * len(SOLVE_CLASSES) * len(sizes), serialize=True)
    if name == "cli-cold":
        return CliWorkload(seed, sizes=(5, 8, 11, 14, 16), trace_ops=8, out_dir=out_dir)
    if name == "ginv-engine":
        return EngineWorkload(seed, n=128, pool_size=8 * len(EngineWorkload.indices),
                              trace_ops=8)
    raise ValueError(f"unknown workload {name!r}")


class Counts:
    """Oracle verdicts: an operation fails if it raises or the oracle rejects it."""

    def __init__(self):
        self.attempted = self.errors = self.wrong_class = self.wrong_x = self.failed = 0
        self.first_failure = None

    def judge(self, workload, i, case=None, run_op=None):
        """Run operation ``i``, check it, and return ``(wall time, accepted)``.

        The input is drawn and the output checked outside the timed region."""
        if case is None:
            case = workload.case(i)
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = (run_op or workload.run_op)(case)
        except Exception as exc:  # any failure of the program counts; the run goes on
            elapsed = time.perf_counter() - start
            self._fail(i, f"{type(exc).__name__}: {exc}", errors=True)
            return elapsed, False
        elapsed = time.perf_counter() - start
        try:
            class_ok, solution_ok = workload.check(case, out)
        except Exception as exc:  # unparseable or malformed output
            self._fail(i, f"{type(exc).__name__}: {exc}", errors=True)
            return elapsed, False
        self.wrong_class += not class_ok
        self.wrong_x += not solution_ok
        if not (class_ok and solution_ok):
            self._fail(i, f"class_ok={class_ok} solution_ok={solution_ok}")
            return elapsed, False
        return elapsed, True

    def _fail(self, i, detail, errors=False):
        self.errors += errors
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"op {i}: {detail}"

    def as_dict(self):
        return {k: getattr(self, k) for k in
                ("attempted", "failed", "errors", "wrong_class", "wrong_x", "first_failure")}


def import_times(reps=3):
    """Median cumulative import time (ms) of numpy, scipy.linalg and the package,
    from ``-X importtime`` in fresh processes."""
    wanted = {"numpy": [], "scipy.linalg": [], "fuzzylinsys": []}
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fuzzylinsys"],
                              capture_output=True, text=True, env=os.environ, timeout=120,
                              check=True)
        seen = set()
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name in wanted and name not in seen:
                seen.add(name)
                wanted[name].append(int(parts[1]) / 1000.0)
    return {name: statistics.median(v) if v else 0.0 for name, v in wanted.items()}


def provenance():
    import ctypes
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in _loaded_libraries("openblas"):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _loaded_libraries(fragment):
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if fragment in line and "/" in line}
    return sorted(p for p in paths if p.endswith(".so") or ".so." in p)


def main(cfg):
    workload = make_workload(cfg["workload"], cfg["seed"], cfg["out_dir"])
    trace = cfg["trace"]
    t_import = 0.0
    if workload.in_process:
        _import_package()
        t_import = time.perf_counter() - _T_START
    _import_helpers()

    counts = Counts()
    warm, _ = counts.judge(workload, 0)
    result = {"setup_s": t_import + warm}
    if cfg["setup_only"]:
        print(json.dumps(result))
        return 0

    # Closed loop, one client, until the operations have been busy for the
    # given seconds and a whole number of passes over the pool has run.
    max_ops = cfg.get("max_ops")
    latencies, accepted = [], []
    busy = 0.0
    i = 0
    while ((i == 0 or busy < cfg["seconds"] or i % workload.pool_size)
           and (max_ops is None or i < max_ops)):
        dt, ok = counts.judge(workload, i)
        latencies.append(dt)
        accepted.append(ok)
        busy += dt
        i += 1
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result.update(
        pool_size=workload.pool_size,
        latencies=latencies,
        accepted=accepted,
        busy_s=busy,
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
        provenance=provenance(),
    )
    if trace:
        result["trace"] = _traced_pass(workload, counts, latencies, min(workload.trace_ops, i),
                                        cfg["out_dir"])
    result["counts"] = counts.as_dict()
    print(json.dumps(result))
    return 0


def _traced_pass(workload, counts, untraced, ops, out_dir):
    """Run the first ``ops`` operations again with every layer traced."""
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    traced = []
    if workload.in_process:
        cases = [workload.case(i) for i in range(ops)]
        tracer.install(json_module=json)
        try:
            for i, case in enumerate(cases):
                tracer.op = i
                traced.append(counts.judge(workload, i, case)[0])
        finally:
            tracer.uninstall()
        spans = tracer.spans
    else:
        workload.traced_spans = []
        for i in range(ops):
            traced.append(counts.judge(workload, i)[0])
        spans = _merge_child_spans(workload.traced_spans)
        workload.traced_spans = None
    tracer_mod.write_spans(os.path.join(out_dir, "spans.json"), spans)
    # Untraced operations on the same inputs, from every pass of the measured loop.
    same_inputs = [t for i, t in enumerate(untraced) if i % workload.pool_size < ops]
    return {
        "ops": ops,
        "layers": tracer_mod.summarize(spans, ops),
        "overhead_ms": 1000.0 * (statistics.fmean(traced) - statistics.fmean(same_inputs)),
        "import_ms": import_times(),
    }


def _merge_child_spans(paths):
    spans = []
    for op, path in enumerate(paths):
        if not os.path.exists(path):  # the child died before writing; its op failed
            continue
        with open(path) as fh:
            child = json.load(fh)["spans"]
        offset = len(spans)
        for name, parent, _op, start, end, work in child:
            spans.append([name, parent + offset if parent >= 0 else -1, op, start, end, work])
        os.remove(path)
    return spans


# Imported at run time, not at the top, so that set-up timing starts before numpy.
def _import_package():
    global fls, ginv, fuzzy, cli
    import fuzzylinsys.cli as cli
    import fuzzylinsys.fls as fls
    import fuzzylinsys.fuzzy as fuzzy
    import fuzzylinsys.ginv as ginv


def _import_helpers():
    global np, inputs
    import numpy as np

    import inputs


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
