"""Benchmark of the `symcoh` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe

Run it from the root of a checkout; it runs the sources under src/ and
writes only under perfbench/work/.  Each job is one fresh
`python -m symcoh.cli` process, run one at a time by a single client (a
closed loop).  The seed makes the workload's inputs (inputs.py).

The run and every job are kept on one CPU.  Set-up validates each of the
workload's algebras a few times (`--mode validate`); then the job list runs
in passes until the next pass would end after S seconds.  Every answer is
checked against the pinned one (gate.py).  With --trace 0 the result holds
the end-to-end metrics of BENCHMARK.json: job CPU times are given at a
reference CPU speed, measured by a reference loop that runs beside each job
(ticker.py).  With --trace 1 it holds the per-layer metrics: then untraced
and traced passes alternate, the traced ones running each job under
traced_job.py.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACED_JOB = os.path.join(HERE, "traced_job.py")
SETUP_REPEATS = 5

if not os.path.isfile(os.path.join(SRC, "symcoh", "cli.py")):
    sys.exit(f"perfbench: no symcoh sources at {SRC}; run from a checkout root")
sys.path.insert(0, SRC)

from gate import load_expected, problems  # noqa: E402
from inputs import WORK_DIR, materialize  # noqa: E402
from ticker import REF_RATE, Ticker, pin_to_one_cpu  # noqa: E402
from traced_job import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                 OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")

# which per-layer metric should move which end-to-end metric, on which workload
LAYER_MAP = [
    {"layer_metrics": ["complexes.self_s", "complexes.fixed_dense_cells",
                       "linalg.max_cells"],
     "moves": ["peak_rss_mb", "ref_cpu_s"], "workload": "group",
     "jobs": "SH-C5-bar, SHH-S3-bar, adjoint-S3, corollary-C5",
     "flat_on": "group jobs on the resolution route"},
    {"layer_metrics": ["bar.self_s", "hochschild.self_s", "sparse.matmul_out_nnz"],
     "moves": ["ref_cpu_s"], "workload": "group",
     "jobs": "SH-C5-bar, SHH-S3-bar, adjoint-S3, corollary-C5"},
    {"layer_metrics": ["resolution.self_s", "resolution.ambient_coords",
                       "tensors.self_s", "sparse.self_s"],
     "moves": ["ref_cpu_s"], "workload": "group",
     "jobs": "cp-table-C7, resolution-S3, SHH-S3-res, SH-C5-res"},
    {"layer_metrics": ["linalg.rational.self_s", "linalg.rational_cells",
                       "complexes.q_dense_fallbacks", "sparse.gram_calls"],
     "moves": ["ref_cpu_s"], "workload": "group", "jobs": "H-S3-q, SH-S3-q-res"},
    {"layer_metrics": ["hopf.sweedler_terms", "hopf.self_s", "tensors.nnz_built",
                       "linalg.prime.self_s"],
     "moves": ["ref_cpu_s"], "workload": "generic",
     "flat_on": "generic, for group-only changes"},
    {"layer_metrics": ["setup.cli.self_s", "setup.hopf.self_s"],
     "moves": ["setup_s"], "workload": "both"},
]


# printed with the end-to-end metrics but not gated
UNGATED = {
    "wall_s": "job wall time moves with the host's CPU speed, and the "
              "reference loop takes a quarter of the CPU",
    "cpu_s": "job CPU time moves with the host's CPU speed; ref_cpu_s is "
             "this time at the reference speed",
}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def environment() -> dict:
    import numpy
    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as f:
            lines += sum(1 for line in f if line.strip())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "src_nonblank_lines": lines}


def spawn(argv: list, out_path: str, err_path: str):
    """Run `python argv` to completion: (wall s, cpu s, peak RSS MB, exit code)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], CHILD_ENV,
                         file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            os.waitstatus_to_exitcode(status))


class Runner:
    """Runs CLI jobs in `workdir`, gating each answer and counting failures.

    With a ticker, each job's CPU time is also given at the reference speed.
    """

    def __init__(self, workdir: str, expected: dict, ticker: Ticker | None = None):
        self.workdir = workdir
        self.expected = expected
        self.ticker = ticker
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.walls = {}    # untraced job walls by job name
        self.outputs = []  # (job name, output) of every job, in order

    def job(self, name: str, cli_args: list, pinned_name: str | None, traced: bool):
        """One job; returns (wall s, cpu s, reference-speed cpu s or None,
        spans path or None)."""
        self.attempted += 1
        stem = os.path.join(self.workdir, f"{self.attempted:05d}-{name}")
        spans = stem + ".spans.json" if traced else None
        head = [TRACED_JOB, spans, name] if traced else ["-m", "symcoh.cli"]
        mark = self.ticker.mark() if self.ticker else None
        wall, cpu, rss, code = spawn([*head, *cli_args, "--format", "json"],
                                     stem + ".out", stem + ".err")
        ref_cpu = cpu * self.ticker.rate_since(mark) / REF_RATE if self.ticker else None
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if not traced:
            self.walls.setdefault(name, []).append(wall)
        with open(stem + ".out") as f:
            output = f.read()
        self.outputs.append((name, output))
        if pinned_name is None:
            found = problems(code, output, None)
        elif pinned_name in self.expected:
            found = problems(code, output, self.expected[pinned_name])
        else:
            found = ["no pinned answer"]
        if traced and not os.path.exists(spans):
            found.append("no trace written")
        if found:
            self.failed += 1
            with open(stem + ".err") as f:
                tail = f.read()[-2000:]
            print(f"FAILED {name}: {'; '.join(found)}\n{tail}", file=sys.stderr)
            spans = None
        return wall, cpu, ref_cpu, spans


def measure_rounds(seconds: float, one_round) -> list:
    """Repeat one_round until the next one would end after `seconds` (at least once)."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(one_round())
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return rounds


def layer_totals(jobs: list) -> dict:
    """Per-layer self time, calls and work counts over traced jobs.

    jobs holds (wall s, spans path).  A span's self time is its duration
    minus the time its child spans cover; what no span covers (interpreter
    start, imports, exit) is charged to `process`.
    """
    out = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("self_s", "calls")}
    out.update({"linalg.rational.self_s": 0.0, "linalg.prime.self_s": 0.0,
                "process.self_s": 0.0})
    for wall, path in jobs:
        if path is None:
            continue
        with open(path) as f:
            data = json.load(f)
        names, spans = data["names"], data["spans"]
        covered = [0.0] * len(spans)
        for _fid, start, end, parent, _kind in spans:
            if parent >= 0:
                covered[parent] += end - start
        root = 0.0
        for i, (fid, start, end, parent, kind) in enumerate(spans):
            layer = names[fid].split(".", 1)[0]
            own = end - start - covered[i]
            out[f"{layer}.self_s"] += own
            out[f"{layer}.calls"] += 1
            if kind is not None:
                out["linalg.rational.self_s" if kind == "q" else "linalg.prime.self_s"] += own
            if parent < 0:
                root += end - start
        out["process.self_s"] += wall - root
        for key, value in data["counts"].items():
            if key.endswith("max_cells"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def prepare(workload_name: str, seed: int, workdir: str, ticker: Ticker | None = None):
    """Write the seeded inputs; returns (runner, inputs, [(job name, CLI args)])."""
    workload = WORKLOADS[workload_name]
    inputs = materialize(workload.algebras, seed, workdir)
    jobs = [(job.name, inputs[job.algebra][0] + list(job.args)) for job in workload.jobs]
    return Runner(workdir, load_expected(), ticker), inputs, jobs


def run_pass(runner: Runner, jobs: list, traced: bool):
    """Every job once: (wall s, cpu s, reference-speed cpu s or None,
    [(job wall s, spans path)])."""
    results = [runner.job(name, args, name, traced) for name, args in jobs]
    ref_cpu = None if runner.ticker is None else sum(r[2] for r in results)
    return (sum(r[0] for r in results), sum(r[1] for r in results), ref_cpu,
            [(r[0], r[3]) for r in results])


def validate_all(runner: Runner, inputs: dict, traced: bool) -> list:
    """`--mode validate` on each algebra: [(wall s, cpu s, reference-speed
    cpu s or None, spans path)]."""
    return [runner.job(f"validate-{key}", args + ["--mode", "validate"], None, traced)
            for key, (args, _counts) in sorted(inputs.items())]


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: str):
    pin_to_one_cpu()
    if trace:
        return run_traced(workload_name, seed, seconds, workdir)
    with Ticker() as ticker:
        return run_plain(workload_name, seed, seconds, workdir, ticker)


def run_plain(workload_name: str, seed: int, seconds: float, workdir: str,
              ticker: Ticker):
    runner, inputs, jobs = prepare(workload_name, seed, workdir, ticker)
    setup = [v for _ in range(SETUP_REPEATS)
             for v in validate_all(runner, inputs, traced=False)]
    passes = measure_rounds(seconds, lambda: run_pass(runner, jobs, False))
    metrics = {"ref_cpu_s": statistics.median(p[2] for p in passes),
               "peak_rss_mb": runner.peak_rss_mb,
               "setup_s": statistics.median(v[2] for v in setup),
               "wall_s": statistics.median(p[0] for p in passes),
               "cpu_s": statistics.median(p[1] for p in passes)}
    detail = (f"{len(passes)} passes; reference-speed cpu per pass "
              f"{[round(p[2], 3) for p in passes]} s")
    detail += "\n  median job walls: " + ", ".join(
        f"{name} {statistics.median(runner.walls[name]):.3f} s" for name, _args in jobs)
    return metrics, runner, inputs, detail


def run_traced(workload_name: str, seed: int, seconds: float, workdir: str):
    runner, inputs, jobs = prepare(workload_name, seed, workdir)
    pairs = measure_rounds(seconds, lambda: (run_pass(runner, jobs, False),
                                             run_pass(runner, jobs, True)))
    per_pass = [layer_totals(traced[3]) for _plain, traced in pairs]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(t[0] for _p, t in pairs)
                                   - statistics.median(p[0] for p, _t in pairs))
    setup = layer_totals([(v[0], v[3]) for v in validate_all(runner, inputs, traced=True)])
    for layer in ("cli", "hopf"):
        metrics[f"setup.{layer}.self_s"] = setup[f"{layer}.self_s"]
    detail = f"{len(pairs)} pairs of an untraced and a traced pass"
    detail += "\n  median untraced job walls: " + ", ".join(
        f"{name} {statistics.median(runner.walls[name]):.3f} s" for name, _args in jobs)
    return metrics, runner, inputs, detail


def report(spec: dict, metrics: dict, trace: bool, runner: Runner, inputs: dict,
           header: str) -> dict:
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    print(header)
    for m in wanted:
        print(f"  {m['name']:30s} {metrics[m['name']]:>16.6f} {m['unit']}")
    for name, why in UNGATED.items():
        if name in metrics:
            print(f"  {name:30s} {metrics[name]:>16.6f} s    (not gated: {why})")
    ratio = runner.failed / runner.attempted
    print(f"  {'fail_ratio':30s} {ratio:>16.6f} ratio "
          f"({runner.failed} of {runner.attempted} jobs)")
    for key, (_args, counts) in sorted(inputs.items()):
        if counts:
            print(f"  input {key}: {json.dumps(counts, sort_keys=True)}")
    print(f"  environment: {json.dumps(environment(), sort_keys=True)}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def describe(spec: dict) -> dict:
    return {
        "workloads": {name: {"why": w.why,
                             "algebras": {k: repr(a) for k, a in w.algebras.items()},
                             "jobs": {j.name: f"{j.algebra} {' '.join(j.args)}"
                                      for j in w.jobs}}
                      for name, w in WORKLOADS.items()},
        "end_to_end": spec["end_to_end"] + [
            {"name": name, "unit": "s", "note": f"printed, not gated: {why}"}
            for name, why in UNGATED.items()] + [
            {"name": "fail_ratio", "unit": "ratio",
             "note": "printed, not gated: the result's failed / attempted"}],
        "per_layer": spec["per_layer"],
        "layer_map": LAYER_MAP,
        "environment": environment(),
    }


def main(argv=None) -> int:
    spec = benchmark_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print workloads, metrics, layer map and environment")
    args = ap.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(spec), indent=1))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    for name in names:
        workdir = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            metrics, runner, inputs, detail = run(name, args.seed, args.seconds,
                                                  bool(args.trace), workdir)
            header = f"workload {name} seed {args.seed} trace {args.trace}: {detail}"
            results[name] = report(spec, metrics, bool(args.trace), runner, inputs, header)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(results if args.workload == "all" else results[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
