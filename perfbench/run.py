"""cellfree-sim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout holding `src/cellfree_sim`. Every measurement runs in a
fresh child process (perfbench/child.py) that sees only the generated config.

--trace 0 measures the end-to-end metrics: the median set-up time of several
processes that only import the package and parse the config, then the median
wall time and peak RSS of `run_experiment`, repeated at least three times and
until --seconds is spent.
--trace 1 runs the experiment once plain and once with every layer wrapped in
spans, and reports the per-layer metrics and the tracing overhead.

Every experiment's rows are checked: finite SE/CI, aggregate rows consistent
with the per-UE rows, identical across repeats and worker counts, and equal to
the stored reference rows at the shipped seeds. The last line of standard
output is one JSON object: correct, attempted, failed, metrics, with the units
declared in BENCHMARK.json. The exit code is not 0, and no result is printed,
when the benchmark cannot measure at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
# wall_s is the median of at least this many experiments, even past --seconds.
MIN_EXPERIMENTS = 3
# A run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 170.0
# Self times of a one-worker trace must add up to the traced wall time.
SELF_SUM_RTOL = 0.01
# Time under the root span that no traced layer covers may be this share of
# the traced wall plus a fixed allowance (thread pool, start-up); more means the
# tracer misses a layer. At full size it reads below 0.2 %.
UNTRACED_SHARE_MAX = 0.02
UNTRACED_ALLOWANCE_S = 0.05
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "CELLFREE_SIM_THREADS")

class BenchmarkError(Exception):
    """The benchmark cannot measure; distinct from a wrong program output."""


class Run:
    """One benchmark run: starts children, tallies operations and checks."""

    def __init__(self, workload: Workload, seed: int, reference, work_dir: Path,
                 deadline: float):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work_dir = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.facts: dict | None = None
        self.first_rows: list[dict] | None = None
        self.children = 0

    def spawn(self, mode: str, workers: int, spans: Path | None = None) -> dict | None:
        """Start one child and wait for it; None if it produced no result."""
        self.children += 1
        out_dir = self.work_dir / f"child{self.children}"
        config = self.work_dir / f"config{self.children}.json"
        config.write_text(json.dumps(self.workload.config(self.seed, str(out_dir))))
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(config), str(workers)]
        if spans is not None:
            cmd.append(str(spans))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        timeout = max(1.0, self.deadline - time.monotonic())
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"child {mode} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"child {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"child {mode} printed no result: {lines[-1][:200]}", file=sys.stderr)
            return None
        if Path(result["package"]).resolve().parent != SRC / "cellfree_sim":
            raise BenchmarkError(f"imported cellfree_sim from {result['package']}, not {SRC}")
        self.setup_s.append(result["ready_monotonic"] - started)
        self.facts = self.facts or result["facts"]
        return result

    def setup(self) -> None:
        if self.spawn("setup", self.workload.workers) is None:
            raise BenchmarkError("the package does not import or the config does not parse")

    def experiment(self, mode: str, workers: int, spans: Path | None = None) -> dict | None:
        """Run the experiment in a child and check its rows."""
        ops = self.workload.operations()
        self.attempted += ops
        result = self.spawn(mode, workers, spans)
        if result is None or "error" in result:
            self.failed += ops
            if result is not None:
                print(f"experiment failed: {result['error']}", file=sys.stderr)
            return result
        try:
            rows = checks.parse_rows(Path(result["csv"]).read_text())
        except (OSError, ValueError) as exc:
            print(f"unreadable result CSV: {exc}", file=sys.stderr)
            self.failed += ops
            return result
        failures = {key: "non-finite or inconsistent rows" for key in checks.check_invariants(rows)}
        if self.reference is not None:
            for key in checks.compare(rows, self.reference):
                failures.setdefault(key, "differs from the reference rows")
        if self.first_rows is None:
            self.first_rows = rows
        else:
            # Repeats and worker counts must give byte-identical rows.
            for key in checks.compare(rows, self.first_rows, rtol=0.0, atol=0.0):
                failures.setdefault(key, "differs from the first experiment of this run")
        missing = ops - len({checks.op_key(r) for r in rows})
        self.failed += min(ops, len(failures) + max(missing, 0))
        self.failures += [f"child {self.children} ({workers} workers), operation {key}: {why}"
                          for key, why in sorted(failures.items())]
        return result


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off."""
    start = time.monotonic()
    w = run.workload
    for _ in range(SETUP_SAMPLES):
        run.setup()
    walls, rss, durations = [], [], []
    while True:
        t = time.monotonic()
        result = run.experiment("run", w.workers)
        durations.append(time.monotonic() - t)
        if result is not None:
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
        next_end = time.monotonic() + statistics.median(durations)
        if next_end > run.deadline or (len(durations) >= MIN_EXPERIMENTS
                                       and next_end > start + seconds):
            break
    if not walls:
        raise BenchmarkError("no experiment finished")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(run.setup_s),
        # The peak over repeats: with two workers the per-process peak
        # depends on how the workers' allocations happen to overlap.
        "peak_rss_mb": max(rss),
    }, {"wall_s": walls, "setup_s": run.setup_s, "peak_rss_mb": rss}


def measure_traced(run: Run, spans: Path) -> tuple[dict, dict]:
    """Per-layer metrics from one traced experiment, plus tracing overhead."""
    w = run.workload
    if w.workers > 1:
        run.experiment("run", 1)  # rows must not depend on the worker count
    plain = run.experiment("run", w.workers)
    traced = run.experiment("trace", w.workers, spans)
    if plain is None or traced is None:
        raise BenchmarkError("no traced experiment finished")
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.wall_ratio"] = traced["wall_s"] / plain["wall_s"]
    for err in traced["nesting_errors"]:
        run.problems.append(f"span nesting: {err}")
    # Given nesting, one thread's self times always add up to the root span;
    # this guards that the root span covers the timed call.
    self_sum = traced["self_sum_s"]
    if w.workers == 1 and abs(self_sum - traced["wall_s"]) > SELF_SUM_RTOL * traced["wall_s"]:
        run.problems.append(
            f"span self times add up to {self_sum:.4f} s, traced wall is {traced['wall_s']:.4f} s")
    untraced = metrics["experiments.self_s"]
    if untraced > UNTRACED_SHARE_MAX * traced["wall_s"] + UNTRACED_ALLOWANCE_S:
        run.problems.append(f"{untraced:.4f} s of the traced {traced['wall_s']:.4f} s "
                            "is under no traced layer")
    return metrics, {"self_sum_s": self_sum, "spans": str(spans.relative_to(ROOT))}


def run_facts(workload: Workload) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "workers": workload.workers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload to toy size (smoke test); no reference rows")
    args = parser.parse_args(argv)

    try:
        return bench(args)
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


def bench(args) -> int:
    if not (SRC / "cellfree_sim" / "__init__.py").is_file():
        raise BenchmarkError(f"no cellfree_sim package under {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    workload = WORKLOADS[args.workload]
    reference = None
    if args.toy:
        workload = workload.toy()
    else:
        reference = checks.load_reference(workload.name, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}{'-toy' if args.toy else ''}"
    work_dir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    run = Run(workload, args.seed, reference, work_dir, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics, extra = measure_traced(run, OUT / f"{tag}-spans.json")
        else:
            metrics, extra = measure(run, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    unit = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "toy": args.toy,
        "program_seed": workload.program_seed(args.seed), "trace": args.trace,
        "seconds": args.seconds, "reference_rows": reference is not None,
        "facts": {**run_facts(workload), **(run.facts or {})},
        "problems": run.problems, "failures": run.failures, "samples": extra, "result": result,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"reference rows {'yes' if reference is not None else 'no'}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit[name]}")
    print(f"  operations attempted {run.attempted}, failed {run.failed}")
    for problem in run.problems + run.failures[:10]:
        print(f"  check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
