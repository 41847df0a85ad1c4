"""kfusion benchmark: what CLI and library users wait for, end to end and per layer.

One workload per run, as BENCHMARK.json's command asks:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, with a table of every metric by name and unit:

    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

A quick check of set-up, output checks and trace wiring (a few tasks each):

    python3 bench/run.py --smoke

Run from the repository root. The last stdout line of a single-workload run
is the JSON result; the line before it is the full record (environment,
sample counts, failures). The exit code is 1 when any task output is wrong,
2 when the benchmark cannot run here.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())["workloads"]
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUPS = 3
FLOOR_SAMPLES = 3
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "task_s.p50": "s",
    "task_s.tail": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cold_start_floor(env):
    """Median wall time of a fresh interpreter that only imports numpy: a reference line."""
    samples = []
    for _ in range(FLOOR_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def tail(durations):
    """The highest order statistic with at least ten tasks above it, and its percentile."""
    ordered = sorted(durations)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Run:
    """One workload run: its child processes, one after another, in a scratch directory."""

    def __init__(self, workload, seed, seconds, tmp, deadline):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tmp, self.deadline = tmp, deadline
        self.env = child_env()
        self.count = 0

    def child(self, mode, **extra):
        self.count += 1
        out = self.tmp / f"{mode}-{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--mode", mode,
            "--tmp", str(self.tmp), "--out", str(out),
        ]
        for key, value in extra.items():
            if value is not None:
                cmd += [f"--{key.replace('_', '-')}", str(value)]
        timeout = max(self.deadline - time.monotonic(), 1.0)
        proc = subprocess.run(cmd, env=self.env, timeout=timeout, capture_output=True, text=True)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"{mode} worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(out.read_text())

    def measure(self, setups, max_tasks):
        children = [self.child("setup") for _ in range(setups - 1)]
        timed = self.child("measure", max_tasks=max_tasks)
        children.append(timed)
        durations = timed["durations"]
        value, percentile = tail(durations)
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "task_s.p50": statistics.median(durations),
            "task_s.tail": value,
            "tasks_per_s": len(durations) / sum(durations),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        }
        record = {
            "tasks": len(durations),
            "tail_percentile": percentile,
            "setup_samples": [c["setup_s"] for c in children],
        }
        metrics = {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}
        return children, metrics, record

    def trace(self, max_tasks, block, spans):
        traced = self.child("trace", max_tasks=max_tasks, block=block, spans=spans)
        if "per_layer" not in traced:
            raise RuntimeError("traced run recorded no traced task")
        record = {"traced_tasks": traced["traced_tasks"], "untraced_tasks": traced["untraced_tasks"]}
        return [traced], traced["per_layer"], record


def run_workload(workload, seed, seconds, trace, setups=SETUPS, max_tasks=None, block=None, spans=None):
    """Run one workload; returns (result line dict, record dict)."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = scratch / f"run-{os.getpid()}-{workload}-{trace}"
    tmp.mkdir()
    try:
        run = Run(workload, seed, seconds, tmp, time.monotonic() + RUN_LIMIT_S)
        floor = cold_start_floor(run.env)
        if trace:
            children, metrics, record = run.trace(max_tasks, block, spans)
        else:
            children, metrics, record = run.measure(setups, max_tasks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    asked = sum(c["perturbation_asked"] for c in children)
    undecided = sum(c["perturbation_undecided"] for c in children)
    spec = SPEC[workload]
    record.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        env=dict(children[-1]["env"], cold_start_floor_s=floor),
        sizes=spec["sizes"],
        why=spec["why"],
        failed_frac=failed / attempted,
        undecided_frac=undecided / asked if asked else None,
        problems=[p for c in children for p in c["problems"]],
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def print_table(result, record, stream):
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}) ==", file=stream)
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}", file=stream)
    extra = {key: record[key] for key in ("tasks", "tail_percentile", "traced_tasks", "untraced_tasks") if key in record}
    extra.update(failed_frac=record["failed_frac"], undecided_frac=record["undecided_frac"])
    print("  " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in extra.items()), file=stream)
    for problem in record["problems"]:
        print(f"  WRONG: {problem}", file=stream)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(SPEC))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--smoke", action="store_true", help="a few checked tasks per workload, both modes")
    parser.add_argument("--spans", default=None, help="with --trace 1, write every span (JSON lines) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kfusion" / "cli.py").is_file():
        print(f"kfusion sources not found under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.smoke:
        ok = True
        for workload in SPEC:
            for trace in (0, 1):
                result, record = run_workload(workload, args.seed, 60.0, trace, setups=1, max_tasks=2, block=1)
                print_table(result, record, sys.stdout)
                ok = ok and result["correct"]
        return 0 if ok else 1

    if args.all or args.workload is None:
        if not args.all:
            parser.error("give --workload NAME, --all or --smoke")
        ok = True
        for workload in SPEC:
            result, record = run_workload(workload, args.seed, args.seconds, args.trace, spans=args.spans)
            print_table(result, record, sys.stdout)
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"]
        return 0 if ok else 1

    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, spans=args.spans)
    print_table(result, record, sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
