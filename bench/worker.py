"""One benchmark child process: set a workload up, then time or trace its tasks.

Started by run.py with BLAS pinned to one thread:

    python worker.py --workload NAME --seed N --seconds S --mode setup|measure|trace \
        --tmp DIR --out FILE [--max-tasks N] [--block N]

``setup`` stops after set-up (imports, instances, one checked warm-up task).
``measure`` then runs untraced tasks for S seconds. ``trace`` alternates
untraced and traced blocks of tasks; call counts come from the first traced
block only, so they repeat exactly for a seed.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

MAX_PROBLEMS = 10


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Runs and checks tasks, keeping the tallies of one child process."""

    def __init__(self, workload, reference, tmp):
        self.workload, self.reference, self.tmp = workload, reference, Path(tmp)
        self.attempted = self.failed = 0
        self.asked = self.undecided = 0
        self.check_s = 0.0
        self.problems = []
        self.tracer = Tracer()

    def task(self, slot, index, task_id, traced=False):
        """Run one task and check its output; returns (seconds, trace summary or None)."""
        wl = self.workload
        seconds, trace = 0.0, None
        spans_path = self.tmp / f"spans-{os.getpid()}-{task_id}.json"
        try:
            inst = wl.instance(slot, index)
            if traced and wl.in_process:
                self.tracer.install()
            start = time.perf_counter()
            try:
                out = wl.run(inst, spans_path) if traced and not wl.in_process else wl.run(inst)
            finally:
                seconds = time.perf_counter() - start
                if traced and wl.in_process:
                    self.tracer.uninstall()
                    trace = self.tracer.take(task_id)
            check_start = time.perf_counter()
            summary = workloads.jsonable(wl.summary(out))
            reference = self.reference.get(wl.ref_key(slot, index))
            problems = workloads.check(wl, inst, out, summary, reference)
            if traced and not wl.in_process:
                trace = json.loads(spans_path.read_text())
                self.tracer.log.extend((task_id, *span) for span in trace.pop("spans"))
            outcomes = wl.outcomes(summary)
            self.asked += len(outcomes)
            self.undecided += outcomes.count("undecided")
            self.check_s += time.perf_counter() - check_start
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        finally:
            spans_path.unlink(missing_ok=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{wl.ref_key(slot, index)}: {'; '.join(problems)}")
        return seconds, trace


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--max-tasks", type=int, default=None)
    parser.add_argument("--block", type=int, default=None)
    parser.add_argument("--spans", default=None, help="write every span of a traced run here")
    args = parser.parse_args(argv)

    wl = workloads.load(args.workload)
    wl.setup(args.seed, args.tmp)
    load_start = time.perf_counter()
    runner = Runner(wl, workloads.reference_for(wl.name), args.tmp)
    load_s = time.perf_counter() - load_start
    runner.task(0, workloads.warmup_index(args.seed), task_id=-1)
    # set-up is what a user waits for: the checks and the reference are ours
    setup_s = time.perf_counter() - START - load_s - runner.check_s

    result = {"setup_s": setup_s, "env": environment()}
    slots = len(wl.slots)
    max_tasks = args.max_tasks
    if args.mode == "measure":
        durations = []
        loop_start = time.perf_counter()
        i = 0
        while time.perf_counter() - loop_start < args.seconds and (max_tasks is None or i < max_tasks):
            slot = i % slots
            seconds, _ = runner.task(slot, workloads.instance_index(args.seed, i // slots), i)
            durations.append(seconds)
            i += 1
        result["durations"] = durations
    elif args.mode == "trace":
        block = args.block or slots
        plain, traced, counted = [], [], []
        loop_start = time.perf_counter()
        i = 0
        while (i < 2 * block or time.perf_counter() - loop_start < args.seconds) and (
            max_tasks is None or i < max_tasks
        ):
            is_traced = (i // block) % 2 == 1
            slot = i % slots
            seconds, trace = runner.task(
                slot, workloads.instance_index(args.seed, i // slots), i, traced=is_traced
            )
            if not is_traced:
                plain.append(seconds)
            elif trace is not None:
                traced.append((seconds, trace))
                if i < 2 * block:
                    counted.append(trace)
            i += 1
        if traced and counted and plain:
            overhead = statistics.median(s for s, _ in traced) - statistics.median(plain)
            result["per_layer"] = per_layer_metrics([t for _, t in traced], counted, overhead)
        result["traced_tasks"] = len(traced)
        result["untraced_tasks"] = len(plain)
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in runner.tracer.log:
                    fh.write(json.dumps(span) + "\n")

    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result.update(
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        perturbation_asked=runner.asked,
        perturbation_undecided=runner.undecided,
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
