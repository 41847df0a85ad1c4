"""Record the reference outputs every benchmark task is checked against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py [WORKLOAD ...]

Runs every instance of each workload's universe once and writes
``bench/reference/<workload>.json``. The references are the library's
answers at the commit that added the benchmark; re-recording them after a
change to the library would let that change grade itself, so do it only
when the workloads themselves change.
"""

import json
import sys
import tempfile

import workloads


def record(name):
    wl = workloads.load(name)
    out = {}
    with tempfile.TemporaryDirectory(dir=workloads.HERE.parent) as tmp:
        for index in range(workloads.UNIVERSE):
            if isinstance(wl, workloads.CliCold):
                wl.write_files(index, tmp)
            for slot in range(len(wl.slots)):
                key = wl.ref_key(slot, index)
                if key in out:
                    continue
                inst = wl.instance(slot, index)
                result = wl.run(inst)
                out[key] = workloads.jsonable(wl.summary(result))
                problems = wl.invariants(inst, result)
                if problems:
                    raise SystemExit(f"{name} {key}: {problems}")
            print(f"{name}: {index + 1}/{workloads.UNIVERSE}", file=sys.stderr, flush=True)
    path = workloads.reference_path(name)
    path.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(out[key], sort_keys=True)}" for key in sorted(out)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        record(name)
