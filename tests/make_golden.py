"""Regenerate the CLI transcripts in ``tests/golden/``.

    PYTHONPATH=src python tests/make_golden.py

Each case is one in-process ``kfusion`` run, made the way ``test_cli.invoke``
makes it. Its stdout, stderr and exit code, and the bytes it wrote to
``--out``, are kept as ``<case>.stdout``, ``<case>.stderr``, ``<case>.exit``
and ``<case>.out``; a run that writes no file has no ``.out``.
``tests/test_golden.py`` compares a fresh run with these files byte for byte.
Run this script only when a transcript is meant to change, and list each
changed file and the reason in CHANGES.md.
"""

from __future__ import annotations

import sys
import tempfile
from importlib import resources
from pathlib import Path

from click.testing import CliRunner

from test_cli import INSTANCE_COMMANDS, invoke

GOLDEN = Path(__file__).resolve().parent / "golden"
REGENERATE = "PYTHONPATH=src python tests/make_golden.py"
STREAMS = ("stdout", "stderr", "exit", "out")

_DATA = resources.files("kfusion") / "data"

# case name -> argv; every run also gets ``--out``
CASES = {
    **{
        f"{command}-{stem}": [command, "--in", str(_DATA / f"{stem}.json")]
        for stem in ("example_r3", "example_r4")
        for command in INSTANCE_COMMANDS
    },
    "examples": ["examples"],
    "random-seed-3": ["random", "--seed", "3"],
    # --tol enters the digest's flags, and random's --out file carries the profile
    "verify-example_r3-tol-1e-4": [
        "verify", "--in", str(_DATA / "example_r3.json"), "--tol", "1e-4"
    ],
    "random-seed-3-tol-1e-4": ["random", "--seed", "3", "--tol", "1e-4"],
}


def run_case(name: str, scratch: Path) -> dict:
    """Stream -> the bytes case ``name`` produces, with None for an ``--out`` it did not write."""
    out = scratch / f"{name}.json"
    result = invoke(CliRunner(), *CASES[name], "--out", str(out))
    if not isinstance(result.exception, (SystemExit, type(None))):
        raise result.exception
    return {
        "stdout": result.stdout_bytes,
        "stderr": result.stderr_bytes,
        "exit": f"{result.exit_code}\n".encode(),
        "out": out.read_bytes() if out.exists() else None,
    }


def golden_files() -> dict:
    """File name -> bytes of every file now in ``tests/golden/``."""
    return {path.name: path.read_bytes() for path in sorted(GOLDEN.glob("*"))}


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        fresh = {
            f"{name}.{stream}": data
            for name in CASES
            for stream, data in run_case(name, Path(scratch)).items()
            if data is not None
        }
    GOLDEN.mkdir(exist_ok=True)
    old = golden_files()
    for file in old.keys() - fresh.keys():
        (GOLDEN / file).unlink()
    for file, data in fresh.items():
        (GOLDEN / file).write_bytes(data)
    changed = sorted(f for f in old.keys() | fresh.keys() if old.get(f) != fresh.get(f))
    print(f"{len(fresh)} files in {GOLDEN.name}/, {len(changed)} changed", file=sys.stderr)
    for file in changed:
        print(f"  {file}", file=sys.stderr)


if __name__ == "__main__":
    main()
