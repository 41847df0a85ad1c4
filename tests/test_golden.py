"""Every CLI transcript in ``tests/golden/`` is what a fresh run prints and writes, byte for byte."""

import difflib

import pytest

from make_golden import CASES, GOLDEN, REGENERATE, STREAMS, golden_files, run_case


def _diff(case: str, stream: str, golden, fresh) -> str:
    """A unified diff of the golden file against the fresh run, naming the case and the fix."""
    lines = [
        (data or b"").decode(errors="replace").splitlines(keepends=True) for data in (golden, fresh)
    ]
    name = f"tests/golden/{case}.{stream}"
    body = "".join(difflib.unified_diff(*lines, fromfile=name, tofile="fresh run"))
    missing = " (absent in the golden files)" if golden is None else ""
    missing += " (not written by the fresh run)" if fresh is None else ""
    return (
        f"case {case!r}: {stream} differs from its golden{missing}\n{body}\n"
        f"if the change is intended, regenerate with `{REGENERATE}` "
        "and list each changed file and the reason in CHANGES.md"
    )


@pytest.mark.parametrize("case", CASES)
def test_a_fresh_run_matches_its_golden_transcript(case, tmp_path):
    fresh = run_case(case, tmp_path)
    for stream in STREAMS:
        path = GOLDEN / f"{case}.{stream}"
        golden = path.read_bytes() if path.exists() else None
        if fresh[stream] != golden:
            pytest.fail(_diff(case, stream, golden, fresh[stream]), pytrace=False)


def test_the_golden_directory_holds_only_the_cases_files():
    expected = {f"{case}.{stream}" for case in CASES for stream in STREAMS}
    assert set(golden_files()) <= expected, f"stray files; regenerate with `{REGENERATE}`"
