import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import bisected_synthesis_instance
from kfusion import cli
from kfusion.factorization import x_w
from kfusion.instances import canonical_text
from kfusion.numerics import AgreementError, spectral_norm

ABS_TOLERANCE = 1e-9

DATA = resources.files("kfusion") / "data"
R3 = str(DATA / "example_r3.json")
R4 = str(DATA / "example_r4.json")


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli.main, list(args))


def report_from(path):
    return json.loads(path.read_text())


# ----------------------------------------------------------- verify and bounds


def test_verify_passes_on_bundled_r3(runner):
    result = invoke(runner, "verify", "--in", R3)
    assert result.exit_code == 0
    assert "pass: true" in result.output


def test_bounds_report_values(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "bounds", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    report = report_from(out)
    assert report["command"] == "bounds"
    assert len(report["inputs"]) == 64
    np.testing.assert_allclose(
        [report["results"]["bounds"]["lower"], report["results"]["bounds"]["upper"]],
        [1.0, 2.0],
        atol=1e-10,
    )


def test_bounds_on_r4(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "bounds", "--in", R4, "--out", str(out))
    assert result.exit_code == 0
    report = report_from(out)
    np.testing.assert_allclose(
        [report["results"]["bounds"]["lower"], report["results"]["bounds"]["upper"]],
        [0.5, 1.0],
        atol=1e-10,
    )


def test_verify_other_system_by_name(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "verify", "--in", R3, "--system", "Z", "--out", str(out))
    assert result.exit_code == 0
    report = report_from(out)
    np.testing.assert_allclose(
        [report["results"]["bounds"]["lower"], report["results"]["bounds"]["upper"]],
        [1.5, 3.0],
        atol=1e-10,
    )


def test_unknown_system_is_an_input_error(runner):
    result = invoke(runner, "verify", "--in", R3, "--system", "Q")
    assert result.exit_code == 2
    assert "input error" in result.output


def test_missing_file_is_an_input_error(runner):
    result = invoke(runner, "verify", "--in", "nope.json")
    assert result.exit_code == 2


def test_malformed_file_is_an_input_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = invoke(runner, "verify", "--in", str(bad))
    assert result.exit_code == 2
    assert "input error" in result.output


def test_an_unreadable_instance_file_is_an_input_error(runner, monkeypatch):
    def unreadable(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "read_document", unreadable)
    result = invoke(runner, "verify", "--in", R3)
    assert result.exit_code == 2, result.output
    assert result.output == f"input error: [Errno 13] Permission denied: '{R3}'\n"


@pytest.mark.parametrize(
    "args", [("verify", "--in", R3), ("examples",), ("random",)], ids=lambda a: a[0]
)
def test_an_unwritable_out_path_is_an_input_error_that_prints_no_report(runner, tmp_path, args):
    out = tmp_path / "missing" / "report.json"
    result = invoke(runner, *args, "--out", str(out))
    assert result.exit_code == 2, result.output
    assert result.output == f"input error: [Errno 2] No such file or directory: '{out}'\n"
    assert not out.parent.exists()


def test_negative_tolerance_is_an_input_error(runner):
    result = invoke(runner, "verify", "--in", R3, "--tol", "-1")
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_an_input_error(runner, tmp_path, value):
    result = invoke(runner, "verify", "--in", R3, "--tol", value)
    assert result.exit_code == 2
    assert "input error" in result.output
    doc = json.loads((DATA / "example_r3.json").read_text())
    doc["options"]["tolerance"] = {"eq_abs": float(value)}
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, "verify", "--in", str(path))
    assert result.exit_code == 2
    assert "input error" in result.output


# (command, path to the field in example_r3.json, a value of the wrong type or not integral)
MALFORMED = {
    "member-number": ("verify", ("systems", "W", "members", 0), 5),
    "members-number": ("verify", ("systems", "W", "members"), 5),
    "ambient-dim-list": ("verify", ("ambient_dim",), [3]),
    "rows-list": ("verify", ("k_matrix", "rows"), [3]),
    "span-number": ("enlarge-dual", ("options", "enlarge", "span"), 5),
    "system-list": ("enlarge-dual", ("options", "enlarge", "system"), ["V0"]),
    "index-list": ("enlarge-dual", ("options", "enlarge", "index"), [2]),
    "ambient-dim-fraction": ("verify", ("ambient_dim",), 3.5),
    "index-fraction": ("enlarge-dual", ("options", "enlarge", "index"), 2.5),
    "index-boolean": ("enlarge-dual", ("options", "enlarge", "index"), True),
    "entry-string-overflow": ("verify", ("k_matrix", "entries", 0, 0), "1e400"),
    "entry-integer-overflow": ("verify", ("k_matrix", "entries", 0, 0), 10**400),
}


def _edited_r3(tmp_path, keys, value) -> str:
    """The path of a copy of example_r3.json with the field at ``keys`` set to ``value``."""
    *keys, last = keys
    doc = json.loads((DATA / "example_r3.json").read_text())
    field = doc
    for key in keys:
        field = field[key]
    field[last] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_field_is_an_input_error(runner, tmp_path, case):
    command, keys, value = MALFORMED[case]
    result = invoke(runner, command, "--in", _edited_r3(tmp_path, keys, value))
    assert result.exit_code == 2, result.output
    assert "input error" in result.output


# (command, path to the field in example_r3.json, a value with a JSON NaN or Infinity, its label)
NON_FINITE = {
    "k-row-of-floats": (
        "verify", ("k_matrix", "entries", 0), [np.nan, 0.0, 0.0], "k_matrix row 0[0]"
    ),
    "span-entry": (
        "verify",
        ("systems", "W", "members", 0, "span", 0, 2),
        np.inf,
        "system 'W' member 0 span vector 0[2]",
    ),
    "epsilon": (
        "perturb", ("options", "perturbation", "epsilon"), np.nan, "options.perturbation.epsilon"
    ),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_a_non_finite_number_is_an_input_error_that_names_its_field(runner, tmp_path, case):
    command, keys, value, label = NON_FINITE[case]
    result = invoke(runner, command, "--in", _edited_r3(tmp_path, keys, value))
    assert result.exit_code == 2, result.output
    assert f"input error: {label}: expected a finite number" in result.output


# --------------------------------------------------------------- factorization


def test_douglas_passes_on_the_residual_x_w_accepted(runner, tmp_path):
    # x_w allows eq_rel max(||K||, 1) = 1e-8; the zero rule at ||K|| would allow about 2e-9
    w, k, q = bisected_synthesis_instance(cols=4)
    sol = x_w(w, k)
    residual = sol.residual
    assert ABS_TOLERANCE * (1.0 + spectral_norm(k)) < residual
    assert sol.nullspace_match and sol.range_containment
    document = {
        "ambient_dim": 5,
        "k_matrix": {"rows": 5, "cols": 4, "entries": k.tolist()},
        "systems": {"W": {"members": [{"span": [q[:, i].tolist()], "weight": 1} for i in range(4)]}},
    }
    path = tmp_path / "bisected.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "report.json"
    result = invoke(runner, "douglas", "--in", str(path), "--out", str(out))
    assert result.exit_code == 0, result.output
    report = report_from(out)
    assert report["pass"]
    assert report["results"]["residual"] == residual


def test_douglas_unit_norm(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "douglas", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    results = report_from(out)["results"]
    assert abs(results["norm_sq"] - 1.0) <= 1e-10
    assert abs(results["lower_bound"] - 1.0) <= 1e-10
    assert results["nullspace_match"] and results["range_containment"]


# ------------------------------------------------------------------ dual suite


def test_qk_dual_members(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "qk-dual", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    results = report_from(out)["results"]
    assert results["member_dims"] == [2, 1, 1]
    assert results["residual"] <= 1e-12


def test_k_dual_accepts_both_bundled_duals(runner):
    assert invoke(runner, "k-dual", "--in", R3).exit_code == 0
    assert invoke(runner, "k-dual", "--in", R3, "--system", "V0").exit_code == 0


def test_k_dual_certified_failure_exits_one(runner, tmp_path):
    doc = json.loads((DATA / "example_r3.json").read_text())
    doc["systems"]["V"]["members"] = [
        {"span": [["0", "0", "1"]], "weight": "1"} for _ in range(3)
    ]
    path = tmp_path / "broken_dual.json"
    path.write_text(canonical_text(doc))
    result = invoke(runner, "k-dual", "--in", str(path))
    assert result.exit_code == 1
    assert "pass: false" in result.output


def test_canonical_dual_report(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "canonical-dual", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    results = report_from(out)["results"]
    assert results["member_dims"] == [2, 1, 1]
    assert abs(results["bessel_bound"] - 2.0) <= 1e-10
    assert abs(results["bessel_estimate"] - 4.0) <= 1e-8
    assert results["within_estimate"]


def test_enlarge_dual_grows_the_named_member(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "enlarge-dual", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    results = report_from(out)["results"]
    assert results["base_system"] == "V0"
    assert results["member_dims"] == [2, 1, 2]
    assert results["residual"] <= 1e-9


def test_enlarge_dual_requires_the_option(runner, tmp_path):
    doc = json.loads((DATA / "example_r3.json").read_text())
    del doc["options"]["enlarge"]
    path = tmp_path / "no_enlarge.json"
    path.write_text(canonical_text(doc))
    result = invoke(runner, "enlarge-dual", "--in", str(path))
    assert result.exit_code == 2
    assert "enlarge" in result.output


# ----------------------------------------------------------------- resolutions


def test_resolution_builds_all_three(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "resolution", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    results = report_from(out)["results"]
    for name in ("from_x", "projection", "inverse"):
        assert results[name]["passed"]
        assert results[name]["residual"] <= 1e-12


def test_minimal_norm_margins(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "minimal-norm", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    results = report_from(out)["results"]
    # the resolution of the distinguished solution meets both inequalities with equality
    assert results.keys() == {"plain_margin", "centered_margin"}
    for margin in results.values():
        assert np.abs(margin).max() <= 1e-12


# ---------------------------------------------------------------- perturbation


def test_perturb_certifies_bundled_parameters(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "perturb", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    results = report_from(out)["results"]
    assert results["certified"]
    assert results["decided_by"] == "certificate"
    assert not results["applicable"]
    assert results["witness"] is None
    assert abs(results["analysis_epsilon"] - np.sqrt(0.5)) <= 1e-9


def test_perturb_requires_parameters(runner, tmp_path):
    doc = json.loads((DATA / "example_r3.json").read_text())
    del doc["options"]["perturbation"]["epsilon"]
    path = tmp_path / "no_eps.json"
    path.write_text(canonical_text(doc))
    result = invoke(runner, "perturb", "--in", str(path))
    assert result.exit_code == 2
    assert "epsilon" in result.output


def test_approx_dual_residual(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "approx-dual", "--in", R3, "--out", str(out))
    assert result.exit_code == 0
    results = report_from(out)["results"]
    assert abs(results["residual"] - np.sqrt(2.0) / 3.0) <= 1e-9


# ------------------------------------------------------------ examples, random

EXAMPLE_NAMES = [
    "plane-line system on R^4 has optimal bounds (1/2, 1)",
    "plane-line system on R^4 is minimal",
    "dropping the line keeps bounds (1/2, 1), so the system is not exact",
    "plane-line-line system on R^3 has optimal bounds (1, 2)",
    "minimal synthesis solution has unit norm with certified range and nullspace",
    "frame operator restricted to range(K) and its pseudo-inverse match",
    "canonical dual members are span{e1,e2}, span{e2}, span{e1}",
    "enlarging the third dual member by e3 keeps the reconstruction exact",
    "the minimal solution generates the same dual family with a certified Q",
    "the bundled enlarged dual reconstructs K",
    "both closed-form resolutions rebuild K exactly with positive bounds",
    "merged-member frame operator on range(K) and its pseudo-inverse match",
    "merged-member system has optimal bounds (3/2, 3)",
    "smallest perturbation constant equals sqrt(2)/2",
    "dual deviation sqrt(2)/6, dual norm 1/2, stability threshold 7/9",
    "the enlarged dual stays an approximate dual of the merged system",
    "epsilon 1/2 predicts the window (1/4, 9/2) containing the true bounds",
]


def test_examples_golden_suite_passes(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "examples", "--out", str(out))
    assert result.exit_code == 0
    report = report_from(out)
    assert report["pass"]
    assert report["results"]["failed"] == []
    assert report["results"]["total"] == 17
    assert [check["name"] for check in report["results"]["checks"]] == EXAMPLE_NAMES


def test_examples_table_and_observations_share_their_ids(runner):
    table = cli._bundled_document("examples.json")
    assert list(cli._golden_observations(cli.DEFAULT_TOL)) == list(table)
    assert [entry["name"] for entry in table.values()] == EXAMPLE_NAMES
    result = invoke(runner, "examples", "--tol", "1e-6")
    assert result.exit_code == 0
    assert json.loads(stdout_lines(result.output)["failed"]) == []


def _examples_with(monkeypatch, check_id, path, change):
    """Run ``examples`` with one expected value of the table replaced by ``change(value)``."""
    load = cli._bundled_document

    def patched(name):
        document = load(name)
        if name == "examples.json":
            *parents, last = (check_id, "expected", *path)
            node = document
            for key in parents:
                node = node[key]
            node[last] = change(node[last])
        return document

    monkeypatch.setattr(cli, "_bundled_document", patched)
    return invoke(CliRunner(), "examples")


@pytest.mark.parametrize(
    "check_id, path",
    [
        ("r3-bounds", ("bounds", "lower")),
        ("frame-operator", ("pseudo_inverse", 0, 1)),
        ("threshold", ("threshold",)),
    ],
)
def test_an_expected_value_shifted_by_1e_9_fails_only_its_check(monkeypatch, check_id, path):
    result = _examples_with(
        monkeypatch, check_id, path, lambda v: str(Fraction(v) + Fraction(1, 10**9))
    )
    assert result.exit_code == 1
    name = cli._bundled_document("examples.json")[check_id]["name"]
    assert json.loads(stdout_lines(result.output)["failed"]) == [name]


def test_an_expected_true_is_not_met_by_an_observed_false(monkeypatch):
    result = _examples_with(monkeypatch, "r4-not-exact", ("exact",), lambda v: True)
    assert result.exit_code == 1
    assert json.loads(stdout_lines(result.output)["failed"]) == [EXAMPLE_NAMES[2]]


def test_a_resolution_without_a_positive_lower_bound_fails_only_its_check(monkeypatch):
    real = cli.verify_resolution
    monkeypatch.setattr(
        cli, "verify_resolution", lambda *args: dataclasses.replace(real(*args), lower=0.0)
    )
    result = invoke(CliRunner(), "examples")
    assert result.exit_code == 1
    assert json.loads(stdout_lines(result.output)["failed"]) == [EXAMPLE_NAMES[10]]


def test_booleans_match_only_booleans():
    assert cli._matches(True, True) and cli._matches(False, False)
    assert not cli._matches(False, True)
    assert not cli._matches(1, True) and not cli._matches(1.0, True)
    assert not cli._matches(True, 1) and not cli._matches(False, "0")
    assert not cli._matches({"a": 1, "b": 2}, {"a": 1})
    assert not cli._matches([1, 2], [1, 2, 3])


def test_random_is_reproducible(runner, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    r1 = invoke(runner, "random", "--seed", "5", "--out", str(first))
    r2 = invoke(runner, "random", "--seed", "5", "--out", str(second))
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert first.read_text() == second.read_text()
    assert r1.output == r2.output


def test_random_saved_instance_loads_back(runner, tmp_path):
    path = tmp_path / "gen.json"
    result = invoke(
        runner, "random", "--seed", "9", "--dim", "5", "--members", "4",
        "--rank", "3", "--out", str(path),
    )
    assert result.exit_code == 0
    verify = invoke(runner, "bounds", "--in", str(path))
    assert verify.exit_code in (0, 1)


def test_reports_are_bit_stable(runner, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    invoke(runner, "verify", "--in", R3, "--out", str(first))
    invoke(runner, "verify", "--in", R3, "--out", str(second))
    assert first.read_text() == second.read_text()


def test_loose_tolerance_flag_threads_through(runner):
    result = invoke(runner, "verify", "--in", R3, "--tol", "1e-6")
    assert result.exit_code == 0


def test_numerical_disagreement_exits_three(runner, monkeypatch):
    def explode(*args, **kwargs):
        raise AgreementError("forced disagreement")

    monkeypatch.setattr(cli, "verify_k_fusion", explode)
    result = invoke(runner, "verify", "--in", R3)
    assert result.exit_code == 3
    assert "numerical failure" in result.output


def test_module_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "kfusion.cli", "bounds", "--in", R3],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pass: true" in proc.stdout


# ---------------------------------------------------------- the command table

INSTANCE_COMMANDS = [
    "verify",
    "bounds",
    "douglas",
    "qk-dual",
    "k-dual",
    "canonical-dual",
    "enlarge-dual",
    "resolution",
    "minimal-norm",
    "perturb",
    "approx-dual",
]


def stdout_lines(output):
    return dict(line.split(": ", 1) for line in output.splitlines() if ": " in line)


@pytest.mark.parametrize("command", INSTANCE_COMMANDS)
def test_instance_command_stdout_matches_out_file(runner, tmp_path, command):
    out = tmp_path / "report.json"
    result = invoke(runner, command, "--in", R3, "--out", str(out))
    report = report_from(out)
    lines = stdout_lines(result.output)
    assert report["command"] == command
    assert lines["command"] == command
    assert lines["inputs"] == report["inputs"]
    assert json.loads(lines["pass"]) is report["pass"]
    assert result.exit_code == (0 if report["pass"] else 1)


def test_instance_tolerance_applies_when_spans_load(runner, tmp_path):
    # at rank_rel 1e-5 the span {(1,0), (1,1e-7)} is a line, and e2 = range(K) leaves it
    doc = {
        "ambient_dim": 2,
        "k_matrix": {"rows": 2, "cols": 2, "entries": [[0, 0], [0, 1]]},
        "systems": {"W": {"members": [{"span": [[1, 0], [1, 1e-7]]}]}},
        "options": {"tolerance": {"rank_rel": 1e-5}},
    }
    path = tmp_path / "near_line.json"
    path.write_text(canonical_text(doc))
    result = invoke(runner, "verify", "--in", str(path))
    assert result.exit_code == 1
    assert "pass: false" in result.output


def test_tolerance_flag_enters_the_digest(runner):
    default = stdout_lines(invoke(runner, "bounds", "--in", R3).output)["inputs"]
    loose = stdout_lines(invoke(runner, "bounds", "--in", R3, "--tol", "1e-3").output)["inputs"]
    assert default == "5a9c73efbe74d10ac0d092f891721ccb340a3921b805a30ffe9fb20447147bc0"
    assert loose != default


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kfusion.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_library_warnings_print_once_without_source_paths():
    # the QK-dual of example_r4 has a zero-dimensional member, which warns
    proc = subprocess.run(
        [sys.executable, "-m", "kfusion.cli", "qk-dual", "--in", R4],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "warning: zero-dimensional members contribute nothing and are skipped"
    ]
    assert ".py" not in proc.stderr
    assert "warning" not in proc.stdout
