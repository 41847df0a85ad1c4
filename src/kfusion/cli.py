"""Command surface: instance files in, certified reports out.

Exit codes: 0 the check passed, 1 a certified mathematical failure,
2 input error, 3 two independent computations disagreed.

Each subcommand that reads an instance file is a function registered with
``instance_command``, which owns what they share: options, loading,
tolerance, digest, report and exit code.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import click
import numpy as np

from .duality import canonical_k_dual, enlarge_dual, is_k_dual, qk_dual_from_x
from .factorization import x_w
from .frames import (
    frame_analysis,
    frame_operator,
    is_exact,
    is_minimal,
    subspace_from_spanning,
    verify_k_fusion,
)
from .instances import (
    canonical_text,
    document_digest,
    instance_from_document,
    parse_int,
    parse_number,
    random_instance,
    read_document,
    save_instance,
)
from .numerics import (
    DEFAULT_TOL,
    AgreementError,
    ToleranceProfile,
    spectral_norm,
)
from .perturbation import (
    analysis_epsilon,
    approximate_dual_norm,
    certify_perturbation,
    epsilon_threshold,
    perturbed_bounds,
)
from .resolution import (
    minimal_norm_check,
    resolution_b,
    resolution_c,
    resolution_from_x,
    verify_resolution,
)


@dataclass
class Report:
    """One command run: inputs digest, structured results, overall verdict."""

    command: str
    inputs: str
    results: dict
    passed: bool


def _mat(m) -> list:
    return [[float(x) for x in row] for row in np.atleast_2d(np.asarray(m, dtype=float))]


def _vec(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=float).reshape(-1)]


def _bounds_dict(bounds) -> dict:
    if bounds is None:
        return None
    return {"lower": float(bounds.lower), "upper": float(bounds.upper)}


def _emit(report: Report, out_path) -> None:
    click.echo(f"command: {report.command}")
    click.echo(f"inputs: {report.inputs}")
    for key in sorted(report.results):
        click.echo(f"{key}: {json.dumps(report.results[key], sort_keys=True)}")
    click.echo(f"pass: {json.dumps(report.passed)}")
    if out_path:
        document = {
            "command": report.command,
            "inputs": report.inputs,
            "results": report.results,
            "pass": report.passed,
        }
        Path(out_path).write_text(canonical_text(document))


def _digest(command: str, document, flags: dict, tol_flag) -> str:
    if tol_flag is not None:
        flags = {**flags, "tol": tol_flag}
    return document_digest({"command": command, "flags": flags, "instance": document})


def _tolerance(document, tol_flag) -> ToleranceProfile:
    """The profile from ``--tol`` if given, else from the document's ``options.tolerance``."""
    if tol_flag is not None:
        return ToleranceProfile(eq_abs=tol_flag, eq_rel=10.0 * tol_flag)
    # a malformed document or options block is reported when the instance is built
    options = document.get("options") if isinstance(document, dict) else None
    overrides = options.get("tolerance", {}) if isinstance(options, dict) else {}
    if not isinstance(overrides, dict):
        raise ValueError("options.tolerance must be an object")
    kwargs = {
        name: parse_number(overrides[name], f"options.tolerance.{name}")
        for name in ("rank_rel", "eq_abs", "eq_rel")
        if name in overrides
    }
    return ToleranceProfile(**kwargs) if kwargs else DEFAULT_TOL


def _run(build, out_path=None) -> None:
    """Emit the report ``build()`` returns and exit with the code the module docstring lists.

    Library warnings raised while building print on stderr, once per message,
    as ``warning: <message>``.
    """
    try:
        # recorded under the active filters, so warnings they ignore stay ignored
        with warnings.catch_warnings(record=True) as caught:
            try:
                report = build()
            finally:
                for message in dict.fromkeys(str(w.message) for w in caught):
                    click.echo(f"warning: {message}", err=True)
    except ValueError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    except AgreementError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    _emit(report, out_path)
    sys.exit(0 if report.passed else 1)


_tol_option = click.option(
    "--tol",
    "tol_flag",
    type=float,
    default=None,
    help="absolute equality tolerance; the relative tolerance is set to 10x",
)
_out_option = click.option("--out", "out_path", default=None, help="write the report as JSON")


@click.group()
def main():
    """Finite-dimensional K-fusion frame computations with certified reports."""


def instance_command(name: str, system=None):
    """Register ``compute(instance, tol, **options) -> (flags, results, passed)`` as ``name``.

    Options: ``--in``, ``--tol``, ``--out``, then ``--system`` if ``system`` gives
    its (default, help). The help text is compute's docstring.
    """
    in_option = click.option(
        "--in",
        "in_path",
        required=True,
        type=click.Path(exists=True, dir_okay=False),
        help="instance file to load",
    )
    options = [in_option, _tol_option, _out_option]
    if system is not None:
        options.append(click.option("--system", "system_name", default=system[0], help=system[1]))

    def register(compute):
        def callback(in_path, tol_flag, out_path, **kwargs):
            def build() -> Report:
                document = read_document(in_path)
                tol = _tolerance(document, tol_flag)
                instance = instance_from_document(document, tol)
                flags, results, passed = compute(instance, tol, **kwargs)
                return Report(name, _digest(name, document, flags, tol_flag), results, passed)

            _run(build, out_path)

        for option in reversed(options):
            callback = option(callback)
        main.command(name, help=compute.__doc__)(callback)
        return compute

    return register


@instance_command("verify", system=("W", "system to verify"))
def verify(instance, tol, system_name):
    """Check the K-fusion frame condition for one named system."""
    cert = verify_k_fusion(instance.system(system_name), instance.k_matrix, tol)
    results = {
        "system": system_name,
        "bounds": _bounds_dict(cert.bounds),
        "message": cert.message,
    }
    return {"system": system_name}, results, cert.passed


@instance_command("bounds", system=("W", "system to bound"))
def bounds(instance, tol, system_name):
    """Report the optimal frame bounds of one named system."""
    cert = verify_k_fusion(instance.system(system_name), instance.k_matrix, tol)
    results = {"system": system_name, "bounds": _bounds_dict(cert.bounds)}
    return {"system": system_name}, results, cert.passed


@instance_command("douglas")
def douglas(instance, tol):
    """Solve the synthesis equation for K and certify the minimal solution."""
    # x_w raises AgreementError unless its residual passes, so it is not decided again here
    sol = x_w(instance.system("W"), instance.k_matrix, tol)
    ok = bool(sol.nullspace_match and sol.range_containment)
    results = {
        "norm_sq": sol.norm_sq,
        "alpha_inf": sol.alpha_inf,
        "lower_bound": float("inf") if sol.norm_sq == 0.0 else 1.0 / sol.norm_sq,
        "nullspace_match": sol.nullspace_match,
        "range_containment": sol.range_containment,
        "residual": sol.residual,
    }
    return {}, results, ok


@instance_command("qk-dual")
def qk_dual(instance, tol):
    """Build the dual generated by the minimal synthesis solution."""
    w, k = instance.system("W"), instance.k_matrix
    dual, q, cert = qk_dual_from_x(w, k, x_w(w, k, tol), tol)
    results = {
        "member_dims": dual.dims(),
        "q_norm": float(spectral_norm(q)),
        "residual": float(cert.residual),
    }
    return {}, results, cert.passed


@instance_command("k-dual", system=("V", "candidate dual system"))
def k_dual(instance, tol, system_name):
    """Check the reconstruction identity for a named candidate dual."""
    cert = is_k_dual(
        instance.system("W"), instance.system(system_name), instance.k_matrix, tol
    )
    results = {"system": system_name, "residual": float(cert.residual)}
    return {"system": system_name}, results, cert.passed


@instance_command("canonical-dual")
def canonical_dual(instance, tol):
    """Build the canonical K-dual and report its Bessel bound."""
    dual, cert, info = canonical_k_dual(instance.system("W"), instance.k_matrix, tol)
    results = {
        "member_dims": dual.dims(),
        "residual": float(cert.residual),
        "bessel_bound": float(info["bessel_bound"]),
        "bessel_estimate": float(info["bessel_estimate"]),
        "within_estimate": bool(info["within_estimate"]),
    }
    return {}, results, cert.passed and bool(info["within_estimate"])


@instance_command("enlarge-dual")
def enlarge_dual_cmd(instance, tol):
    """Extend one dual member by the orthogonal summand named in the instance."""
    opts = instance.options.get("enlarge")
    if not isinstance(opts, dict):
        raise ValueError("instance option 'enlarge' is required for this command")
    base = instance.system(opts.get("system", "V"))
    try:
        index = parse_int(opts["index"], "options.enlarge.index")
        span = opts["span"]
    except KeyError as exc:
        raise ValueError(f"options.enlarge: missing field {exc.args[0]!r}") from exc
    if not isinstance(span, list) or not all(isinstance(vec, list) for vec in span):
        raise ValueError("options.enlarge.span: expected a list of vectors")
    vectors = [
        np.array([parse_number(x, f"options.enlarge span vector {j}") for x in vec])
        for j, vec in enumerate(span)
    ]
    summand = subspace_from_spanning(vectors, tol)
    enlarged, cert = enlarge_dual(
        instance.system("W"), instance.k_matrix, base, index, summand, tol
    )
    results = {
        "base_system": opts.get("system", "V"),
        "index": index,
        "member_dims": enlarged.dims(),
        "residual": float(cert.residual),
    }
    return {}, results, cert.passed


@instance_command("resolution")
def resolution(instance, tol):
    """Build and verify the three standard operator resolutions of K."""
    w, k = instance.system("W"), instance.k_matrix
    built = {
        "from_x": resolution_from_x(w, k, x_w(w, k, tol), tol),
        "projection": resolution_b(w, k, tol),
        "inverse": resolution_c(w, k, tol),
    }
    results, ok = {}, True
    for name, res in built.items():
        check = verify_resolution(res, k, tol)
        ok = ok and check.passed
        results[name] = {
            "passed": check.passed,
            "residual": float(check.residual),
            "lower": float(check.lower),
            "upper": float(check.upper),
        }
    return {}, results, ok


@instance_command("minimal-norm")
def minimal_norm(instance, tol):
    """Check pointwise norm minimality of the resolution from the minimal solution."""
    w, k = instance.system("W"), instance.k_matrix
    res = resolution_from_x(w, k, x_w(w, k, tol), tol)
    outcome = minimal_norm_check(w, k, res, tol)
    results = {
        "plain_margin": [float(x) for x in outcome.plain_margin],
        "centered_margin": [float(x) for x in outcome.centered_margin],
    }
    return {}, results, outcome.passed


@instance_command("perturb", system=("Z", "perturbed system"))
def perturb(instance, tol, system_name):
    """Certify or falsify the three-parameter perturbation hypothesis."""
    params = instance.options.get("perturbation")
    if not isinstance(params, dict):
        raise ValueError("instance option 'perturbation' is required for this command")
    try:
        values = {
            name: parse_number(params[name], f"options.perturbation.{name}")
            for name in ("epsilon", "lambda1", "lambda2")
        }
    except KeyError as exc:
        raise ValueError(f"options.perturbation: missing field {exc.args[0]!r}") from exc
    w, z, k = instance.system("W"), instance.system(system_name), instance.k_matrix
    outcome = certify_perturbation(
        w, z, k, values["lambda1"], values["lambda2"], values["epsilon"], tol
    )
    results = {
        "system": system_name,
        **values,
        "analysis_epsilon": float(analysis_epsilon(w, z, k, tol)),
        "certified": outcome.certified,
        "decided_by": outcome.decided_by,
        "applicable": outcome.applicable,
        "epsilon_threshold": float(outcome.epsilon_threshold),
        "predicted_bounds": _bounds_dict(outcome.predicted_bounds),
        "actual_bounds": _bounds_dict(outcome.actual_bounds),
        "witness": None
        if outcome.falsified_witness is None
        else _vec(outcome.falsified_witness),
    }
    return {"system": system_name}, results, outcome.certified


@instance_command("approx-dual", system=("V", "candidate dual system"))
def approx_dual(instance, tol, system_name):
    """Measure how far a candidate dual's reconstruction sits from K."""
    cert = approximate_dual_norm(
        instance.system("Z"), instance.system(system_name), instance.k_matrix, tol
    )
    results = {"system": system_name, "residual": float(cert.residual)}
    return {"system": system_name}, results, cert.passed


def _bundled_document(name: str) -> dict:
    return json.loads(resources.files(__package__).joinpath("data", name).read_text())


# every expected number of examples.json is held to this absolute distance,
# whatever tolerance the library runs under
_EXAMPLES_ABS = 1e-10


def _matches(observed, expected) -> bool:
    """Whether ``observed`` has the shape of ``expected`` and agrees with it.

    Dicts (same keys) and lists (same length) recurse, booleans compare
    exactly, and numbers (``expected`` as ``parse_number`` reads it) agree
    within ``_EXAMPLES_ABS``.
    """
    if isinstance(expected, dict):
        return (
            isinstance(observed, dict)
            and observed.keys() == expected.keys()
            and all(_matches(observed[key], expected[key]) for key in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(observed, list)
            and len(observed) == len(expected)
            and all(_matches(o, e) for o, e in zip(observed, expected))
        )
    if isinstance(expected, bool) or isinstance(observed, bool):
        return observed is expected
    if not isinstance(observed, (int, float)):
        return False
    return abs(observed - parse_number(expected, "examples.json")) <= _EXAMPLES_ABS


def _certified(cert) -> dict:
    return {"passed": bool(cert.passed), "bounds": _bounds_dict(cert.bounds)}


def _reconstructs(check) -> dict:
    return {"passed": bool(check.passed), "residual": float(check.residual)}


def _resolves(check) -> dict:
    return {**_reconstructs(check), "positive_lower": bool(check.lower > 0.0)}


def _dual_family(dual, cert) -> dict:
    return {
        "passed": bool(cert.passed),
        "member_dims": dual.dims(),
        "member_projectors": [_mat(sub.projector()) for sub, _ in dual.members],
    }


def _golden_observations(tol: ToleranceProfile) -> dict:
    """Check id -> what the library computes for it on the bundled examples."""
    r4 = instance_from_document(_bundled_document("example_r4.json"), tol)
    w4, k4 = r4.system("W"), r4.k_matrix
    r3 = instance_from_document(_bundled_document("example_r3.json"), tol)
    w, z, k = r3.system("W"), r3.system("Z"), r3.k_matrix
    u_k = frame_analysis(w, k, tol).k_factors.u
    s_w, s_z = (frame_operator(s) @ (u_k @ u_k.T) for s in (w, z))
    inv_w, inv_z = (frame_analysis(s, k, tol).inverse_on_image for s in (w, z))
    sol = x_w(w, k, tol)
    dual, dual_cert, _ = canonical_k_dual(w, k, tol)
    e3 = subspace_from_spanning([np.array([0.0, 0.0, 1.0])], tol)
    enlarged, enlarge_cert = enlarge_dual(w, k, r3.system("V0"), 2, e3, tol)
    qk_members, _, qk_cert = qk_dual_from_x(w, k, sol, tol)
    threshold = epsilon_threshold(w, z, k, tol)
    predicted, window_cert = perturbed_bounds(w, z, k, 0.5, tol)
    return {
        "r4-bounds": _certified(verify_k_fusion(w4, k4, tol)),
        "r4-minimal": {"minimal": bool(is_minimal(w4, tol))},
        "r4-not-exact": {
            "exact": bool(is_exact(w4, k4, tol).exact),
            "dropped": _certified(verify_k_fusion(w4.drop(1), k4, tol)),
        },
        "r3-bounds": _certified(verify_k_fusion(w, k, tol)),
        "x-w": {
            "norm_sq": float(sol.norm_sq),
            "nullspace_match": bool(sol.nullspace_match),
            "range_containment": bool(sol.range_containment),
        },
        "frame-operator": {"on_range": _mat(s_w), "pseudo_inverse": _mat(inv_w)},
        "canonical-dual": _dual_family(dual, dual_cert),
        "enlarge-dual": {
            **_reconstructs(enlarge_cert),
            "member_2_projector": _mat(enlarged.members[2][0].projector()),
        },
        "qk-dual": _dual_family(qk_members, qk_cert),
        "bundled-dual": _reconstructs(is_k_dual(w, r3.system("V"), k, tol)),
        "resolutions": {
            "projection": _resolves(verify_resolution(resolution_b(w, k, tol), k, tol)),
            "inverse": _resolves(verify_resolution(resolution_c(w, k, tol), k, tol)),
        },
        "merged-frame-operator": {
            "on_range": _mat(s_z),
            "pseudo_inverse": _mat(inv_z),
        },
        "merged-bounds": _certified(verify_k_fusion(z, k, tol)),
        "epsilon-star": {"analysis_epsilon": float(analysis_epsilon(w, z, k, tol))},
        "threshold": {
            "vacuous": bool(threshold.vacuous),
            "deviation": float(threshold.deviation),
            "dual_norm": float(threshold.dual_norm),
            "threshold": float(threshold.threshold),
        },
        "approx-dual": _reconstructs(approximate_dual_norm(z, r3.system("V"), k, tol)),
        "window": {"predicted": _bounds_dict(predicted), "actual": _certified(window_cert)},
    }


@main.command()
@_tol_option
@_out_option
def examples(tol_flag, out_path):
    """Reproduce every bundled worked example and fail on any mismatch."""

    def build() -> Report:
        observed = _golden_observations(_tolerance(None, tol_flag))
        checks = [
            {
                "name": entry["name"],
                "ok": _matches(observed[check_id], entry["expected"]),
                "observed": observed[check_id],
            }
            for check_id, entry in _bundled_document("examples.json").items()
        ]
        failed = [c["name"] for c in checks if not c["ok"]]
        inputs = {
            "command": "examples",
            "instances": [_bundled_document(f"example_r{n}.json") for n in (3, 4)],
        }
        if tol_flag is not None:
            inputs["flags"] = {"tol": tol_flag}
        results = {"checks": checks, "failed": failed, "total": len(checks)}
        return Report("examples", document_digest(inputs), results, not failed)

    _run(build, out_path)


@main.command("random")
@click.option("--out", "out_path", default=None, help="save the generated instance")
@_tol_option
@click.option("--seed", type=int, default=0, help="generator seed")
@click.option("--dim", "ambient_dim", type=int, default=4, help="ambient dimension")
@click.option("--members", "member_count", type=int, default=3, help="member count")
@click.option("--rank", "rank_k", type=int, default=2, help="numerical rank of K")
def random_cmd(out_path, tol_flag, seed, ambient_dim, member_count, rank_k):
    """Generate a seeded random instance, verify it, and optionally save it."""

    def build() -> Report:
        instance = random_instance(seed, ambient_dim, member_count, rank_k)
        tol = _tolerance(instance.document, tol_flag)
        if out_path:
            save_instance(instance, out_path)
        w, k = instance.system("W"), instance.k_matrix
        cert = verify_k_fusion(w, k, tol)
        results = {
            "seed": seed,
            "ambient_dim": ambient_dim,
            "member_dims": w.dims(),
            "k_rank": frame_analysis(w, k, tol).k_factors.singular_values.size,
            "verified": cert.passed,
            "bounds": _bounds_dict(cert.bounds),
        }
        digest = _digest("random", instance.document, {"seed": seed}, tol_flag)
        return Report("random", digest, results, True)

    _run(build)


if __name__ == "__main__":
    main()
