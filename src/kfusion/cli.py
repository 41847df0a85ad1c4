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
    frame_operator,
    is_exact,
    is_minimal,
    range_projector,
    same_subspace,
    subspace_from_spanning,
    verify_k_fusion,
)
from .instances import (
    canonical_text,
    document_digest,
    instance_from_document,
    parse_number,
    random_instance,
    read_document,
    save_instance,
)
from .numerics import (
    DEFAULT_TOL,
    AgreementError,
    ToleranceProfile,
    negligible,
    numerical_rank,
    pinv,
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
        if tol_flag <= 0.0:
            raise ValueError("tolerance must be positive")
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


def instance_command(name: str, *options, system=None):
    """Register ``compute(instance, tol, **options) -> (flags, results, passed)`` as ``name``.

    Options: ``--in``, ``--tol``, ``--out``, then ``--system`` if ``system`` gives
    its (default, help), then ``options``. The help text is compute's docstring.
    """
    if system is not None:
        system_option = click.option("--system", "system_name", default=system[0], help=system[1])
        options = (system_option, *options)
    in_option = click.option(
        "--in",
        "in_path",
        required=True,
        type=click.Path(exists=True, dir_okay=False),
        help="instance file to load",
    )

    def register(compute):
        def callback(in_path, tol_flag, out_path, **kwargs):
            def build() -> Report:
                document = read_document(in_path)
                tol = _tolerance(document, tol_flag)
                instance = instance_from_document(document, tol)
                flags, results, passed = compute(instance, tol, **kwargs)
                return Report(name, _digest(name, document, flags, tol_flag), results, passed)

            _run(build, out_path)

        for option in reversed((in_option, _tol_option, _out_option, *options)):
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
    sol = x_w(instance.system("W"), instance.k_matrix, tol)
    ok = bool(
        sol.nullspace_match
        and sol.range_containment
        and negligible(sol.residual, spectral_norm(instance.k_matrix), tol)
    )
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
        index = int(opts["index"])
        span = opts["span"]
    except KeyError as exc:
        raise ValueError(f"options.enlarge: missing field {exc.args[0]!r}") from exc
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
        "samples": outcome.samples,
    }
    return {}, results, outcome.passed


@instance_command(
    "perturb",
    click.option("--seed", type=int, default=None, help="enters the digest; changes nothing"),
    system=("Z", "perturbed system"),
)
def perturb(instance, tol, system_name, seed):
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
    # nothing is drawn at random; the seed stays in the digest so reports keep their bytes
    use_seed = seed if seed is not None else int(instance.options.get("seed", 0))
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
    return {"seed": use_seed, "system": system_name}, results, outcome.certified


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


def _check(checks, name, ok, **observed):
    entry = {"name": name, "ok": bool(ok)}
    if observed:
        entry["observed"] = observed
    checks.append(entry)


def _golden_checks(tol: ToleranceProfile) -> list:
    checks = []

    r4 = instance_from_document(_bundled_document("example_r4.json"), tol)
    w4, k4 = r4.system("W"), r4.k_matrix
    cert4 = verify_k_fusion(w4, k4, tol)
    _check(
        checks,
        "plane-line system on R^4 has optimal bounds (1/2, 1)",
        cert4.passed
        and abs(cert4.bounds.lower - 0.5) <= 1e-8
        and abs(cert4.bounds.upper - 1.0) <= 1e-8,
        bounds=_bounds_dict(cert4.bounds),
    )
    _check(checks, "plane-line system on R^4 is minimal", is_minimal(w4, tol))
    exact4 = is_exact(w4, k4, tol)
    dropped = verify_k_fusion(w4.drop(1), k4, tol)
    _check(
        checks,
        "dropping the line keeps bounds (1/2, 1), so the system is not exact",
        (not exact4.exact)
        and dropped.passed
        and abs(dropped.bounds.lower - 0.5) <= 1e-8
        and abs(dropped.bounds.upper - 1.0) <= 1e-8,
        bounds=_bounds_dict(dropped.bounds),
    )

    r3 = instance_from_document(_bundled_document("example_r3.json"), tol)
    w, k = r3.system("W"), r3.k_matrix
    cert3 = verify_k_fusion(w, k, tol)
    _check(
        checks,
        "plane-line-line system on R^3 has optimal bounds (1, 2)",
        cert3.passed
        and abs(cert3.bounds.lower - 1.0) <= 1e-8
        and abs(cert3.bounds.upper - 2.0) <= 1e-8,
        bounds=_bounds_dict(cert3.bounds),
    )

    sol = x_w(w, k, tol)
    _check(
        checks,
        "minimal synthesis solution has unit norm with certified range and nullspace",
        abs(sol.norm_sq - 1.0) <= 1e-8
        and sol.nullspace_match
        and sol.range_containment,
        norm_sq=sol.norm_sq,
    )

    s_on_range = frame_operator(w) @ range_projector(k, tol)
    s_target = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    s_inv_target = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.5]])
    _check(
        checks,
        "frame operator restricted to range(K) and its pseudo-inverse match",
        np.max(np.abs(s_on_range - s_target)) <= 1e-10
        and np.max(np.abs(pinv(s_on_range, tol) - s_inv_target)) <= 1e-10,
        frame_operator_on_range=_mat(s_on_range),
    )

    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    dual, dual_cert, _ = canonical_k_dual(w, k, tol)
    expected = [
        subspace_from_spanning([e1, e2], tol),
        subspace_from_spanning([e2], tol),
        subspace_from_spanning([e1], tol),
    ]
    _check(
        checks,
        "canonical dual members are span{e1,e2}, span{e2}, span{e1}",
        dual_cert.passed
        and dual.dims() == [2, 1, 1]
        and all(
            same_subspace(sub, want, tol)
            for (sub, _), want in zip(dual.members, expected)
        ),
        member_dims=dual.dims(),
        residual=float(dual_cert.residual),
    )

    enlarged, enlarge_cert = enlarge_dual(
        w, k, r3.system("V0"), 2, subspace_from_spanning([e3], tol), tol
    )
    _check(
        checks,
        "enlarging the third dual member by e3 keeps the reconstruction exact",
        enlarge_cert.passed
        and enlarge_cert.residual <= 1e-9
        and same_subspace(
            enlarged.members[2][0], subspace_from_spanning([e1, e3], tol), tol
        ),
        residual=float(enlarge_cert.residual),
    )

    qk_members, _, qk_cert = qk_dual_from_x(w, k, sol, tol)
    _check(
        checks,
        "the minimal solution generates the same dual family with a certified Q",
        qk_cert.passed
        and qk_members.dims() == [2, 1, 1]
        and all(
            same_subspace(sub, want, tol)
            for (sub, _), want in zip(qk_members.members, expected)
        ),
        member_dims=qk_members.dims(),
    )

    bundled_cert = is_k_dual(w, r3.system("V"), k, tol)
    _check(
        checks,
        "the bundled enlarged dual reconstructs K",
        bundled_cert.passed,
        residual=float(bundled_cert.residual),
    )

    res_ok, res_observed = True, {}
    for name, res in (
        ("projection", resolution_b(w, k, tol)),
        ("inverse", resolution_c(w, k, tol)),
    ):
        gap = spectral_norm(res.weighted_sum() - k)
        check = verify_resolution(res, k, tol)
        res_ok = res_ok and check.passed and gap <= 1e-10
        res_observed[name] = {"residual": float(gap), "lower": float(check.lower)}
    _check(
        checks,
        "both closed-form resolutions rebuild K exactly with positive bounds",
        res_ok,
        **res_observed,
    )

    z = r3.system("Z")
    s_z = frame_operator(z) @ range_projector(k, tol)
    z_target = np.array([[1.5, 1.5, 0.0], [1.5, 1.5, 0.0], [0.0, 0.0, 2.0]])
    z_inv_target = np.array(
        [[1.0 / 6.0, 1.0 / 6.0, 0.0], [1.0 / 6.0, 1.0 / 6.0, 0.0], [0.0, 0.0, 0.5]]
    )
    _check(
        checks,
        "merged-member frame operator on range(K) and its pseudo-inverse match",
        np.max(np.abs(s_z - z_target)) <= 1e-10
        and np.max(np.abs(pinv(s_z, tol) - z_inv_target)) <= 1e-10,
        frame_operator_on_range=_mat(s_z),
    )

    cert_z = verify_k_fusion(z, k, tol)
    _check(
        checks,
        "merged-member system has optimal bounds (3/2, 3)",
        cert_z.passed
        and abs(cert_z.bounds.lower - 1.5) <= 1e-8
        and abs(cert_z.bounds.upper - 3.0) <= 1e-8,
        bounds=_bounds_dict(cert_z.bounds),
    )

    eps_star = analysis_epsilon(w, z, k, tol)
    _check(
        checks,
        "smallest perturbation constant equals sqrt(2)/2",
        abs(eps_star - np.sqrt(2.0) / 2.0) <= 1e-9,
        analysis_epsilon=float(eps_star),
    )

    threshold = epsilon_threshold(w, z, k, tol)
    _check(
        checks,
        "dual deviation sqrt(2)/6, dual norm 1/2, stability threshold 7/9",
        (not threshold.vacuous)
        and abs(threshold.deviation - np.sqrt(2.0) / 6.0) <= 1e-9
        and abs(threshold.dual_norm - 0.5) <= 1e-9
        and abs(threshold.threshold - 7.0 / 9.0) <= 1e-9,
        deviation=float(threshold.deviation),
        dual_norm=float(threshold.dual_norm),
        threshold=float(threshold.threshold),
    )

    approx = approximate_dual_norm(z, r3.system("V"), k, tol)
    _check(
        checks,
        "the enlarged dual stays an approximate dual of the merged system",
        approx.passed and abs(approx.residual - np.sqrt(2.0) / 3.0) <= 1e-9,
        residual=float(approx.residual),
    )

    predicted, window_cert = perturbed_bounds(w, z, k, 0.5, tol)
    _check(
        checks,
        "epsilon 1/2 predicts the window (1/4, 9/2) containing the true bounds",
        window_cert.passed
        and abs(predicted.lower - 0.25) <= 1e-9
        and abs(predicted.upper - 4.5) <= 1e-9,
        predicted=_bounds_dict(predicted),
        actual=_bounds_dict(window_cert.bounds),
    )

    return checks


@main.command()
@_tol_option
@_out_option
def examples(tol_flag, out_path):
    """Reproduce every bundled worked example and fail on any mismatch."""

    def build() -> Report:
        checks = _golden_checks(_tolerance(None, tol_flag))
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
        cert = verify_k_fusion(instance.system("W"), instance.k_matrix, tol)
        results = {
            "seed": seed,
            "ambient_dim": ambient_dim,
            "member_dims": instance.system("W").dims(),
            "k_rank": int(numerical_rank(instance.k_matrix, tol)),
            "verified": cert.passed,
            "bounds": _bounds_dict(cert.bounds),
        }
        digest = _digest("random", instance.document, {"seed": seed}, tol_flag)
        return Report("random", digest, results, True)

    _run(build)


if __name__ == "__main__":
    main()
