"""Seeded inputs, timed tasks and output checks of the benchmark workloads.

Every instance is a pure function of (workload, slot, index). The run seed
only chooses where each slot's walk through its universe of indices starts,
so the reference outputs recorded once under ``reference/`` cover every seed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from kfusion import duality, factorization, frames, perturbation, resolution
from kfusion.frames import FusionSystem, Subspace
from kfusion.instances import random_instance, save_instance

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
UNIVERSE = SPEC["universe"]
REL_TOL = 1e-8
# Reconstruction residuals are compared in the Frobenius norm, which bounds
# the spectral norm the library certifies against.
RESIDUAL_TOL = 1e-8
CLI_TIMEOUT_S = 120


def start_index(seed: int) -> int:
    """Where a run with this seed starts walking each slot's universe."""
    return (seed * 11) % UNIVERSE


def instance_index(seed: int, round_: int) -> int:
    return (start_index(seed) + round_) % UNIVERSE


def warmup_index(seed: int) -> int:
    """An index the run's own timed rounds reach only after the whole universe."""
    return (start_index(seed) - 1) % UNIVERSE


def num(x):
    """A float for JSON: finite values as numbers, the rest as their repr."""
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def compare(ref, got, path="") -> list:
    """Differences between a reference summary and a new one; floats at relative REL_TOL."""
    if isinstance(ref, dict):
        problems = []
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(value, got[key], f"{path}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: expected {ref}, got {got}"]
        return [p for i, (r, g) in enumerate(zip(ref, got)) for p in compare(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float):
        if abs(ref - got) <= REL_TOL * max(abs(ref), abs(got)):
            return []
    elif ref == got and type(ref) is type(got):
        return []
    return [f"{path}: expected {ref}, got {got}"]


def _orthonormal(rng, n, d):
    return np.linalg.qr(rng.standard_normal((n, d)))[0]


def _spread_dims(rng, count, top):
    """``count`` member dims, each uniform over 1..top, with a fixed total (a seeded permutation)."""
    return rng.permutation(np.arange(count) * top // count + 1)


def jsonable(value):
    """``value`` with numpy scalars turned into Python ones, as JSON would read it back."""
    return json.loads(json.dumps(value, default=lambda x: x.item() if isinstance(x, np.generic) else str(x)))


def _system(n, bases, weights):
    return FusionSystem(n, tuple((Subspace(n, b), float(w)) for b, w in zip(bases, weights)))


def _synthesis(bases, weights):
    return np.hstack([w * b for b, w in zip(bases, weights)])


def _frob_residual(a, b):
    return float(np.linalg.norm(a - b)) / (1.0 + float(np.linalg.norm(b)))


class Workload:
    """One workload: its slots, how to build a slot's instance, the timed task and its checks."""

    in_process = True

    def __init__(self, name):
        self.name = name
        self.spec = SPEC["workloads"][name]
        self.slots = self.spec["slots"]

    def setup(self, seed, tmp):
        """Work done once per process before the warm-up task."""

    def ref_key(self, slot, index):
        return f"{slot}/{index}"

    def outcomes(self, summary) -> list:
        """Outcomes of the perturbation questions a task asked."""
        return []

    def compare(self, reference, summary) -> list:
        return compare(reference, summary)

    def invariants(self, inst, out) -> list:
        """Checks of one task's output that need no reference."""
        return []


class Analyze(Workload):
    """The full question set on one system: verify, x_w, both duals, three resolutions."""

    def instance(self, slot, index):
        spec = self.slots[slot]
        rng = np.random.default_rng([17, slot, index, spec["n"]])
        n = spec["n"]
        if "members" in spec:
            dims = _spread_dims(rng, spec["members"], spec["max_dim"])
        else:
            dims = _spread_dims(rng, n // 2, n // 4)
        bases = [_orthonormal(rng, n, int(d)) for d in dims]
        weights = rng.uniform(0.5, 2.0, len(dims))
        if "rank" in spec:
            rank = spec["rank"]
            left = np.linalg.qr(np.hstack(bases) @ rng.standard_normal((int(dims.sum()), rank)))[0]
        else:
            rank = n
            left = _orthonormal(rng, n, n)
        k = left @ np.diag(rng.uniform(0.5, 2.0, rank)) @ _orthonormal(rng, n, rank).T
        return {"bases": bases, "weights": weights, "k": k, "w": _system(n, bases, weights)}

    def run(self, inst):
        w, k = inst["w"], inst["k"]
        cert = frames.verify_k_fusion(w, k)
        sol = factorization.x_w(w, k)
        dual, dual_cert, bessel = duality.canonical_k_dual(w, k)
        qk, q, qk_cert = duality.qk_dual_from_x(w, k, sol)
        built = {
            "projection": resolution.resolution_b(w, k),
            "inverse": resolution.resolution_c(w, k),
            "from_x": resolution.resolution_from_x(w, k, sol),
        }
        checks = {name: resolution.verify_resolution(r, k) for name, r in built.items()}
        return {
            "cert": cert, "sol": sol, "dual": dual, "dual_cert": dual_cert, "bessel": bessel,
            "qk": qk, "q": q, "qk_cert": qk_cert, "built": built, "checks": checks,
        }

    def summary(self, out):
        cert, sol = out["cert"], out["sol"]
        return {
            "verify": {"passed": cert.passed, "lower": num(cert.bounds.lower), "upper": num(cert.bounds.upper)},
            "x_w": {
                "norm_sq": num(sol.norm_sq),
                "nullspace_match": sol.nullspace_match,
                "range_containment": sol.range_containment,
            },
            "canonical_dual": {
                "passed": out["dual_cert"].passed,
                "dims": out["dual"].dims(),
                "bessel_bound": num(out["bessel"]["bessel_bound"]),
                "within_estimate": out["bessel"]["within_estimate"],
            },
            "qk_dual": {"passed": out["qk_cert"].passed, "dims": out["qk"].dims()},
            "resolutions": {
                name: {"passed": c.passed, "lower": num(c.lower), "upper": num(c.upper)}
                for name, c in out["checks"].items()
            },
        }

    def invariants(self, inst, out):
        """Checks computed here with numpy, independent of the library's own certificates."""
        bases, weights, k = inst["bases"], inst["weights"], inst["k"]
        problems = []
        x = out["sol"].x
        product = out["cert"].bounds.lower * np.linalg.norm(x, 2) ** 2
        if abs(product - 1.0) > REL_TOL:
            problems.append(f"A * ||X||^2 = {product!r}, expected 1")
        t_w = _synthesis(bases, weights)
        if _frob_residual(t_w @ x, k) > RESIDUAL_TOL:
            problems.append("T_W X differs from K")

        qk_bases = [sub.basis for sub, _ in out["qk"].members]
        qk_weights = out["qk"].weights
        recon = t_w @ out["q"].T @ _synthesis(qk_bases, qk_weights).T
        if _frob_residual(recon, k) > RESIDUAL_TOL:
            problems.append("QK-dual reconstruction residual above tolerance")

        u, s, _ = np.linalg.svd(k)
        range_k = u[:, s > 1e-10 * s[0]]
        p_r = range_k @ range_k.T
        inv_img = np.linalg.pinv(t_w @ t_w.T @ p_r, rcond=1e-10)
        carrier = inv_img.T @ k
        recon = np.zeros_like(k)
        for b, w_i, (sub, v_i) in zip(bases, weights, out["dual"].members):
            recon += w_i * v_i * (b @ (b.T @ carrier @ sub.basis) @ sub.basis.T)
        if _frob_residual(p_r @ recon, k) > RESIDUAL_TOL:
            problems.append("canonical dual reconstruction residual above tolerance")

        for name, r in out["built"].items():
            total = sum(w_i**2 * theta for theta, w_i in zip(r.thetas, r.weights))
            if _frob_residual(total, k) > RESIDUAL_TOL:
                problems.append(f"resolution {name} does not sum to K")
        return problems


class Stability(Workload):
    """is_exact, certify_perturbation and the epsilon questions on one base/perturbed pair."""

    def instance(self, slot, index):
        spec = self.slots[slot]
        n = spec["n"]
        rng = np.random.default_rng([29, slot, index, n])
        m = n // 2
        dims = np.full(m, 2) if spec["members"] == "exact" else _spread_dims(rng, m, n // 4)
        bases = [_orthonormal(rng, n, int(d)) for d in dims]
        weights = rng.uniform(0.5, 2.0, m)
        rank = n if spec["k"] == "full" else n // 4
        sv = np.sort(rng.uniform(0.5, 2.0, rank))
        k = _orthonormal(rng, n, rank) @ np.diag(sv) @ _orthonormal(rng, n, rank).T
        if spec["perturbation"] == "large":
            z_bases = [_orthonormal(rng, n, int(d)) for d in dims]
            z_weights = weights.copy()
            lambda1 = lambda2 = epsilon = 0.1
        else:
            delta = 1e-3 if spec["perturbation"] == "small" else 1e-4
            z_bases = [np.linalg.qr(b + delta * rng.standard_normal(b.shape))[0] for b in bases]
            z_weights = weights * (1.0 + delta * rng.uniform(-1.0, 1.0, m))
            gap = max(
                np.linalg.norm(w * b @ b.T - z * c @ c.T, 2) / w
                for b, c, w, z in zip(bases, z_bases, weights, z_weights)
            )
            # the certificate needs every gap ||w P - z Q|| <= epsilon * w * sigma_min(K);
            # twice that epsilon makes it decide
            lambda1 = lambda2 = 0.5
            epsilon = 2.0 * gap / sv[0]
        return {
            "bases": bases, "weights": weights, "z_bases": z_bases, "z_weights": z_weights, "k": k,
            "lambda1": lambda1, "lambda2": lambda2, "epsilon": epsilon,
            "w": _system(n, bases, weights), "z": _system(n, z_bases, z_weights),
        }

    def run(self, inst):
        w, z, k = inst["w"], inst["z"], inst["k"]
        exact = frames.is_exact(w, k)
        report = perturbation.certify_perturbation(
            w, z, k, inst["lambda1"], inst["lambda2"], inst["epsilon"]
        )
        analysis_eps = perturbation.analysis_epsilon(w, z, k)
        threshold = perturbation.epsilon_threshold(w, z, k)
        window = perturbation.perturbed_bounds(w, z, k, 0.5 * max(threshold.threshold, 0.0))
        return {"exact": exact, "report": report, "analysis_eps": analysis_eps,
                "threshold": threshold, "window": window}

    def summary(self, out):
        report, threshold = out["report"], out["threshold"]
        predicted, window = out["window"]
        return {
            "is_exact": {"exact": out["exact"].exact, "removable": list(out["exact"].removable)},
            "certify": {
                "decided_by": report.decided_by,
                "epsilon_threshold": num(report.epsilon_threshold),
                "predicted": [num(report.predicted_bounds.lower), num(report.predicted_bounds.upper)],
                "actual": [num(report.actual_bounds.lower), num(report.actual_bounds.upper)],
            },
            "analysis_epsilon": num(out["analysis_eps"]),
            "epsilon_threshold": {
                "threshold": num(threshold.threshold),
                "deviation": num(threshold.deviation),
                "dual_norm": num(threshold.dual_norm),
                "vacuous": threshold.vacuous,
            },
            "perturbed_bounds": {
                "predicted": [num(predicted.lower), num(predicted.upper)],
                "passed": window.passed,
            },
        }

    def outcomes(self, summary):
        return [summary["certify"]["decided_by"]]

    def invariants(self, inst, out):
        """A falsifier counts only if its witness violates the hypothesis for some member."""
        report = out["report"]
        if report.decided_by != "falsifier":
            return []
        f = np.asarray(report.falsified_witness, dtype=float)
        k_t_f = np.linalg.norm(inst["k"].T @ f)
        for b, w, c, z in zip(inst["bases"], inst["weights"], inst["z_bases"], inst["z_weights"]):
            w_part = w * (b @ (b.T @ f))
            z_part = z * (c @ (c.T @ f))
            lhs = np.linalg.norm(w_part - z_part)
            rhs = (
                inst["lambda1"] * np.linalg.norm(w_part)
                + inst["lambda2"] * np.linalg.norm(z_part)
                + inst["epsilon"] * w * k_t_f
            )
            if lhs > rhs * (1.0 + 1e-8) + 1e-9:
                return []
        return ["falsifier witness does not violate the hypothesis"]

    def compare(self, reference, summary):
        """As ``compare``, except that an undecided reference route may become either decided one."""
        ref_route = reference["certify"]["decided_by"]
        got_route = summary["certify"]["decided_by"]
        problems = []
        if ref_route != "undecided" and got_route != ref_route:
            problems.append(f"perturbation route {ref_route} became {got_route}")
        return problems + compare(_without_route(reference), _without_route(summary))


def _without_route(summary):
    certify = {k: v for k, v in summary["certify"].items() if k != "decided_by"}
    return {**summary, "certify": certify}


# Report lines compared with the reference; residuals and digests are not.
CLI_COMPARED = {
    "pass", "bounds", "member_dims", "lower_bound", "decided_by", "certified",
    "failed", "total", "k_rank", "verified",
}


def _parse_report(stdout: str) -> dict:
    lines = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in CLI_COMPARED:
            lines[key] = json.loads(value)
    return lines


class CliCold(Workload):
    """One fresh ``python -m kfusion.cli`` process per task."""

    in_process = False

    def setup(self, seed, tmp):
        self.write_files(start_index(seed), tmp)

    def write_files(self, file_index, tmp):
        """Write the generated instance files of universe index ``file_index`` into ``tmp``."""
        self.file_index = file_index
        self.paths = {
            name: HERE.parent / "src" / "kfusion" / "data" / f"{name}.json"
            for name in ("example_r3", "example_r4")
        }
        for i, spec in enumerate(self.spec["files"]):
            path = Path(tmp) / f"file{i}.json"
            instance = random_instance(
                1000 * i + self.file_index, spec["n"], spec["members"], spec["rank"]
            )
            save_instance(instance, path)
            self.paths[f"file{i}"] = path

    def ref_key(self, slot, index):
        spec = self.slots[slot]
        key = " ".join(spec["args"] + [spec["input"] or "-"])
        return f"{key} {self.file_index}" if (spec["input"] or "").startswith("file") else key

    def instance(self, slot, index):
        spec = self.slots[slot]
        argv = list(spec["args"])
        if spec["input"]:
            argv += ["--in", str(self.paths[spec["input"]])]
        return {"argv": argv}

    def run(self, inst, spans_path=None):
        if spans_path is None:
            cmd = [sys.executable, "-m", "kfusion.cli", *inst["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "cli_runner.py"), str(spans_path), *inst["argv"]]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return {"exit": proc.returncode, "stdout": proc.stdout}

    def summary(self, out):
        return {"exit": out["exit"], "report": _parse_report(out["stdout"])}

    def outcomes(self, summary):
        route = summary["report"].get("decided_by")
        return [route] if route else []


WORKLOADS = {
    "cli-cold": CliCold,
    "analyze-dense": Analyze,
    "analyze-thin": Analyze,
    "stability": Stability,
}


def load(name) -> Workload:
    return WORKLOADS[name](name)


def check(workload, inst, out, summary, reference) -> list:
    """Every problem with one task's output: reference mismatches and failed invariants."""
    problems = workload.invariants(inst, out)
    if reference is None:
        return problems + ["no reference output recorded for this input"]
    return problems + workload.compare(reference, summary)


def reference_path(name) -> Path:
    return HERE / "reference" / f"{name}.json"


def reference_for(name) -> dict:
    """Reference summaries recorded for one workload, keyed by ``Workload.ref_key``."""
    path = reference_path(name)
    return json.loads(path.read_text()) if path.exists() else {}
