"""Spans around the public functions of each kfusion layer, and the per-layer metrics built from them.

The tracer replaces every public module-level function of the layer modules
with a wrapper, in every kfusion module that binds it (so ``frames.pinv``,
imported from ``numerics``, is wrapped too and nested calls become child
spans). Spans stay in memory; the caller aggregates them once per task.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "numerics",
    "frames",
    "factorization",
    "duality",
    "resolution",
    "perturbation",
    "instances",
    "cli",
)

# Called once per JSON scalar while an instance loads; a span per call would
# cost more than the parsing it measures. Its time stays in the caller's
# instances span.
UNWRAPPED = {"instances.parse_number"}

SVD_FAMILY = {
    "numerics.svd",
    "numerics.numerical_rank",
    "numerics.pinv",
    "numerics.spectral_norm",
    "numerics.orthonormal_range",
    "numerics.null_basis",
}

# Calls whose arguments or result feed a counter beyond the call count.
_PROBED = SVD_FAMILY | {"frames.verify_k_fusion", "perturbation.certify_perturbation"}

COUNTED_CALLS = {
    "numerics.max_rayleigh_calls": "numerics.max_rayleigh",
    "frames.verify_calls": "frames.verify_k_fusion",
    "factorization.douglas_calls": "factorization.douglas_solve",
    "duality.inverse_on_image_calls": "duality.inverse_on_image",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "numerics.svd_calls": "count",
    "numerics.svd_elems": "count",
    "numerics.max_rayleigh_calls": "count",
    "frames.verify_calls": "count",
    "frames.verify_redundant_frac": "fraction",
    "factorization.douglas_calls": "count",
    "duality.inverse_on_image_calls": "count",
    "perturbation.sampler_calls": "count",
    "perturbation.decided_frac": "fraction",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent index within the task).

    ``log`` keeps every span of the run in memory, each prefixed with its task id.
    """

    def __init__(self):
        self.spans = []
        self.probes = []
        self.log = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        """``fn`` recording a span named ``name`` per call."""
        spans, probes, stack, clock = self.spans, self.probes, self._stack, time.perf_counter
        probed = name in _PROBED

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if probed:
                probes.append((name, fn, args, kwargs, result))
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"kfusion.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrappers[obj] = self.wrap(name, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "kfusion" and not module_name.startswith("kfusion."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def take(self, task_id):
        """Summarize the spans recorded since the last call and move them to the log under ``task_id``."""
        summary = summarize(self.spans, self.probes)
        self.log.extend((task_id, *span) for span in self.spans)
        self.spans.clear()
        self.probes.clear()
        return summary


def _content_key(system, k, tol) -> str:
    digest = hashlib.sha256()
    digest.update(repr((system.ambient_dim, tuple(system.weights.tolist()), tol)).encode())
    for sub, _ in system.members:
        digest.update(np.ascontiguousarray(sub.basis, dtype=float).tobytes())
        digest.update(repr(sub.basis.shape).encode())
    k = np.asarray(k, dtype=float)
    digest.update(repr(k.shape).encode())
    digest.update(np.ascontiguousarray(k).tobytes())
    return digest.hexdigest()


def summarize(spans, probes) -> dict:
    """Self time per layer and the call counts of one task."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {}
    for (name, start, end, _), children in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - children
        calls[name] = calls.get(name, 0) + 1

    svd_elems = redundant = certify_calls = decided = sampler = 0
    verify_keys = set()
    for name, fn, args, kwargs, result in probes:
        if name in SVD_FAMILY:
            svd_elems += int(np.prod(np.shape(args[0] if args else kwargs["m"])))
        elif name == "frames.verify_k_fusion":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            key = _content_key(bound.arguments["w"], bound.arguments["k"], bound.arguments["tol"])
            redundant += key in verify_keys
            verify_keys.add(key)
        else:
            certify_calls += 1
            decided += result.decided_by != "undecided"
            sampler += result.decided_by != "certificate"
    counts = {metric: calls.get(name, 0) for metric, name in COUNTED_CALLS.items()}
    counts.update({
        "numerics.svd_calls": sum(calls.get(name, 0) for name in SVD_FAMILY),
        "numerics.svd_elems": svd_elems,
        "frames.verify_redundant": redundant,
        "perturbation.certify_calls": certify_calls,
        "perturbation.decided": decided,
        "perturbation.sampler_calls": sampler,
    })
    return {"self_s": self_s, "counts": counts}


def per_layer_metrics(traced: list, counted: list, overhead_s: float) -> dict:
    """Per-task layer metrics: self times over every traced task, counts over the fixed counted block.

    Counts come from a fixed set of tasks so that two traced runs of one seed
    report identical numbers; ratios are taken of integer totals.
    """
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t["self_s"][layer] for t in traced) / len(traced)
    metrics["cli.import_s"] = sum(t.get("import_s", 0.0) for t in traced) / len(traced)

    totals = {}
    for task in counted:
        for key, value in task["counts"].items():
            totals[key] = totals.get(key, 0) + value
    n = len(counted)
    for metric in list(COUNTED_CALLS) + ["numerics.svd_calls", "numerics.svd_elems", "perturbation.sampler_calls"]:
        metrics[metric] = totals.get(metric, 0) / n
    verify = totals.get("frames.verify_calls", 0)
    metrics["frames.verify_redundant_frac"] = (
        totals.get("frames.verify_redundant", 0) / verify if verify else 0.0
    )
    certify = totals.get("perturbation.certify_calls", 0)
    metrics["perturbation.decided_frac"] = (
        totals.get("perturbation.decided", 0) / certify if certify else 0.0
    )
    metrics["trace.overhead_s"] = overhead_s
    return {name: {"value": metrics[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS}
