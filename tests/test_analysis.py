"""The shared analysis of (W, K, tol): safety, independence of the cross-checks, cost."""

import hashlib
import re
import sys

import numpy as np
import pytest

from conftest import random_fusion_system
from kfusion import duality, frames, numerics, resolution
from kfusion.factorization import x_w
from kfusion.frames import FusionSystem, Subspace, synthesis, verify_k_fusion
from kfusion.numerics import AgreementError

SVD_FAMILY = {"svd", "numerical_rank", "pinv", "spectral_norm", "orthonormal_range", "null_basis"}
DECOMPOSITIONS = SVD_FAMILY | {"max_rayleigh", "r_factor"}


def _instance(seed=3, n=8, dims=(4,) * 8):
    rng = np.random.default_rng(seed)
    w = random_fusion_system(rng, n, list(dims), list(rng.uniform(0.5, 2.0, len(dims))))
    k = rng.standard_normal((n, n))
    return w, k


def _copy(w):
    return FusionSystem(
        w.ambient_dim, tuple((Subspace(w.ambient_dim, sub.basis), wt) for sub, wt in w.members)
    )


def _questions(w, k):
    """The analyze question set, answered in order, as a dict of outputs."""
    out = {"verify": verify_k_fusion(w, k)}
    out["x_w"] = x_w(w, k)
    out["canonical"] = duality.canonical_k_dual(w, k)
    out["qk"] = duality.qk_dual_from_x(w, k, out["x_w"])
    out["b"] = resolution.resolution_b(w, k)
    out["c"] = resolution.resolution_c(w, k)
    out["from_x"] = resolution.resolution_from_x(w, k, out["x_w"])
    out["checks"] = [resolution.verify_resolution(out[name], k) for name in ("b", "c", "from_x")]
    return out


def test_subspace_keeps_a_read_only_copy_of_its_basis():
    basis = np.eye(3)[:, :2]
    sub = Subspace(3, basis)
    basis[0, 0] = 5.0
    assert sub.basis[0, 0] == 1.0
    with pytest.raises(ValueError):
        sub.basis[0, 0] = 2.0


def test_mutating_the_input_array_leaves_later_results_unchanged():
    w, k = _instance()
    spans = [np.array(sub.basis) for sub, _ in w.members]
    system = FusionSystem(w.ambient_dim, tuple((Subspace(w.ambient_dim, s), 1.0) for s in spans))
    k_mutable = k.copy()
    first = verify_k_fusion(system, k_mutable)
    for s in spans:
        s[:] = 0.0
    assert verify_k_fusion(system, k_mutable) == first
    k_mutable *= 2.0
    assert verify_k_fusion(system, k_mutable).bounds.lower == pytest.approx(
        first.bounds.lower / 4.0, rel=1e-12
    )


def test_every_call_returns_a_fresh_certificate():
    w, k = _instance()
    first = verify_k_fusion(w, k)
    expected = dict(first.details)
    first.details["k_fusion"] = "written by a caller"
    first.details["lower_via_pinv"] = -1.0
    second = verify_k_fusion(w, k)
    assert second is not first
    assert second.details == expected
    assert x_w(w, k).x is not x_w(w, k).x


def test_failure_witness_is_a_fresh_copy():
    w = random_fusion_system(np.random.default_rng(5), 4, [1, 1])
    k = np.eye(4)
    first = verify_k_fusion(w, k)
    assert not first.passed
    witness = first.witness.copy()
    first.witness[:] = 0.0
    np.testing.assert_array_equal(verify_k_fusion(w, k).witness, witness)


def test_pencil_route_is_an_independent_check(monkeypatch):
    w, k = _instance()
    real = frames.max_rayleigh
    monkeypatch.setattr(frames, "max_rayleigh", lambda a, b, tol: 1.01 * real(a, b, tol))
    with pytest.raises(AgreementError):
        verify_k_fusion(w, k)
    fresh, _ = _instance()
    with pytest.raises(AgreementError):
        x_w(fresh, k)


def test_svd_route_is_an_independent_check(monkeypatch):
    w, k = _instance()
    real = frames.svd

    def skewed(m):
        f = real(m)
        return numerics.Svd(u=f.u, singular_values=1.01 * f.singular_values, v=f.v)

    monkeypatch.setattr(frames, "svd", skewed)
    with pytest.raises(AgreementError):
        verify_k_fusion(w, k)
    fresh, _ = _instance()
    with pytest.raises(AgreementError):
        x_w(fresh, k)


def test_lower_bound_mismatch_names_both_values_the_gap_and_the_tolerance(monkeypatch):
    w, k = _instance()
    want_pinv = verify_k_fusion(_copy(w), k).details["lower_via_pinv"]
    real = frames.max_rayleigh
    monkeypatch.setattr(frames, "max_rayleigh", lambda a, b, tol: 1.01 * real(a, b, tol))
    with pytest.raises(AgreementError) as err:
        verify_k_fusion(w, k)
    found = re.search(
        r"pencil (\S+) vs pinv (\S+), gap (\S+) exceeds tolerance (\S+)$", str(err.value)
    )
    pencil, pinv, gap, allowed = map(float, found.groups())
    assert pinv == want_pinv
    assert pencil == pytest.approx(pinv / 1.01, rel=1e-8)
    assert gap == abs(pencil - pinv) > allowed
    assert allowed == numerics.DEFAULT_TOL.eq_rel * max(pencil, pinv, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_is_rejected_with_its_index(bad):
    w, _ = _instance()
    members = list(w.members)
    members[2] = (members[2][0], bad)
    with pytest.raises(ValueError, match="member 2"):
        FusionSystem(w.ambient_dim, tuple(members))


def test_answers_do_not_depend_on_question_order():
    w, k = _instance()
    forward = _questions(w, k)
    other = _copy(w)
    reverse = {"c": resolution.resolution_c(other, k), "b": resolution.resolution_b(other, k)}
    reverse["canonical"] = duality.canonical_k_dual(other, k)
    reverse["x_w"] = x_w(other, k)
    reverse["verify"] = verify_k_fusion(other, k)
    reverse["qk"] = duality.qk_dual_from_x(other, k, reverse["x_w"])

    assert reverse["verify"] == forward["verify"]
    np.testing.assert_array_equal(reverse["x_w"].x, forward["x_w"].x)
    assert reverse["x_w"].norm_sq == forward["x_w"].norm_sq
    for name in ("b", "c"):
        for got, want in zip(reverse[name].thetas, forward[name].thetas):
            np.testing.assert_array_equal(got, want)
    dual, cert, bessel = reverse["canonical"]
    assert (cert.residual, bessel) == (forward["canonical"][1].residual, forward["canonical"][2])
    for (got, _), (want, _) in zip(dual.members, forward["canonical"][0].members):
        np.testing.assert_array_equal(got.basis, want.basis)
    np.testing.assert_array_equal(reverse["qk"][1], forward["qk"][1])
    assert reverse["qk"][2].residual == forward["qk"][2].residual


def _content_key(w, k, tol):
    digest = hashlib.sha256(repr((tuple(w.weights.tolist()), tol)).encode())
    for sub, _ in w.members:
        digest.update(np.ascontiguousarray(sub.basis).tobytes())
    digest.update(repr(np.shape(k)).encode())
    digest.update(np.ascontiguousarray(k, dtype=float).tobytes())
    return digest.hexdigest()


def test_cost_model_of_the_question_set(monkeypatch):
    """No decomposition is Σd x Σd; one n x Σd SVD per distinct (system, K, tol).

    Wraps the numerics kernel in every kfusion module that binds it, as the
    benchmark tracer does, and records the shape of each decomposed input.
    """
    w, k = _instance(seed=11, n=8, dims=(4,) * 8)
    n, total = w.ambient_dim, synthesis(w).shape[1]
    assert total >= 4 * n
    calls, keys = [], set()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, np.shape(args[0])))
            return fn(*args, **kwargs)

        return wrapper

    def verify_wrapper(fn):
        def wrapper(w, k, tol=numerics.DEFAULT_TOL):
            keys.add(_content_key(w, k, tol))
            return fn(w, k, tol)

        return wrapper

    wrappers = {
        getattr(numerics, name): wrap(name, getattr(numerics, name)) for name in DECOMPOSITIONS
    }
    wrappers[frames.verify_k_fusion] = verify_wrapper(frames.verify_k_fusion)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("kfusion"):
            for attr, obj in list(vars(module).items()):
                if callable(obj) and obj in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[obj])

    out = _questions(w, k)
    assert out["verify"].passed and all(check.passed for check in out["checks"])

    square = [(name, shape) for name, shape in calls if min(shape) >= total]
    assert not square, f"decompositions of Σd x Σd inputs: {square}"
    wide = [(name, shape) for name, shape in calls if name in SVD_FAMILY and max(shape) > n]
    assert len(wide) <= len(keys), f"{len(wide)} n x Σd SVDs for {len(keys)} keys: {wide}"
    assert all(max(shape) == n for name, shape in calls if name == "max_rayleigh")
