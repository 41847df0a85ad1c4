"""The shared analysis of (W, K, tol): safety, independence of the cross-checks, cost."""

import hashlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisected_synthesis_instance, random_fusion_system
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


def test_the_shared_analysis_is_found_by_the_value_of_k():
    w, k = _instance()
    first = frames.frame_analysis(w, k)
    assert frames.frame_analysis(w, np.array(k.tolist())) is first
    assert frames.frame_analysis(w, np.asfortranarray(k)) is first
    other = k.copy()
    other[2, 5] += 1e-3
    assert frames.frame_analysis(w, other) is not first


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


def _thin_instance(seed=21, n=24, dims=(3, 2, 4, 3), rank=4):
    """A K-fusion frame with Σd < n, and a K of the given rank inside the span of T."""
    rng = np.random.default_rng(seed)
    w = random_fusion_system(rng, n, list(dims), list(rng.uniform(0.5, 2.0, len(dims))))
    span = np.linalg.qr(synthesis(w))[0]
    k = span[:, :rank] @ rng.standard_normal((rank, n))
    return w, k


def _record_decompositions(monkeypatch, names=("eigh", "svd")):
    """Shapes of the inputs of every ``np.linalg`` decomposition in ``names`` made from now on."""
    shapes = []
    for name in names:
        real = getattr(np.linalg, name)

        def recording(m, *args, _real=real, _name=name, **kwargs):
            shapes.append((_name, np.shape(m)))
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return shapes


def test_thin_resolutions_and_image_factors_decompose_nothing_n_by_n(monkeypatch):
    """With Σd < n, the resolution pencils and the image factors are decided at the rank."""
    w, k = _thin_instance()
    n = w.ambient_dim
    assert synthesis(w).shape[1] < n
    sol = x_w(w, k)
    built = [
        resolution.resolution_b(w, k),
        resolution.resolution_c(w, k),
        resolution.resolution_from_x(w, k, sol),
    ]
    analysis = frames.frame_analysis(_copy(w), k).require()
    analysis.k_factors  # the SVD of K itself is not the image factors' cost

    shapes = _record_decompositions(monkeypatch)
    checks = [resolution.verify_resolution(r, k) for r in built]
    image = analysis.image_factors
    assert all(check.passed and 0.0 < check.lower < np.inf for check in checks)
    assert image.singular_values.size == 4
    assert shapes, "no decomposition was recorded"
    assert all(min(shape) < n for _, shape in shapes), shapes


def test_image_factors_match_the_svd_of_s_times_the_range_projector():
    for w, k in (_thin_instance(), _thin_instance(seed=4, n=10, dims=(4, 4, 3), rank=10), _instance()):
        analysis = frames.frame_analysis(w, k).require()
        image = analysis.image_factors
        s_p = analysis.s @ analysis.k_projector
        old = numerics.svd(s_p).truncated()
        scale = old.top
        np.testing.assert_allclose(image.singular_values, old.singular_values, rtol=1e-12)
        np.testing.assert_allclose(image.u @ image.u.T, old.u @ old.u.T, atol=1e-12)
        np.testing.assert_allclose(image.v @ image.v.T, old.v @ old.v.T, atol=1e-12)
        want_inverse = (old.v / old.singular_values) @ old.u.T
        np.testing.assert_allclose(
            analysis.inverse_on_image, want_inverse, atol=1e-12 * np.abs(want_inverse).max()
        )
        # a factorization of S P itself
        np.testing.assert_allclose(
            (image.u * image.singular_values) @ image.v.T, s_p, atol=1e-12 * scale
        )


def test_the_thin_question_set_decomposes_nothing_n_by_n_but_the_pencils(monkeypatch):
    """With Σd + rank K < n, the only n x n decompositions are the eigh(S) of the two pencils."""
    w, k = _thin_instance()
    n = w.ambient_dim
    shapes = _record_decompositions(monkeypatch, ("eigh", "svd", "eigvalsh"))
    out = _questions(w, k)
    assert out["canonical"][1].passed and out["qk"][2].passed
    assert all(check.passed for check in out["checks"])
    square = [(name, shape) for name, shape in shapes if min(shape) >= n]
    # pencil_ratio of W against K and of the QK-dual against K*
    assert square == [("eigh", (n, n))] * 2, square


# relative Frobenius size of the part of K off the span of T
OFF_SPAN = [0.0] + [10.0**-p for p in range(15, 5, -1)]


def _routes_and_answers(w, k, dense):
    """(span_coordinates calls as (m, basis, taken), answers); ``dense`` turns the rule off."""
    calls = []
    real = numerics.span_coordinates

    def recording(m, basis):
        coords = None if dense else real(m, basis)
        calls.append((m, basis, coords is not None))
        return coords

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "span_coordinates", recording)
        patch.setattr(frames, "span_coordinates", recording)
        w = _copy(w)
        try:
            verified = verify_k_fusion(w, k).passed
            answers = _questions(w, k) if verified else {"verify": verify_k_fusion(w, k)}
        except AgreementError as err:
            answers = {"error": type(err)}
        answers["analysis"] = frames.frame_analysis(w, k)
    return calls, answers


def _assert_routes_agree(w, k):
    """The question set decides the same on both routes, and its numbers agree to 1e-12."""
    calls, fast = _routes_and_answers(w, k, dense=False)
    _, dense = _routes_and_answers(w, k, dense=True)
    limit = numerics.SPAN_ROUNDING
    for m, basis, taken in calls:
        assert taken == (np.linalg.norm(m - basis @ (basis.T @ m)) <= limit * np.linalg.norm(m))
    assert fast.keys() == dense.keys()
    if "x_w" not in fast:
        assert fast.get("error") == dense.get("error")
        assert fast["verify"].passed == dense["verify"].passed
        return calls
    scale = 1e-12 * max(dense["analysis"].k_norm, 1.0)
    one, other = fast["analysis"], dense["analysis"]
    assert one.k_norm == pytest.approx(other.k_norm, rel=1e-12)
    assert one.k_factors.singular_values.size == other.k_factors.singular_values.size
    np.testing.assert_allclose(
        one.k_factors.singular_values, other.k_factors.singular_values, rtol=0, atol=scale
    )
    for got, want in ((one.k_factors, other.k_factors), (one.image_factors, other.image_factors)):
        np.testing.assert_allclose(got.u @ got.u.T, want.u @ want.u.T, rtol=0, atol=1e-12)
    assert fast["verify"] == dense["verify"]
    pairs = [
        (fast["x_w"], dense["x_w"]),
        (fast["canonical"][1], dense["canonical"][1]),
        (fast["qk"][2], dense["qk"][2]),
        *zip(fast["checks"], dense["checks"]),
    ]
    for got, want in pairs:
        assert abs(got.residual - want.residual) <= scale
    for flag in ("nullspace_match", "range_containment"):
        assert getattr(fast["x_w"], flag) == getattr(dense["x_w"], flag)
    assert [got.passed for got, _ in pairs[1:]] == [want.passed for _, want in pairs[1:]]
    return calls


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    rank=st.integers(1, 4),
    off=st.sampled_from(OFF_SPAN),
)
def test_compressed_and_dense_routes_agree(seed, dims, rank, off):
    rng = np.random.default_rng(seed)
    n = sum(dims) + 3
    w = random_fusion_system(rng, n, dims, list(rng.uniform(0.5, 2.0, len(dims))))
    span = np.linalg.qr(synthesis(w))[0]
    k = span[:, : min(rank, sum(dims))] @ rng.standard_normal((min(rank, sum(dims)), n))
    away = rng.standard_normal((n, n))
    away -= span @ (span.T @ away)
    k += off * np.linalg.norm(k) / np.linalg.norm(away) * away
    calls = _assert_routes_agree(w, k)
    # the first call decides K against the span of T: inside it when K lies
    # there, dense when K leaves it by far more than rounding
    m, basis, taken = calls[0]
    assert m.shape == (n, n) and basis.shape[1] == sum(dims)
    if off == 0.0:
        assert taken
    if off >= 1e-12:
        assert not taken


def test_the_bisected_instance_takes_the_dense_route_with_the_same_residual():
    # K leaves the span of T by 2e-9, far more than rounding
    w, k, _ = bisected_synthesis_instance()
    calls = _assert_routes_agree(w, k)
    assert calls and not any(taken for _, _, taken in calls)
    sol = x_w(_copy(w), k)
    assert sol.residual == numerics.spectral_norm(synthesis(w) @ sol.x - k)
