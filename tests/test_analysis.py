"""The shared analysis of (W, K, tol): safety, independence of the cross-checks, cost."""

import ast
import hashlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import bisected_synthesis_instance, make_system, random_fusion_system, skewed
from kfusion import cli, duality, frames, numerics, perturbation, resolution
from kfusion.factorization import x_w
from kfusion.frames import FusionSystem, KFrame, Subspace, synthesis, verify_k_fusion
from kfusion.instances import instance_from_document, random_instance
from kfusion.numerics import AgreementError

SVD_FAMILY = {"svd", "numerical_rank", "pinv", "spectral_norm", "orthonormal_range"}
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
    monkeypatch.setattr(frames, "max_rayleigh", lambda m, g, tol: skewed(real(m, g, tol)))
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
    monkeypatch.setattr(frames, "max_rayleigh", lambda m, g, tol: skewed(real(m, g, tol)))
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
    # spectral_norm takes no SVD: it decomposes the Gram of its shorter side, bounded above
    svds = SVD_FAMILY - {"spectral_norm"}
    wide = [(name, shape) for name, shape in calls if name in svds and max(shape) > n]
    assert len(wide) <= len(keys), f"{len(wide)} n x Σd SVDs for {len(keys)} keys: {wide}"
    assert all(max(shape) == n for name, shape in calls if name == "max_rayleigh")


def _thin_instance(seed=21, n=24, dims=(3, 2, 4, 3), rank=4):
    """A K-fusion frame with Σd < n, and a K of the given rank inside the span of T."""
    rng = np.random.default_rng(seed)
    w = random_fusion_system(rng, n, list(dims), list(rng.uniform(0.5, 2.0, len(dims))))
    span = np.linalg.qr(synthesis(w))[0]
    k = span[:, :rank] @ rng.standard_normal((rank, n))
    return w, k


def test_thin_resolutions_and_image_factors_decompose_nothing_n_by_n(record_linalg):
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

    calls = record_linalg(("eigh", "svd"))
    checks = [resolution.verify_resolution(r, k) for r in built]
    image = analysis.image_factors
    assert all(check.passed and 0.0 < check.lower < np.inf for check in checks)
    assert image.singular_values.size == 4
    assert calls, "no decomposition was recorded"
    assert all(min(call.shape) < n for call in calls), [call.shape for call in calls]


def test_image_factors_match_the_svd_of_s_times_the_range_projector():
    for w, k in (_thin_instance(), _thin_instance(seed=4, n=10, dims=(4, 4, 3), rank=10), _instance()):
        analysis = frames.frame_analysis(w, k).require()
        image = analysis.image_factors
        t = synthesis(w)
        s_p = t @ (t.T @ analysis.k_factors.u) @ analysis.k_factors.u.T
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


def test_the_thin_question_set_decomposes_nothing_n_by_n(record_linalg):
    """With Σd + rank K < n, no decomposition is n x n: the pencils QR-compress the tall T."""
    w, k = _thin_instance()
    n = w.ambient_dim
    calls = record_linalg(("eigh", "svd", "eigvalsh", "qr"))
    out = _questions(w, k)
    assert out["verify"].passed and out["canonical"][1].passed and out["qk"][2].passed
    assert all(check.passed for check in out["checks"])
    assert calls, "no decomposition was recorded"
    square = [(call.name, call.shape) for call in calls if min(call.shape) >= n]
    assert not square, square


# relative Frobenius size of the part of K off the span of T
OFF_SPAN = [0.0] + [10.0**-p for p in range(15, 5, -1)]


def _routes_and_answers(w, k, dense):
    """(span_coordinates calls as (m, coords, squares, taken), answers); ``dense`` turns the rule off."""
    calls = []
    real = numerics.span_coordinates

    def recording(m, coords, squares):
        taken = None if dense else real(m, coords, squares)
        calls.append((m, coords, squares, taken is not None))
        return taken

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
    for m, _, squares, taken in calls:
        assert taken == (np.sqrt(squares.sum()) <= limit * np.linalg.norm(m))
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


@seed(1)
@settings(max_examples=40, deadline=None)
@given(
    seed_=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    rank=st.integers(1, 4),
    off=st.sampled_from(OFF_SPAN),
)
def test_compressed_and_dense_routes_agree(seed_, dims, rank, off):
    rng = np.random.default_rng(seed_)
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
    m, coords, _, taken = calls[0]
    assert m.shape == (n, n) and coords.shape == (sum(dims), n)
    if off == 0.0:
        assert taken
    if off >= 1e-12:
        assert not taken


def test_just_past_the_bisected_edge_the_range_check_decides():
    """K's containment is decided once, by the range check: past the edge it names a column.

    The pencil does not decide containment again, so it cannot turn the
    range obstruction into an unbounded pencil with no witness.
    """
    w, k, q = bisected_synthesis_instance()
    d = float(q[:, 4] @ k[:, 4])
    past = q[:, :4] @ np.eye(4, 5) + d * (1 + 1e-9) * q[:, 4:5] @ np.ones((1, 5))
    cert = verify_k_fusion(w, past)
    assert not cert.passed
    found = re.fullmatch(
        r"range obstruction: column (\d) of K leaves the span of the system", cert.message
    )
    assert found, cert.message
    np.testing.assert_array_equal(cert.witness, past[:, int(found.group(1))])


def test_the_bisected_instance_takes_the_dense_route_with_the_same_residual():
    # K leaves the span of T by 2e-9, far more than rounding
    w, k, _ = bisected_synthesis_instance()
    calls = _assert_routes_agree(w, k)
    assert calls and not any(taken for *_, taken in calls)
    sol = x_w(_copy(w), k)
    assert sol.residual == numerics.spectral_norm(synthesis(w) @ sol.x - k)


def _decorator_names(func):
    """The names a function's decorators call or name: ``seed`` for ``@seed(1)``."""
    names = set()
    for node in func.decorator_list:
        node = node.func if isinstance(node, ast.Call) else node
        names.add(node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None))
    return names


def _unseeded_hypothesis_tests(paths):
    """``module.function`` of each ``@given`` function in ``paths``, nested too, with no ``@seed``."""
    return [
        f"{path.stem}.{node.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and "given" in _decorator_names(node)
        and "seed" not in _decorator_names(node)
    ]


def test_every_hypothesis_test_draws_from_a_fixed_seed():
    """No Hypothesis profile is set, so an unseeded test draws new examples on every run."""
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert _unseeded_hypothesis_tests(tests) == []


# the decompositions a reader of a pair's analysis leaves to ``FrameAnalysis.of_pair``
PAIR_DECOMPOSITIONS = {"svd", "orthonormal_range", "max_rayleigh"}
PAIR_READERS = {
    "factorization": {"douglas_solve", "range_included", "_pair", "_solve", "x_w"},
    "frames": {"verify_k_frame", "weaken_to_q"},
}


def _called_names(node):
    return {
        call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def _functions(module):
    path = Path(__file__).resolve().parents[1] / "src" / "kfusion" / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_the_readers_of_a_pair_decompose_nothing_of_their_own():
    found = {
        name: _called_names(node) & PAIR_DECOMPOSITIONS
        for module, names in PAIR_READERS.items()
        for name, node in _functions(module).items()
        if name in names
    }
    assert found == {name: set() for names in PAIR_READERS.values() for name in names}
    # the scan sees the calls the analysis makes for them
    assert _called_names(_functions("frames")["of_pair"]) >= {"svd", "max_rayleigh"}


# -------------------------------------------- one analysis of (W, K, tol) per construction

# the decompositions of K that belong to the analysis of a pair, never to a reader of it
K_DECOMPOSITIONS = (
    "svd", "orthonormal_range", "numerical_rank", "pinv", "spectral_norm", "r_factor"
)


def _analysis_code():
    """The code objects of ``FrameAnalysis``'s methods, properties and cached properties."""
    code = set()
    for attr in vars(frames.FrameAnalysis).values():
        fn = getattr(attr, "func", None) or getattr(attr, "fget", None) or attr
        fn = getattr(fn, "__func__", fn)
        if hasattr(fn, "__code__"):
            code.add(fn.__code__)
    return code


def _is_one_of(a, ks):
    return isinstance(a, np.ndarray) and any(
        a.shape == m.shape and np.array_equal(a, m) for k in ks for m in (k, k.T)
    )


def _bundled_k(name):
    return instance_from_document(cli._bundled_document(name)).k_matrix


def _swap():
    e1, e2, e3 = np.eye(3)
    return make_system(3, [[e1 + e2, e3], [e1 - e2], [e1 + e2]])


def _local_duality(w, z, v, k):
    local = duality.local_frame_system(v, [list(sub.basis.T) for sub, _ in v.members])
    return duality.local_duality_equiv(w, v, local, k)


def _qk_dual(w, z, v, k):
    dual, q, _ = duality.qk_dual_from_x(w, k, x_w(w, k))
    return duality.is_qk_dual(w, dual, q, k)


def _projection_dual(w, z, v, k):
    vectors = [weight * sub.projector()[:, j] for sub, weight in w.members for j in range(3)]
    return duality.kframe_projection_dual(KFrame(3, tuple(vectors)), k)


# each construction, called with the R^3 system W, its merged perturbation Z, the dual V and K
LEDGER = {
    "is_exact": lambda w, z, v, k: frames.is_exact(w, k),
    "certify_perturbation": lambda w, z, v, k: perturbation.certify_perturbation(
        w, z, k, 0.5, 0.5, 0.01
    ),
    "certify_perturbation-falsifier": lambda w, z, v, k: perturbation.certify_perturbation(
        w, _swap(), k, 0.5, 0.5, 0.01
    ),
    "member_pencils": lambda w, z, v, k: list(
        perturbation.member_pencils(w, _swap(), k, 0.5, 0.5, 0.01)
    ),
    "perturbed_bounds": lambda w, z, v, k: perturbation.perturbed_bounds(w, z, k, 0.5),
    "epsilon_threshold": lambda w, z, v, k: perturbation.epsilon_threshold(w, z, k),
    "analysis_epsilon": lambda w, z, v, k: perturbation.analysis_epsilon(w, z, k),
    "kframe_projection_dual": _projection_dual,
    "is_qk_dual": _qk_dual,
    "local_duality_equiv": _local_duality,
    "check_sws_range_condition": lambda w, z, v, k: duality.check_sws_range_condition(w, k),
    "minimal_dual_test": lambda w, z, v, k: duality.minimal_dual_test(w, k, v),
    "pinv_via_xw": lambda w, z, v, k: resolution.pinv_via_xw(w, k, k[:, 0]),
    "transform_sinv": lambda w, z, v, k: frames.transform_sinv(w, k),
    "golden_observations": lambda w, z, v, k: cli._golden_observations(numerics.DEFAULT_TOL),
    "random": lambda w, z, v, k: CliRunner().invoke(cli.main, ["random"], catch_exceptions=False),
}

# the K of ``kfusion random`` at its default seed, dimension, member count and rank
RANDOM_K = random_instance(0, 4, 3, 2).k_matrix


@pytest.mark.parametrize("name", LEDGER)
def test_constructions_leave_every_decomposition_of_k_to_its_analysis(
    name, record_linalg, r3_system, r3_perturbed, r3_dual, r3_k
):
    """No construction passes K or K* to a rank or norm kernel, or as the g of a pencil.

    Only ``FrameAnalysis`` (of W, of a perturbed system, of a K-frame or of
    a dual against K*) takes K's SVD and ||K||; every construction reads
    them from there.
    """
    calls = record_linalg(K_DECOMPOSITIONS + ("max_rayleigh",), numerics)
    LEDGER[name](r3_system, r3_perturbed, r3_dual, r3_k)
    ks = (r3_k, _bundled_k("example_r3.json"), _bundled_k("example_r4.json"), RANDOM_K)
    code = _analysis_code()
    found = [
        (call.name, call.caller.co_name)
        for call in calls
        if call.caller not in code
        and _is_one_of(call.args[1] if call.name == "max_rayleigh" else call.args[0], ks)
    ]
    assert calls and found == []


def test_transform_kdag_takes_one_svd_of_k(record_linalg, r3_system, r3_k):
    calls = record_linalg(K_DECOMPOSITIONS, numerics)
    frames.transform_kdag(r3_system, r3_k)
    assert [call.name for call in calls if _is_one_of(call.args[0], (r3_k,))] == ["svd"]


def _not_a_frame():
    """A line in R^3 against K = I: a range obstruction."""
    return make_system(3, [[(1.0, 0.0, 0.0)]]), np.eye(3)


PRECONDITIONS = {
    "x_w": lambda w, k: x_w(w, k),
    "canonical_k_dual": lambda w, k: duality.canonical_k_dual(w, k),
    "resolution_b": lambda w, k: resolution.resolution_b(w, k),
    "resolution_c": lambda w, k: resolution.resolution_c(w, k),
    "transform_sinv": lambda w, k: frames.transform_sinv(w, k),
    "is_exact": lambda w, k: frames.is_exact(w, k),
    "certify_perturbation": lambda w, k: perturbation.certify_perturbation(w, w, k, 0.5, 0.5, 0.1),
    "perturbed_bounds": lambda w, k: perturbation.perturbed_bounds(w, w, k, 0.0),
    "epsilon_threshold": lambda w, k: perturbation.epsilon_threshold(w, w, k),
}


@pytest.mark.parametrize("name", PRECONDITIONS)
def test_every_construction_on_a_verified_w_names_why_w_fails(name):
    with pytest.raises(ValueError, match=r"^system must be a K-fusion frame: range obstruction"):
        PRECONDITIONS[name](*_not_a_frame())


def test_epsilon_threshold_names_a_perturbed_system_that_fails(r3_system, r3_k):
    z, _ = _not_a_frame()
    with pytest.raises(ValueError, match=r"^perturbed system must be a K-fusion frame: range"):
        perturbation.epsilon_threshold(r3_system, z, r3_k)


def test_the_analysis_is_the_one_place_that_requires_a_k_fusion_frame():
    sources = Path(__file__).resolve().parents[1] / "src" / "kfusion"
    raising = {
        (path.stem, name)
        for path in sources.glob("*.py")
        for name, node in _functions(path.stem).items()
        for raise_ in ast.walk(node)
        if isinstance(raise_, ast.Raise) and "must be a K-fusion frame" in ast.unparse(raise_)
    }
    assert raising == {("frames", "require"), ("perturbation", "epsilon_threshold")}
