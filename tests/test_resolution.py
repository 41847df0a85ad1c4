import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from kfusion import frames, numerics, resolution
from kfusion.factorization import x_w
from kfusion.frames import (
    FusionSystem,
    Subspace,
    frame_analysis,
    frame_operator,
    same_subspace,
    subspace_from_spanning,
    synthesis,
    verify_k_fusion,
)
from kfusion.numerics import DEFAULT_TOL, ToleranceProfile, numerical_rank, pinv, spectral_norm
from kfusion.resolution import (
    Resolution,
    frame_from_resolution,
    minimal_norm_check,
    pinv_via_xw,
    resolution_b,
    resolution_c,
    resolution_from_x,
    verify_resolution,
)

from conftest import make_system, random_fusion_system

E1, E2, E3 = np.eye(3)


def spanning_random(rng, n=3, dims=(2, 1, 2)):
    return random_fusion_system(rng, n, list(dims))


# --------------------------------------------------------------- verification


def test_trivial_resolution_bounds(r3_k):
    check = verify_resolution(Resolution((r3_k,), (1.0,)), r3_k)
    assert check.passed
    assert check.residual <= 1e-12
    np.testing.assert_allclose(check.upper, 2.0, atol=1e-12)
    np.testing.assert_allclose(check.lower, 1.0, atol=1e-12)


def test_doubled_weight_breaks_reconstruction(r3_k):
    check = verify_resolution(Resolution((r3_k,), (2.0,)), r3_k)
    assert not check.passed
    np.testing.assert_allclose(check.residual, 3.0 * np.sqrt(2.0), atol=1e-12)


@pytest.mark.parametrize("name", ["projection", "inverse", "from_x"])
@pytest.mark.parametrize(
    "n, dims, rank", [(8, (3, 4, 2, 3), 8), (12, (2, 3, 2), 5)], ids=["dense", "thin"]
)
def test_the_upper_bound_is_the_gram_factors_squared_norm(name, n, dims, rank):
    # read from the pencil's top kept eigenvalue of M* M, not from a second decomposition of M
    rng = np.random.default_rng(11)
    w = random_fusion_system(rng, n, list(dims))
    k = synthesis(w) @ rng.standard_normal((sum(dims), rank)) @ rng.standard_normal((rank, n))
    r = {
        "projection": resolution_b(w, k),
        "inverse": resolution_c(w, k),
        "from_x": resolution_from_x(w, k, x_w(w, k)),
    }[name]
    check = verify_resolution(r, k)
    assert check.passed
    assert check.upper == pytest.approx(spectral_norm(r.gram_factor()) ** 2, rel=1e-12)


def test_an_all_zero_resolution_has_upper_bound_zero(r3_k):
    check = verify_resolution(Resolution((np.zeros((3, 3)),), (1.0,)), r3_k)
    assert check.upper == 0.0
    assert check.lower == 0.0
    assert not check.passed


def test_verify_resolution_shape_mismatch(r3_k):
    with pytest.raises(ValueError):
        verify_resolution(Resolution((np.eye(2),), (1.0,)), r3_k)


def test_resolution_type_validation():
    with pytest.raises(ValueError):
        Resolution((np.eye(2),), (1.0, 1.0))
    with pytest.raises(ValueError):
        Resolution((np.eye(2),), (0.0,))
    with pytest.raises(ValueError):
        Resolution((np.eye(2), np.eye(3)), (1.0, 1.0))


# --------------------------------------------------------------- construction


def test_resolution_from_x_identity_blocks():
    rng = np.random.default_rng(31)
    w = spanning_random(rng)
    r = resolution_from_x(w, np.eye(3), x_w(w, np.eye(3)))
    s_inv = pinv(frame_operator(w))
    for theta, (sub, weight) in zip(r.thetas, w.members):
        np.testing.assert_allclose(theta, weight * sub.projector() @ s_inv, atol=1e-10)
    np.testing.assert_allclose(r.weights, [np.sqrt(w_) for w_ in w.weights])
    assert verify_resolution(r, np.eye(3)).passed


def test_resolution_from_x_component_literals(r3_system, r3_k):
    r = resolution_from_x(r3_system, r3_k, x_w(r3_system, r3_k))
    expected = [
        np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.5, 0.0]]),
        np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ]
    for theta, want in zip(r.thetas, expected):
        np.testing.assert_allclose(theta, want, atol=1e-12)
    check = verify_resolution(r, r3_k)
    assert check.passed and check.lower > 0.0


def test_resolution_from_x_rejects_stale_solution(r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    with pytest.raises(ValueError):
        resolution_from_x(r3_system, 3.0 * r3_k, sol)


def test_projected_constructions_identity_case():
    rng = np.random.default_rng(37)
    w = spanning_random(rng)
    s_inv = pinv(frame_operator(w))
    rb = resolution_b(w, np.eye(3))
    rc = resolution_c(w, np.eye(3))
    for theta, (sub, _) in zip(rb.thetas, w.members):
        np.testing.assert_allclose(theta, sub.projector() @ s_inv, atol=1e-10)
    for theta, (sub, _) in zip(rc.thetas, w.members):
        np.testing.assert_allclose(theta, s_inv @ sub.projector(), atol=1e-10)
    assert verify_resolution(rb, np.eye(3)).passed
    assert verify_resolution(rc, np.eye(3)).passed


def test_projected_constructions_plane_line_system(r3_system, r3_k):
    for build in (resolution_b, resolution_c):
        check = verify_resolution(build(r3_system, r3_k), r3_k)
        assert check.passed
        assert check.lower > 0.0


def test_projected_constructions_rank_one_target(r3_system):
    k = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for build in (resolution_b, resolution_c):
        r = build(r3_system, k)
        assert verify_resolution(r, k).passed
        for theta in r.thetas:
            # every operator lands inside the line range(K)
            assert numerical_rank(np.hstack([theta, k])) == 1


def test_constructions_require_frame_condition():
    w = make_system(3, [[list(E1)]])
    for build in (resolution_b, resolution_c):
        with pytest.raises(ValueError):
            build(w, np.eye(3))


@seed(1)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6))
def test_constructed_resolutions_pass_with_positive_lower(entropy, n):
    rng = np.random.default_rng(entropy)
    w = random_fusion_system(rng, n, [n - 1, n - 1])
    k = synthesis(w) @ rng.standard_normal((sum(w.dims()), n))
    sv = np.linalg.svd(k, compute_uv=False)
    assume(sv[0] > 1e-3 and sv[sv > 1e-12 * sv[0]].min() > 1e-6 * sv[0])
    for r in (
        resolution_from_x(w, k, x_w(w, k)),
        resolution_b(w, k),
        resolution_c(w, k),
    ):
        check = verify_resolution(r, k)
        assert check.passed
        assert check.lower > 0.0
        assert np.isfinite(check.upper)


def _system_with_a_zero_member():
    """Seeded n = 24 system of five members and a zero-dimensional one, and a rank-6 K inside it."""
    rng = np.random.default_rng(29)
    n = 24
    base = random_fusion_system(rng, n, [1, 3, 4, 6, 5], list(rng.uniform(0.5, 2.0, 5)))
    w = FusionSystem(n, base.members + ((Subspace(n, np.zeros((n, 0))), 1.5),))
    k = synthesis(w) @ rng.standard_normal((sum(w.dims()), 6)) @ rng.standard_normal((6, n))
    return w, k


@pytest.mark.filterwarnings("ignore:zero-dimensional members")
def test_member_basis_constructions_equal_the_projector_formulas():
    w, k = _system_with_a_zero_member()
    analysis = frame_analysis(w, k)
    p_r, inv_img = analysis.k_factors.u @ analysis.k_factors.u.T, analysis.inverse_on_image
    carrier = inv_img.T @ k
    want_b = [p_r @ sub.projector() @ carrier for sub in w.subspaces]
    want_c = [inv_img @ sub.projector() @ k for sub in w.subspaces]
    for built, want in ((resolution_b(w, k), want_b), (resolution_c(w, k), want_c)):
        assert built.weights == tuple(w.weights)
        for theta, expected in zip(built.thetas, want):
            assert spectral_norm(theta - expected) <= 1e-12 * max(spectral_norm(expected), 1.0)


def _built_resolutions(w, k):
    """The three library constructions, each with its operators in the closed form of its docstring."""
    analysis = frame_analysis(w, k)
    p_r, inv_img = analysis.k_factors.u @ analysis.k_factors.u.T, analysis.inverse_on_image
    carrier = inv_img.T @ k
    sol = x_w(w, k)
    return {
        "b": (resolution_b(w, k), [p_r @ sub.projector() @ carrier for sub in w.subspaces]),
        "c": (resolution_c(w, k), [inv_img @ sub.projector() @ k for sub in w.subspaces]),
        "from_x": (
            resolution_from_x(w, k, sol),
            [sub.basis @ sol.x[sl, :] for sub, sl in zip(w.subspaces, w.block_slices())],
        ),
    }


def _relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.filterwarnings("ignore:zero-dimensional members")
@pytest.mark.parametrize("name", ["b", "c", "from_x"])
def test_factored_resolutions_equal_their_dense_sums(name):
    w, k = _system_with_a_zero_member()
    r, dense = _built_resolutions(w, k)[name]
    weights = r.weights
    for theta, want in zip(r.thetas, dense):
        assert np.linalg.norm(theta - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)
    want_sum = sum(wt**2 * theta for theta, wt in zip(dense, weights))
    want_gram = sum(wt**2 * theta.T @ theta for theta, wt in zip(dense, weights))
    assert _relative_gap(r.weighted_sum(), want_sum) <= 1e-12
    factor = r.gram_factor()
    assert factor.shape == (sum(left.shape[1] for left, _ in r.factors), k.shape[1])
    assert _relative_gap(factor.T @ factor, want_gram) <= 1e-12


@pytest.mark.filterwarnings("ignore:zero-dimensional members")
@pytest.mark.parametrize("name", ["b", "c", "from_x"])
def test_factored_and_dense_resolutions_verify_alike(name):
    w, k = _system_with_a_zero_member()
    r, _ = _built_resolutions(w, k)[name]
    factored = verify_resolution(r, k)
    dense = verify_resolution(Resolution(r.thetas, r.weights), k)
    assert factored.passed and dense.passed
    for got, want in ((factored.lower, dense.lower), (factored.upper, dense.upper)):
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.filterwarnings("ignore:zero-dimensional members")
def test_no_library_built_factor_is_n_by_n():
    w, k = _system_with_a_zero_member()
    n = w.ambient_dim
    for r, _ in _built_resolutions(w, k).values():
        assert len(r.factors) == len(w)
        for (left, right), d in zip(r.factors, w.dims()):
            assert left.shape == (n, d) and right.shape == (d, n)


def test_factor_pairs_must_chain_and_share_one_shape():
    with pytest.raises(ValueError):
        Resolution.from_factors(((np.ones((3, 2)), np.ones((1, 3))),), (1.0,))
    with pytest.raises(ValueError):
        Resolution.from_factors(
            ((np.ones((3, 1)), np.ones((1, 3))), (np.ones((3, 1)), np.ones((1, 2)))), (1.0, 1.0)
        )
    with pytest.raises(ValueError):
        Resolution((), ())


# ------------------------------------------------------------ induced systems


def test_frame_from_trivial_resolution(r3_k):
    system, cert = frame_from_resolution(Resolution((r3_k,), (1.0,)), r3_k)
    assert same_subspace(
        system.members[0][0], subspace_from_spanning([E1 + E2, E3])
    )
    assert cert.passed


def test_frame_from_projected_resolution(r3_system, r3_k):
    system, cert = frame_from_resolution(resolution_b(r3_system, r3_k), r3_k)
    assert cert.passed


def test_frame_from_resolution_random():
    rng = np.random.default_rng(41)
    w = spanning_random(rng, 5, (3, 2, 4))
    k = synthesis(w) @ rng.standard_normal((sum(w.dims()), 5))
    system, cert = frame_from_resolution(resolution_c(w, k), k)
    assert cert.passed


def test_frame_from_resolution_rejects_bad_sum(r3_k):
    with pytest.raises(ValueError):
        frame_from_resolution(Resolution((r3_k,), (2.0,)), r3_k)


# ---------------------------------------------------------------- minimality


def test_minimal_norm_equality_for_distinguished_solution(r3_system, r3_k):
    r = resolution_from_x(r3_system, r3_k, x_w(r3_system, r3_k))
    report = minimal_norm_check(r3_system, r3_k, r)
    assert report.passed
    assert abs(report.plain_margin[0]) <= 1e-9
    assert abs(report.plain_margin[1]) <= 1e-9
    assert abs(report.centered_margin[0]) <= 1e-9


def test_minimal_norm_strict_for_shifted_solution(r3_system, r3_k):
    rng = np.random.default_rng(43)
    t = synthesis(r3_system)
    sol = x_w(r3_system, r3_k)
    shift = (np.eye(t.shape[1]) - pinv(t) @ t) @ rng.standard_normal((t.shape[1], 3))
    shifted = sol.x + shift
    thetas = tuple(
        sub.basis @ shifted[sl, :]
        for (sub, _), sl in zip(r3_system.members, r3_system.block_slices())
    )
    r = Resolution(thetas, tuple(np.sqrt(w_) for w_ in r3_system.weights))
    report = minimal_norm_check(r3_system, r3_k, r)
    assert report.passed
    assert report.plain_margin[0] >= -1e-9
    assert report.plain_margin[1] > 1e-3
    assert report.centered_margin[1] > 1e-3


def _norms_taken(monkeypatch):
    """The matrices whose spectral norm ``kfusion.resolution`` takes from now on."""
    taken = []
    monkeypatch.setattr(
        resolution, "spectral_norm", lambda m: taken.append(m) or spectral_norm(m)
    )
    return taken


def test_passing_checks_take_no_norm_of_k_or_of_a_member_operator(monkeypatch):
    rng = np.random.default_rng(9)
    w = random_fusion_system(rng, 12, [2, 3, 2])
    k = synthesis(w) @ rng.standard_normal((7, 12))
    r = resolution_from_x(w, k, x_w(w, k))
    taken = _norms_taken(monkeypatch)
    inner = []
    for module in (numerics, frames):
        monkeypatch.setattr(module, "spectral_norm", lambda m: inner.append(m) or spectral_norm(m))
    assert verify_resolution(r, k).passed
    assert minimal_norm_check(w, k, r).passed
    # the two residuals, nothing per member and not ||K||: the upper bound is
    # the pencil's top eigenvalue; K lies in the span of the 12 x 7 stacked
    # left factors, so the first residual is taken at 7 x 12
    assert [m.shape for m in taken] == [(7, 12), (12, 12)]
    assert not any(m is k for m in taken)
    # the pencil's scale, the members' containment and ||K|| are rank-sized
    assert inner and all(min(m.shape) <= 7 for m in inner), [m.shape for m in inner]


@pytest.mark.parametrize("a, passed", [(1.1, True), (1.4, False)])
def test_the_resolution_residual_is_decided_at_the_pencils_scale(a, passed):
    """theta = e1 e1*, K = diag(1, a): the residual is a, and so is K*'s part off theta's row space.

    The pencil's containment step gives s = hypot(||E* K*||, a) = hypot(1, a)
    while ||K|| = a. At eq_abs = 0.5, a = 1.1 fails at ||K|| (allowance 1.05)
    and passes at s (1.24); a = 1.4 fails at both (1.2 and 1.36). The pencil
    judges K*'s containment from the same r and s, so it is bounded, with
    lower bound 1, exactly when the residual passes.
    """
    tol = ToleranceProfile(eq_abs=0.5)
    check = verify_resolution(Resolution((np.diag([1.0, 0.0]),), (1.0,)), np.diag([1.0, a]), tol)
    assert check.residual == pytest.approx(a, rel=1e-15)
    assert check.passed is passed
    assert check.lower == (1.0 if passed else 0.0)


def test_minimal_norm_rejects_range_violation(r3_system, r3_k):
    r = Resolution((r3_k, r3_k, r3_k), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        minimal_norm_check(r3_system, r3_k, r)


def test_minimal_norm_rejects_wrong_normalization():
    w = make_system(3, [[list(E1), list(E2), list(E3)]], weights=[2.0])
    with pytest.raises(ValueError):
        minimal_norm_check(w, np.eye(3), Resolution((np.eye(3),), (1.0,)))


# ------------------------------------------------------- pseudo-inverse route


def test_pinv_route_identity_target():
    rng = np.random.default_rng(47)
    w = spanning_random(rng)
    f = rng.standard_normal(3)
    blocks, report = pinv_via_xw(w, np.eye(3), f)
    assert report.matches_plain
    assert not report.projected
    oracle = pinv(synthesis(w)) @ f
    classical = synthesis(w).T @ pinv(frame_operator(w)) @ f
    np.testing.assert_allclose(oracle, classical, atol=1e-10)


def test_pinv_route_plane_line_system(r3_system, r3_k):
    rng = np.random.default_rng(53)
    f = r3_k @ rng.standard_normal(3)
    blocks, report = pinv_via_xw(r3_system, r3_k, f)
    assert report.matches_plain
    assert report.matches_weighted
    assert report.gap_plain <= 1e-10


def test_pinv_route_projects_orthogonal_input(r3_system, r3_k):
    with pytest.warns(UserWarning):
        blocks, report = pinv_via_xw(r3_system, r3_k, E1 - E2)
    assert report.projected
    assert blocks.norm() <= 1e-12


def test_pinv_route_diverges_for_oblique_member():
    # the minimal synthesis preimage is not minimal for the projected
    # equation once a member leans out of range(K)
    w = make_system(3, [[list(E1), list(E2)], [[0.0, 1.0, 1.0]]])
    k = np.diag([1.0, 1.0, 0.0])
    blocks, report = pinv_via_xw(w, k, E2)
    assert not report.matches_plain
    np.testing.assert_allclose(report.gap_plain, 1.0 / np.sqrt(3.0), atol=1e-12)
    oracle = pinv(np.diag([1.0, 1.0, 0.0]) @ synthesis(w)) @ E2
    np.testing.assert_allclose(np.linalg.norm(oracle) ** 2, 2.0 / 3.0, atol=1e-12)
