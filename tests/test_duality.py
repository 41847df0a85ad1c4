import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from kfusion import duality, frames
from kfusion.duality import (
    PhiOperator,
    _block_diag,
    _canonical_local_duals,
    canonical_k_dual,
    check_sws_range_condition,
    component_preserving_duals,
    enlarge_dual,
    inverse_on_image,
    is_k_dual,
    is_qk_dual,
    kframe_from_local,
    kframe_projection_dual,
    local_duality_equiv,
    local_frame_system,
    minimal_dual_test,
    phi_operator,
    qk_dual_from_x,
)
from kfusion.factorization import x_w
from kfusion.frames import (
    BlockVector,
    KFrame,
    Subspace,
    frame_analysis,
    frame_operator,
    map_subspace,
    same_subspace,
    subspace_from_spanning,
    synthesis,
    verify_k_fusion,
)
from kfusion.numerics import DEFAULT_TOL, AgreementError, pinv, spectral_norm

from conftest import make_system, random_fusion_system

E1, E2, E3 = np.eye(3)


def orthonormal_line_system(n):
    # one member per coordinate axis, unit weights
    return make_system(n, [[list(np.eye(n)[i])] for i in range(n)])


# ---------------------------------------------------------------- transfer map


def test_phi_operator_blocks_have_member_shapes(r3_system, r3_dual, r3_k):
    phi = phi_operator(r3_system, r3_dual, r3_k)
    w_dims = r3_system.dims()
    v_dims = r3_dual.dims()
    assert [b.shape for b in phi.blocks] == list(zip(w_dims, v_dims))
    mat = phi.matrix()
    assert mat.shape == (sum(w_dims), sum(v_dims))


def test_block_diag_keeps_empty_blocks_in_place():
    blocks = [np.array([[1.0], [2.0]]), np.zeros((0, 2)), np.zeros((1, 0)), np.array([[3.0]])]
    expected = np.zeros((4, 4))
    expected[0:2, 0] = [1.0, 2.0]
    expected[3, 3] = 3.0
    np.testing.assert_array_equal(_block_diag(blocks), expected)
    assert _block_diag([]).shape == (0, 0)


def test_phi_matrix_with_zero_dimensional_member():
    # S = diag(4, 4, 1), so the plane block is I/4 and the line block is 1
    w = make_system(3, [[E1, E2], [np.zeros(3)], [E3]], weights=[2.0, 1.0, 1.0])
    phi = phi_operator(w, w, np.eye(3))
    assert [b.shape for b in phi.blocks] == [(2, 2), (0, 0), (1, 1)]
    np.testing.assert_allclose(phi.matrix(), np.diag([0.25, 0.25, 1.0]), atol=1e-12)


def test_phi_apply_matches_assembled_matrix(r3_system, r3_dual, r3_k):
    phi = phi_operator(r3_system, r3_dual, r3_k)
    rng = np.random.default_rng(3)
    coeffs = BlockVector.from_stacked(rng.standard_normal(sum(r3_dual.dims())), r3_dual.dims())
    out = phi.apply(coeffs)
    np.testing.assert_allclose(out.stacked(), phi.matrix() @ coeffs.stacked(), atol=1e-12)


def test_phi_apply_rejects_a_block_vector_with_another_block_count():
    phi = PhiOperator((np.eye(2),))
    with pytest.raises(ValueError, match="2 blocks given, 1 expected"):
        phi.apply(BlockVector((np.ones(2), np.ones(1))))


def test_inverse_on_image_fixed_matrix(r3_system, r3_k):
    expected = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.5]])
    np.testing.assert_allclose(inverse_on_image(r3_system, r3_k), expected, atol=1e-12)


# ------------------------------------------------------------------- QK-duals


def test_qk_dual_identity_on_orthonormal_lines():
    w = orthonormal_line_system(3)
    cert = is_qk_dual(w, w, np.eye(3), np.eye(3))
    assert cert.passed
    assert cert.residual <= 1e-12
    assert cert.details["adjoint_frame"].passed
    assert cert.details["lower_bound_ok"]
    assert cert.details["upper_bound_ok"]


def test_qk_dual_zero_operator_fails_with_full_residual(r3_system, r3_k):
    dw = sum(r3_system.dims())
    cert = is_qk_dual(r3_system, r3_system, np.zeros((dw, dw)), r3_k)
    assert not cert.passed
    np.testing.assert_allclose(cert.residual, spectral_norm(r3_k), atol=1e-12)


def test_qk_dual_rejects_wrong_shape(r3_system, r3_k):
    with pytest.raises(ValueError):
        is_qk_dual(r3_system, r3_system, np.zeros((2, 2)), r3_k)


def test_qk_dual_from_x_row_space_members(r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    dual, q, cert = qk_dual_from_x(r3_system, r3_k, sol)
    expected = [[E1, E2], [E2], [E1]]
    for (sub, weight), spanning in zip(dual.members, expected):
        assert same_subspace(sub, subspace_from_spanning(spanning))
        assert weight == 1.0
    assert cert.passed
    assert cert.residual <= 1e-12
    assert cert.details["adjoint_frame"].passed
    assert cert.details["lower_bound_ok"] and cert.details["upper_bound_ok"]
    np.testing.assert_allclose(q, cert.operator_q)


def test_qk_dual_from_x_identity_gives_inverse_images():
    rng = np.random.default_rng(7)
    w = random_fusion_system(rng, 4, [2, 2, 1])
    sol = x_w(w, np.eye(4))
    dual, _, cert = qk_dual_from_x(w, np.eye(4), sol)
    s_inv = pinv(frame_operator(w))
    for (sub, _), (orig, _) in zip(dual.members, w.members):
        assert same_subspace(sub, map_subspace(s_inv, orig))
    assert cert.passed


def test_qk_dual_from_x_rejects_mismatched_solution(r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    with pytest.raises(ValueError):
        qk_dual_from_x(r3_system, 2.0 * r3_k, sol)


@seed(1)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6))
def test_qk_dual_from_x_reconstructs_any_compatible_target(entropy, n):
    rng = np.random.default_rng(entropy)
    w = random_fusion_system(rng, n, [n - 1, n - 1])
    k = synthesis(w) @ rng.standard_normal((sum(w.dims()), n))
    sv = np.linalg.svd(k, compute_uv=False)
    assume(sv[0] > 1e-3 and sv[sv > 1e-12 * sv[0]].min() > 1e-6 * sv[0])
    dual, _, cert = qk_dual_from_x(w, k, x_w(w, k))
    assert cert.passed
    assert cert.details["adjoint_frame"].passed


def _dense_and_thin_instances():
    """(W, K): sum(d) > n with a full-rank K, and sum(d) < n with K of rank 5 inside span T."""
    rng = np.random.default_rng(5)
    dense = random_fusion_system(rng, 8, [3, 4, 2, 3])
    thin = random_fusion_system(rng, 12, [2, 3, 2])
    k_thin = synthesis(thin) @ rng.standard_normal((7, 5)) @ rng.standard_normal((5, 12))
    return [(dense, rng.standard_normal((8, 8))), (thin, k_thin)]


@pytest.mark.parametrize("case", [0, 1], ids=["dense", "thin"])
def test_qk_dual_bound_floors_read_the_norm_of_the_returned_q(case):
    w, k = _dense_and_thin_instances()[case]
    _, q, cert = qk_dual_from_x(w, k, x_w(w, k))
    assert cert.passed
    base = verify_k_fusion(w, k)
    inv_qn = spectral_norm(q) ** -2
    assert cert.details["lower_bound_floor"] == pytest.approx(inv_qn / base.bounds.upper, rel=1e-12)
    assert cert.details["upper_bound_floor"] == pytest.approx(inv_qn / base.bounds.lower, rel=1e-12)


# -------------------------------------------------------------------- K-duals


def test_k_dual_accepts_containing_system(r3_system, r3_dual, r3_k):
    cert = is_k_dual(r3_system, r3_dual, r3_k)
    assert cert.passed
    assert cert.residual <= 1e-12


def test_k_dual_canonical_identity_case():
    rng = np.random.default_rng(11)
    w = random_fusion_system(rng, 3, [2, 1, 2])
    dual, cert, _ = canonical_k_dual(w, np.eye(3))
    assert cert.passed
    s_inv = pinv(frame_operator(w))
    for (sub, _), (orig, _) in zip(dual.members, w.members):
        assert same_subspace(sub, map_subspace(s_inv, orig))


def test_k_dual_self_pairing_matches_direct_computation(r3_system, r3_k):
    cert = is_k_dual(r3_system, r3_system, r3_k)
    recon = sum(
        weight**2 * sub.projector() @ inverse_on_image(r3_system, r3_k).T @ r3_k @ sub.projector()
        for sub, weight in r3_system.members
    )
    p_r = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    oracle = spectral_norm(p_r @ recon - r3_k)
    np.testing.assert_allclose(cert.residual, oracle, atol=1e-12)
    assert cert.passed == (oracle <= DEFAULT_TOL.eq_abs * (1.0 + spectral_norm(r3_k)))


def test_k_dual_member_count_mismatch(r3_system, r3_k):
    v = make_system(3, [[list(E1)], [list(E2)]])
    with pytest.raises(ValueError):
        is_k_dual(r3_system, v, r3_k)


# -------------------------------------------------------------- canonical dual


def test_canonical_dual_members_of_plane_line_system(r3_system, r3_k):
    dual, cert, report = canonical_k_dual(r3_system, r3_k)
    expected = [[E1, E2], [E2], [E1]]
    for (sub, weight), spanning in zip(dual.members, expected):
        assert same_subspace(sub, subspace_from_spanning(spanning))
        assert weight == 1.0
    assert cert.passed
    np.testing.assert_allclose(report["bessel_bound"], 2.0, atol=1e-12)
    np.testing.assert_allclose(report["bessel_estimate"], 4.0, atol=1e-12)
    assert report["within_estimate"]


def test_canonical_dual_requires_frame_condition():
    w = make_system(3, [[list(E1)]])
    with pytest.raises(ValueError):
        canonical_k_dual(w, np.eye(3))


@seed(1)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6))
def test_canonical_dual_passes_and_respects_bessel_estimate(entropy, n):
    rng = np.random.default_rng(entropy)
    w = random_fusion_system(rng, n, [n - 1, n - 1])
    k = synthesis(w) @ rng.standard_normal((sum(w.dims()), n))
    sv = np.linalg.svd(k, compute_uv=False)
    assume(sv[0] > 1e-3 and sv[sv > 1e-12 * sv[0]].min() > 1e-6 * sv[0])
    dual, cert, report = canonical_k_dual(w, k)
    assert cert.passed
    assert report["within_estimate"]


def _orthonormal_columns(m):
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > 1e-10 * s.max(initial=0.0)]


def _bessel_estimate_of_the_projected_family(w, k):
    """The canonical dual's Bessel estimate, with numpy, from the family projected onto S(range K)."""
    s = frame_operator(w)
    image = _orthonormal_columns(s @ k)
    projected = np.hstack(
        [weight * _orthonormal_columns(image @ (image.T @ sub.basis)) for sub, weight in w.members]
    )
    p_k = _orthonormal_columns(k)
    factors = (projected, k, np.linalg.pinv(k, rcond=1e-10), s)
    norm_sq = np.prod([np.linalg.norm(m, 2) ** 2 for m in factors])
    return norm_sq * np.linalg.norm(np.linalg.pinv(s @ p_k @ p_k.T, rcond=1e-10), 2) ** 2


def _full_and_low_rank_targets():
    """(W, K) in R^6, four members: K of full rank, then K of rank 2 inside span T."""
    rng = np.random.default_rng(4)
    w = random_fusion_system(rng, 6, [3, 2, 3, 1])
    full = np.linalg.qr(rng.standard_normal((6, 6)))[0] * rng.uniform(0.5, 2.0, 6)
    low = synthesis(w) @ rng.standard_normal((9, 2)) @ rng.standard_normal((2, 6))
    return [(w, full), (w, low)]


@pytest.mark.parametrize("case", [0, 1], ids=["full-rank", "rank-2"])
def test_the_bessel_estimate_is_that_of_the_projected_family(case):
    w, k = _full_and_low_rank_targets()[case]
    _, cert, report = canonical_k_dual(w, k)
    assert cert.passed
    expected = _bessel_estimate_of_the_projected_family(w, k)
    assert report["bessel_estimate"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case, per_member", [(0, 1), (1, 2)], ids=["full-rank", "rank-2"])
def test_only_a_rank_deficient_k_builds_the_projected_family(monkeypatch, case, per_member):
    # for a full-rank K the projected family is W, whose Bessel bound the analysis holds
    w, k = _full_and_low_rank_targets()[case]
    frame_analysis(w, k).require()
    taken = []
    real = frames.orthonormal_range
    monkeypatch.setattr(frames, "orthonormal_range", lambda m, tol: taken.append(m) or real(m, tol))
    canonical_k_dual(w, k)
    assert len(taken) == per_member * len(w)


# ----------------------------------------------------------------- enlargement


def test_enlarge_dual_adds_orthogonal_direction(r3_system, r3_k):
    base, base_cert, _ = canonical_k_dual(r3_system, r3_k)
    v, cert = enlarge_dual(r3_system, r3_k, base, 2, subspace_from_spanning([E3]))
    assert same_subspace(v.members[2][0], subspace_from_spanning([E1, E3]))
    assert cert.passed
    assert abs(cert.residual - base_cert.residual) <= 1e-9


def test_enlarge_dual_zero_summand_keeps_members(r3_system, r3_k):
    base, _, _ = canonical_k_dual(r3_system, r3_k)
    zero = Subspace(3, np.zeros((3, 0)))
    v, cert = enlarge_dual(r3_system, r3_k, base, 1, zero)
    for (sub, _), (orig, _) in zip(v.members, base.members):
        assert same_subspace(sub, orig)
    assert cert.passed


def test_enlarge_dual_rejects_overlapping_summand(r3_system, r3_k):
    base, _, _ = canonical_k_dual(r3_system, r3_k)
    with pytest.raises(ValueError):
        enlarge_dual(r3_system, r3_k, base, 0, subspace_from_spanning([E1]))


# ----------------------------------------------------- range condition (S.S.R)


def test_sws_condition_holds_for_plane_line_system(r3_system, r3_k):
    report = check_sws_range_condition(r3_system, r3_k)
    assert report.range_condition
    assert report.operator_equality
    assert report.families_equal
    assert all(report.member_equal)


def test_sws_condition_trivial_for_identity():
    rng = np.random.default_rng(5)
    w = random_fusion_system(rng, 4, [3, 2])
    report = check_sws_range_condition(w, np.eye(4))
    assert report.range_condition and report.families_equal


def test_sws_condition_fails_both_ways_together():
    w = make_system(3, [[list(E1), list(E2)], [[0.0, 1.0, 1.0]]])
    k = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    report = check_sws_range_condition(w, k)
    assert not report.range_condition
    assert not report.operator_equality
    assert not report.families_equal


def test_sws_rank_one_target_degenerates_gracefully():
    # every dual member collapses into one line, so the subspace families
    # coincide even though the range condition fails
    w = make_system(3, [[list(E1), list(E2)], [[0.0, 1.0, 1.0]]])
    k = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    report = check_sws_range_condition(w, k)
    assert not report.range_condition
    assert not report.operator_equality
    assert report.families_equal


def test_sws_range_condition_and_solution_comparison_must_agree(monkeypatch, r3_system, r3_k):
    # the doubled range reads as leaving range(K), while the solutions still coincide
    monkeypatch.setattr(duality, "outside_column", lambda m, b, tol: 0)
    with pytest.raises(AgreementError) as err:
        check_sws_range_condition(r3_system, r3_k)
    assert str(err.value) == "range condition and solution comparison disagree: False vs True"


def test_sws_equal_solutions_must_give_equal_members(monkeypatch, r3_system, r3_k):
    monkeypatch.setattr(duality, "same_subspace", lambda a, b, tol: False)
    with pytest.raises(AgreementError) as err:
        check_sws_range_condition(r3_system, r3_k)
    assert str(err.value) == "equal solution components produced unequal members"


# --------------------------------------------------------- minimal-system test


def minimal_r4():
    w = make_system(4, [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0]]])
    k = np.diag([1.0, 1.0, 1.0, 0.0])
    return w, k


def test_minimal_dual_containment_implies_duality():
    w, k = minimal_r4()
    v = make_system(4, [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], [[0, 0, 1, 0], [0, 0, 0, 1]]])
    report = minimal_dual_test(w, k, v)
    assert not report.skipped
    assert report.is_dual
    assert all(report.containment)
    assert report.agree


def test_minimal_dual_missing_direction_fails_both_sides():
    w, k = minimal_r4()
    v = make_system(4, [[[1, 0, 0, 0]], [[0, 0, 1, 0]]])
    report = minimal_dual_test(w, k, v)
    assert not report.skipped
    assert not report.is_dual
    assert not all(report.containment)
    assert report.agree


def test_minimal_dual_duality_and_containment_must_agree(monkeypatch):
    w, k = minimal_r4()
    v = make_system(4, [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], [[0, 0, 1, 0], [0, 0, 0, 1]]])
    monkeypatch.setattr(duality, "subspace_contains", lambda outer, inner, tol: False)
    with pytest.raises(AgreementError) as err:
        minimal_dual_test(w, k, v)
    assert str(err.value) == "duality True and containment False disagree"


def test_minimal_dual_skips_on_hypothesis_violation(r3_system, r3_dual, r3_k):
    # the plane already contains both lines, so the system is not minimal
    report = minimal_dual_test(r3_system, r3_k, r3_dual)
    assert report.skipped
    assert "system is not minimal" in report.violations


def test_minimal_dual_skips_when_the_span_meets_the_kernel_of_k_star():
    # the coordinate lines are minimal, and e2, e3 lie off range(K) for K = e1 e1*
    w = make_system(3, [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]])
    report = minimal_dual_test(w, np.diag([1.0, 0.0, 0.0]), w)
    assert report.skipped
    assert report.violations == (
        "span of the members meets the orthogonal complement of range(K)",
    )


# ------------------------------------------------- component-preserving duals


def test_component_preserving_identity_target():
    rng = np.random.default_rng(13)
    w = random_fusion_system(rng, 3, [2, 1, 2])
    sol = x_w(w, np.eye(3))
    v, cert = component_preserving_duals(w, sol.x.T, k=np.eye(3))
    s_inv = pinv(frame_operator(w))
    for (sub, _), (orig, _) in zip(v.members, w.members):
        assert same_subspace(sub, map_subspace(s_inv, orig))
    assert cert.passed
    assert cert.details["block_diagonal"]


def test_component_preserving_recovers_row_space_members(r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    v, cert = component_preserving_duals(r3_system, sol.x.T, k=r3_k)
    expected = [[E1, E2], [E2], [E1]]
    for (sub, _), spanning in zip(v.members, expected):
        assert same_subspace(sub, subspace_from_spanning(spanning))
    assert cert.passed
    assert cert.residual <= 1e-12


def test_component_preserving_accepts_any_left_inverse_shift(r3_system, r3_k):
    rng = np.random.default_rng(17)
    t = synthesis(r3_system)
    slack = np.eye(t.shape[1]) - t.T @ pinv(t.T)
    psi = x_w(r3_system, r3_k).x.T + rng.standard_normal((3, t.shape[1])) @ slack
    v, cert = component_preserving_duals(r3_system, psi, k=r3_k)
    assert cert.passed
    assert cert.residual <= 1e-9


def test_component_preserving_rejects_bad_psi(r3_system, r3_k):
    psi = np.ones((3, sum(r3_system.dims())))
    with pytest.raises(ValueError):
        component_preserving_duals(r3_system, psi, k=r3_k)


def test_component_preserving_takes_k_by_keyword_only(r3_system, r3_k):
    psi = x_w(r3_system, r3_k).x.T
    with pytest.raises(TypeError):
        component_preserving_duals(r3_system, psi)
    with pytest.raises(TypeError):
        component_preserving_duals(r3_system, psi, DEFAULT_TOL, r3_k)


# -------------------------------------------------- projected discrete frames


def test_projection_dual_fixes_orthonormal_basis():
    f = KFrame(3, tuple(np.eye(3)))
    projected, dual, cert = kframe_projection_dual(f, np.eye(3))
    np.testing.assert_allclose(projected.matrix, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(dual.matrix, np.eye(3), atol=1e-12)
    assert cert.passed


def test_projection_dual_of_member_projections(r3_system, r3_k):
    vectors = []
    for sub, weight in r3_system.members:
        proj = sub.projector()
        vectors.extend(weight * proj[:, j] for j in range(3))
    f = KFrame(3, tuple(vectors))
    projected, dual, cert = kframe_projection_dual(f, r3_k)
    assert cert.passed
    # ||K f - R f|| <= residual ||f|| for every f
    assert cert.details["residual"] <= 1e-12
    recon = projected.matrix @ dual.matrix.T
    np.testing.assert_allclose(recon, r3_k, atol=1e-12)


def test_projection_dual_rank_one_target():
    f = KFrame(3, tuple(np.eye(3)))
    k = np.outer(E1, [1.0, 1.0, 0.0])
    projected, dual, cert = kframe_projection_dual(f, k)
    assert cert.passed
    recon = projected.matrix @ dual.matrix.T
    np.testing.assert_allclose(recon, k, atol=1e-12)


def test_projection_dual_requires_k_frame():
    f = KFrame(3, (E1,))
    with pytest.raises(ValueError):
        kframe_projection_dual(f, np.eye(3))


# --------------------------------------------------------- local frame bridges


def test_local_frame_system_validates_span_and_membership(r3_dual):
    with pytest.raises(ValueError):
        local_frame_system(r3_dual, [[E1], [E2], [E1, E3]])
    with pytest.raises(ValueError):
        local_frame_system(r3_dual, [[E1, E3], [E2], [E1, E3]])
    local = local_frame_system(r3_dual, [[E1, E2], [E2], [E1, E3]])
    for lower, upper in local.local_bounds:
        np.testing.assert_allclose([lower, upper], [1.0, 1.0], atol=1e-12)


def test_local_frame_bounds_for_overcomplete_family(r3_dual):
    local = local_frame_system(
        r3_dual, [[E1, E2, (E1 + E2) / np.sqrt(2)], [E2], [E1, E3]]
    )
    lower, upper = local.local_bounds[0]
    np.testing.assert_allclose([lower, upper], [1.0, 2.0], atol=1e-12)


def test_local_duality_matches_subspace_duality(r3_system, r3_dual, r3_k):
    local = local_frame_system(r3_dual, [[E1, E2], [E2], [E1, E3]])
    report = local_duality_equiv(r3_system, r3_dual, local, r3_k)
    assert report.continuous_pass and report.discrete_pass
    assert report.operators_match
    assert report.discrete_residual <= 1e-12


def test_local_duality_canonical_dual_with_orthonormal_locals(r3_system, r3_k):
    dual, _, _ = canonical_k_dual(r3_system, r3_k)
    locals_ = [[sub.basis[:, j] for j in range(sub.dim)] for sub, _ in dual.members]
    local = local_frame_system(dual, locals_)
    report = local_duality_equiv(r3_system, dual, local, r3_k)
    assert report.continuous_pass and report.discrete_pass


def test_local_duality_corrupted_member_fails_both_ways(r3_system, r3_k):
    v = make_system(3, [[list(E1), list(E3)], [list(E2)], [list(E1), list(E3)]])
    local = local_frame_system(v, [[E1, E3], [E2], [E1, E3]])
    report = local_duality_equiv(r3_system, v, local, r3_k)
    assert not report.continuous_pass
    assert not report.discrete_pass
    np.testing.assert_allclose(report.continuous_residual, 0.5, atol=1e-12)
    assert report.operators_match


def test_local_duality_subspace_and_discrete_routes_must_agree(
    monkeypatch, r3_system, r3_dual, r3_k
):
    # doubled local duals make the discrete composite 2K, while the subspace route rebuilds K
    real = duality._canonical_local_duals
    monkeypatch.setattr(duality, "_canonical_local_duals", lambda mat, tol: 2.0 * real(mat, tol))
    local = local_frame_system(r3_dual, [[E1, E2], [E2], [E1, E3]])
    with pytest.raises(AgreementError) as err:
        local_duality_equiv(r3_system, r3_dual, local, r3_k)
    assert str(err.value) == "subspace duality True and discrete duality False disagree"


def _scaled_canonical_locals(r3_system, r3_k):
    """The canonical dual of R^3 and its members' bases, each second vector scaled by 1e-7."""
    dual, _, _ = canonical_k_dual(r3_system, r3_k)
    scale = [1.0, 1e-7]
    return dual, [[scale[j] * v for j, v in enumerate(sub.basis.T)] for sub, _ in dual.members]


def test_a_local_frame_near_the_cutoff_gets_its_canonical_duals(r3_system, r3_k):
    """sigma_2 / sigma_1 = 1e-7 keeps the local frame spanning its plane at the rank cutoff.

    Its frame operator F F* has eigenvalue ratio 1e-14, below that cutoff, so
    duals read from pinv(F F*) lose the direction; (F+)* keeps it.
    """
    dual, families = _scaled_canonical_locals(r3_system, r3_k)
    local = local_frame_system(dual, families)
    assert local.local_bounds[0] == pytest.approx((1e-14, 1.0), rel=1e-12)
    report = local_duality_equiv(r3_system, dual, local, r3_k)
    assert report.continuous_pass and report.discrete_pass and report.operators_match


def test_local_frames_take_one_svd_each_for_their_check_and_their_duals(
    record_linalg, r3_system, r3_k
):
    dual, families = _scaled_canonical_locals(r3_system, r3_k)
    calls = record_linalg()
    local = local_frame_system(dual, families)
    assert [(c.name, c.shape) for c in calls] == [("svd", (d, d)) for d in dual.dims()]
    calls.clear()
    mat = local.local_frames[0].matrix
    _canonical_local_duals(mat, DEFAULT_TOL)
    assert [(c.name, c.shape) for c in calls] == [("svd", mat.shape)]


def test_kframe_from_local_orthonormal_identity():
    w = make_system(3, [[list(E1), list(E2)], [list(E3)]])
    sol = x_w(w, np.eye(3))
    local = local_frame_system(w, [[E1, E2], [E3]])
    f, g, cert = kframe_from_local(w, local, sol)
    assert cert.passed
    np.testing.assert_allclose(f.matrix @ g.matrix.T, np.eye(3), atol=1e-12)


def test_kframe_from_local_plane_line_target(r3_system, r3_k):
    u = (E1 + E2) / np.sqrt(2)
    local = local_frame_system(r3_system, [[u, E3], [E3], [u]])
    f, g, cert = kframe_from_local(r3_system, local, x_w(r3_system, r3_k))
    assert cert.passed
    np.testing.assert_allclose(f.matrix @ g.matrix.T, r3_k, atol=1e-12)
    assert cert.details["frame_bounds"].passed


def test_kframe_from_local_random_system():
    rng = np.random.default_rng(23)
    w = random_fusion_system(rng, 6, [3, 2, 4])
    k = synthesis(w) @ rng.standard_normal((sum(w.dims()), 6))
    sol = x_w(w, k)
    families = []
    for sub, _ in w.members:
        coeff = rng.standard_normal((sub.dim, sub.dim + 1))
        families.append(list((sub.basis @ coeff).T))
    local = local_frame_system(w, families)
    f, g, cert = kframe_from_local(w, local, sol)
    assert cert.passed
    np.testing.assert_allclose(f.matrix @ g.matrix.T, k, atol=1e-9)
