import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import make_system, random_fusion_system, skewed
from kfusion import frames
from kfusion.frames import (
    BlockVector,
    FrameBounds,
    FusionSystem,
    KFrame,
    Subspace,
    analysis,
    frame_operator,
    is_exact,
    is_minimal,
    k_image_frame,
    map_subspace,
    range_projector,
    same_subspace,
    subspace_contains,
    subspace_from_columns,
    subspace_from_spanning,
    subspace_intersection,
    synthesis,
    transform_kdag,
    transform_q,
    transform_sinv,
    verify_k_frame,
    verify_k_fusion,
    weaken_to_q,
)
from kfusion.numerics import DEFAULT_TOL, AgreementError, max_rayleigh, pinv, spectral_norm

ABS_TOLERANCE = 1e-9
BOUND_TOLERANCE = 1e-8


def columns_match_up_to_sign(got, expected):
    assert got.shape == expected.shape
    for j in range(expected.shape[1]):
        g, e = got[:, j], expected[:, j]
        assert min(np.linalg.norm(g - e), np.linalg.norm(g + e)) < ABS_TOLERANCE


def test_subspace_from_spanning_coordinate_plane():
    sub = subspace_from_spanning([np.eye(4)[0], np.eye(4)[1]])
    np.testing.assert_allclose(sub.projector(), np.diag([1.0, 1.0, 0.0, 0.0]), atol=ABS_TOLERANCE)


def test_subspace_from_spanning_tilted_plane():
    sub = subspace_from_spanning([(1.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(sub.projector(), expected, atol=ABS_TOLERANCE)


def test_subspace_from_spanning_collinear_set():
    sub = subspace_from_spanning([(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)])
    assert sub.dim == 1


def test_subspace_from_spanning_zero_set_is_flagged():
    sub = subspace_from_spanning([(0.0, 0.0, 0.0)])
    assert sub.is_zero


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_subspace_rejects_a_column_of_norm_one_plus_5e_6():
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, [[1.0 + 5e-6], [0.0]])


@pytest.mark.parametrize("n, d", [(2, 1), (5, 3), (8, 8), (4, 0)])
def test_subspace_accepts_qr_bases_and_rounding_level_drift(n, d):
    rng = np.random.default_rng(n + d)
    q = np.linalg.qr(rng.standard_normal((n, d)))[0] if d else np.zeros((n, 0))
    assert Subspace(n, q).dim == d
    if d:
        q[:, 0] *= 1.0 + 1e-12
        assert Subspace(n, q).dim == d


def test_fusion_system_rejects_nonpositive_weight():
    sub = subspace_from_spanning([(1.0, 0.0)])
    with pytest.raises(ValueError):
        FusionSystem(2, ((sub, 0.0),))


@pytest.mark.parametrize("j", [-1, 3])
def test_fusion_system_drop_rejects_an_index_outside_its_members(r3_system, j):
    assert r3_system.dims() == [2, 1, 1]
    with pytest.raises(ValueError, match="index out of range"):
        r3_system.drop(j)


def test_block_vector_norm_splits_over_blocks():
    bv = BlockVector(((1.0, 2.0), (2.0,), ()))
    assert bv.norm_squared == 9.0
    rebuilt = BlockVector.from_stacked(bv.stacked(), [2, 1, 0])
    assert rebuilt.norm_squared == bv.norm_squared


def test_frame_bounds_reject_negative_values():
    with pytest.raises(ValueError):
        FrameBounds(lower=-0.1, upper=1.0)


def test_synthesis_single_full_member_is_identity():
    w = make_system(3, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    np.testing.assert_allclose(synthesis(w), np.eye(3), atol=ABS_TOLERANCE)


def test_synthesis_blocks(r3_system):
    root = 1.0 / np.sqrt(2.0)
    expected = np.array(
        [
            [root, 0.0, 0.0, root],
            [root, 0.0, 0.0, root],
            [0.0, 1.0, 1.0, 0.0],
        ]
    )
    columns_match_up_to_sign(synthesis(r3_system), expected)


def test_analysis_norm_formula(r3_system):
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, c = rng.standard_normal(3)
        got = analysis(r3_system, np.array([a, b, c])).norm_squared
        expected = (a + b) ** 2 + 2.0 * c**2
        assert got == pytest.approx(expected, rel=1e-8, abs=ABS_TOLERANCE)


def test_frame_operator_orthonormal_fusion_basis():
    w = make_system(3, [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]])
    np.testing.assert_allclose(frame_operator(w), np.eye(3), atol=ABS_TOLERANCE)


def test_frame_operator_block_literal(r3_system):
    expected = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    np.testing.assert_allclose(frame_operator(r3_system), expected, atol=ABS_TOLERANCE)


def test_frame_operator_perturbed_literal(r3_perturbed):
    expected = np.array([[1.5, 1.5, 0.0], [1.5, 1.5, 0.0], [0.0, 0.0, 2.0]])
    np.testing.assert_allclose(frame_operator(r3_perturbed), expected, atol=ABS_TOLERANCE)


def test_verify_plane_line_system(r4_system, r4_k):
    cert = verify_k_fusion(r4_system, r4_k)
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(0.5, abs=BOUND_TOLERANCE)
    assert cert.bounds.upper == pytest.approx(1.0, abs=BOUND_TOLERANCE)


def test_verify_overlapping_system(r3_system, r3_k):
    cert = verify_k_fusion(r3_system, r3_k)
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(1.0, abs=BOUND_TOLERANCE)
    assert cert.bounds.upper == pytest.approx(2.0, abs=BOUND_TOLERANCE)


def test_verify_parseval_case():
    w = make_system(3, [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]])
    cert = verify_k_fusion(w, np.eye(3))
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(1.0, abs=BOUND_TOLERANCE)
    assert cert.bounds.upper == pytest.approx(1.0, abs=BOUND_TOLERANCE)


def test_verify_rejects_dimension_mismatch(r3_system):
    with pytest.raises(ValueError):
        verify_k_fusion(r3_system, np.eye(4))


def test_verify_failure_yields_range_witness():
    w = make_system(3, [[(1, 0, 0), (0, 1, 0)]])
    cert = verify_k_fusion(w, np.eye(3))
    assert not cert.passed
    outside = cert.witness - range_projector(synthesis(w)) @ cert.witness
    assert np.linalg.norm(outside) > 1e-6


def test_a_k_that_leaves_the_span_fails_the_range_check_not_the_pencil():
    # every column of K is 1.5e-9 off the span of four coordinate lines in R^5: within
    # eq_abs * (1 + ||K||) one at a time, beyond it together
    w = make_system(5, [[tuple(np.eye(5)[i])] for i in range(4)])
    k = np.vstack([np.eye(4), np.full((1, 4), 1.5e-9)])
    cert = verify_k_fusion(w, k)
    assert not cert.passed
    assert cert.message.startswith("range obstruction")
    np.testing.assert_array_equal(cert.witness, k[:, 0])


def test_verify_lower_bound_two_ways_agree(r3_system, r3_k, r4_system, r4_k):
    for w, k in ((r3_system, r3_k), (r4_system, r4_k)):
        cert = verify_k_fusion(w, k)
        assert cert.details["lower_via_pencil"] == pytest.approx(
            cert.details["lower_via_pinv"], rel=1e-8
        )


def test_verify_bounds_hold_pointwise(r3_system, r3_k, r4_system, r4_k):
    rng = np.random.default_rng(5)
    for w, k in ((r3_system, r3_k), (r4_system, r4_k)):
        cert = verify_k_fusion(w, k)
        a, b = cert.bounds.lower, cert.bounds.upper
        for _ in range(100):
            f = rng.standard_normal(w.ambient_dim)
            middle = analysis(w, f).norm_squared
            assert a * np.linalg.norm(k.T @ f) ** 2 <= middle * (1.0 + 1e-8) + 1e-12
            assert middle <= b * np.linalg.norm(f) ** 2 * (1.0 + 1e-8) + 1e-12


def test_fusion_frame_lower_bound_via_inverse_frame_operator():
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = random_fusion_system(rng, 4, [2, 1, 2])
        s = frame_operator(w)
        cert = verify_k_fusion(w, np.eye(4))
        expected = spectral_norm(synthesis(w).T @ pinv(s)) ** -2
        assert cert.bounds.lower == pytest.approx(expected, rel=1e-8)


def test_is_minimal_disjoint_members(r4_system):
    assert is_minimal(r4_system)


def test_is_minimal_detects_nested_members(r3_system):
    assert not is_minimal(r3_system)


def test_is_minimal_repeated_line():
    w = make_system(2, [[(1, 0)], [(1, 0)]])
    assert not is_minimal(w)


def test_is_minimal_takes_one_svd_of_the_bases_side_by_side(record_linalg, r4_system):
    calls = record_linalg()
    assert is_minimal(r4_system)
    assert [(c.name, c.shape) for c in calls] == [("svd", (4, 3))]


def test_is_exact_plane_line(r4_system, r4_k):
    report = is_exact(r4_system, r4_k)
    assert not report.exact
    assert report.removable == (False, True)
    surviving = report.certificates[1].bounds
    assert surviving.lower == pytest.approx(0.5, abs=BOUND_TOLERANCE)
    assert surviving.upper == pytest.approx(1.0, abs=BOUND_TOLERANCE)


def test_is_exact_overlapping_system(r3_system, r3_k):
    report = is_exact(r3_system, r3_k)
    assert not report.exact
    assert report.removable == (True, True, True)
    expected_bounds = [(0.5, 1.0), (1.0, 2.0), (0.5, 2.0)]
    for cert, (low, high) in zip(report.certificates, expected_bounds):
        assert cert.bounds.lower == pytest.approx(low, abs=BOUND_TOLERANCE)
        assert cert.bounds.upper == pytest.approx(high, abs=BOUND_TOLERANCE)


def test_is_exact_single_member():
    w = make_system(2, [[(1, 0)]])
    k = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert is_exact(w, k).exact


def test_transform_kdag_identity_keeps_members():
    rng = np.random.default_rng(13)
    w = random_fusion_system(rng, 3, [2, 1, 2])
    image, cert = transform_kdag(w, np.eye(3))
    assert cert.passed
    for (got, _), (orig, _) in zip(image.members, w.members):
        assert same_subspace(got, orig)


def test_transform_kdag_line_preimage(r3_system, r3_k):
    image, cert = transform_kdag(r3_system, r3_k)
    assert cert.passed
    expected = subspace_from_spanning([(0.0, 1.0, 0.0)])
    assert same_subspace(image.members[1][0], expected)


def test_transform_kdag_random_instance_bounds_positive():
    rng = np.random.default_rng(17)
    w = random_fusion_system(rng, 6, [2, 3, 2])
    k = rng.standard_normal((6, 4))
    image, cert = transform_kdag(w, k)
    assert cert.passed
    assert cert.bounds.lower > 0.0


def test_transform_sinv_fixes_members(r3_system, r3_k):
    image, cert = transform_sinv(r3_system, r3_k)
    assert cert.passed
    for (got, _), (orig, _) in zip(image.members, r3_system.members):
        assert same_subspace(got, orig)


def test_transform_sinv_identity_case():
    rng = np.random.default_rng(21)
    w = random_fusion_system(rng, 4, [2, 2, 1])
    image, cert = transform_sinv(w, np.eye(4))
    assert cert.passed
    s_inv = pinv(frame_operator(w))
    for (got, _), (orig, _) in zip(image.members, w.members):
        assert same_subspace(got, map_subspace(s_inv, orig))


def test_transform_sinv_random_instance(r3_k):
    rng = np.random.default_rng(29)
    w = random_fusion_system(rng, 3, [2, 1])
    image, cert = transform_sinv(w, r3_k)
    assert cert.passed
    assert cert.bounds.lower > 0.0


def _extremes_on(members, basis):
    """Smallest and largest eigenvalue of B* S B, S the frame operator of ``members``."""
    s = sum(weight**2 * sub.basis @ sub.basis.T for sub, weight in members)
    vals = np.linalg.eigvalsh(basis.T @ s @ basis)
    return pytest.approx((vals[0], vals[-1]), rel=DEFAULT_TOL.eq_rel)


@pytest.mark.parametrize("entropy", range(8))
def test_relative_bounds_are_the_extreme_eigenvalues_on_their_subspace(entropy):
    """Each relative-bound certificate reads the extremes of B* S B, B the subspace's basis."""
    rng = np.random.default_rng(entropy)
    n = int(rng.integers(3, 8))
    rank = int(rng.integers(1, n + 1))
    k = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
    u, _, vt = np.linalg.svd(k)
    w = random_fusion_system(rng, n, list(rng.integers(1, n, size=n)))
    image, cert = transform_kdag(w, k)
    assert cert.passed and (cert.bounds.lower, cert.bounds.upper) == _extremes_on(
        image.members, vt[:rank].T
    )
    image, cert = transform_sinv(w, k)
    assert cert.passed and (cert.bounds.lower, cert.bounds.upper) == _extremes_on(
        image.members, u[:, :rank]
    )
    dims = rng.integers(1, rank + 1, size=rank + 1)
    spans = [(vt[:rank].T @ rng.standard_normal((rank, d))).T for d in dims]
    base = make_system(n, spans, list(rng.uniform(0.5, 2.0, dims.size)))
    _, cert = k_image_frame(base, k)
    given = cert.details["input_bounds"]
    assert (given.lower, given.upper) == _extremes_on(base.members, vt[:rank].T)


@pytest.mark.parametrize("transform", [transform_kdag, transform_sinv])
def test_relative_bounds_are_cross_checked(monkeypatch, transform, r3_system, r3_k):
    frames.frame_analysis(r3_system, r3_k)
    real = frames.max_rayleigh
    monkeypatch.setattr(frames, "max_rayleigh", lambda m, g, tol: skewed(real(m, g, tol)))
    with pytest.raises(AgreementError, match="optimal lower bound mismatch"):
        transform(r3_system, r3_k)


def test_a_member_in_the_kernel_of_the_pseudo_inverse_warns_as_a_zero_member():
    w = make_system(3, [[(1, 0, 0), (0, 1, 0)], [(0, 0, 1)]])
    with pytest.warns(UserWarning, match="zero-dimensional members"):
        image, cert = transform_kdag(w, np.diag([1.0, 1.0, 0.0]))
    assert image.dims() == [2, 0]
    assert cert.passed and (cert.bounds.lower, cert.bounds.upper) == pytest.approx((1.0, 1.0))


def test_transform_q_identity(r3_system, r3_k):
    image, cert = transform_q(r3_system, np.eye(3), r3_k)
    base = verify_k_fusion(r3_system, r3_k)
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(base.bounds.lower, rel=1e-8)
    assert cert.bounds.upper == pytest.approx(base.bounds.upper, rel=1e-8)


def test_transform_q_scaling(r3_system, r3_k):
    # members are fixed by 2*I, so only the pencil side scales: lower drops
    # by 4, upper stays
    image, cert = transform_q(r3_system, 2.0 * np.eye(3), r3_k)
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(0.25, abs=BOUND_TOLERANCE)
    assert cert.bounds.upper == pytest.approx(2.0, abs=BOUND_TOLERANCE)
    commuting = cert.details["k_fusion"]
    assert commuting.passed
    assert commuting.bounds.lower == pytest.approx(1.0, abs=BOUND_TOLERANCE)


def test_transform_q_orthogonal_preserves_bounds(r3_system, r3_k):
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    image, cert = transform_q(r3_system, q, r3_k)
    base = verify_k_fusion(r3_system, r3_k)
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(base.bounds.lower, rel=1e-8)
    assert cert.bounds.upper == pytest.approx(base.bounds.upper, rel=1e-8)


def test_transform_q_rejects_singular():
    w = make_system(2, [[(1, 0)]])
    with pytest.raises(ValueError):
        transform_q(w, np.zeros((2, 2)), np.eye(2))


def test_weaken_to_q_same_operator(r3_system, r3_k):
    cert = weaken_to_q(r3_system, r3_k, r3_k)
    base = verify_k_fusion(r3_system, r3_k)
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(base.bounds.lower, rel=1e-8)
    assert cert.details["lambda_squared"] == pytest.approx(1.0, rel=1e-8)


def test_weaken_to_q_projected_operator(r3_system, r3_k):
    q = range_projector(r3_k) @ r3_k
    cert = weaken_to_q(r3_system, r3_k, q)
    assert cert.passed
    assert cert.bounds.lower >= cert.details["guaranteed_lower"] * (1.0 - 1e-8)


def test_weaken_to_q_range_obstruction():
    w = make_system(3, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    k = np.diag([1.0, 1.0, 0.0])
    cert = weaken_to_q(w, k, np.eye(3))
    assert not cert.passed
    outside = cert.witness - range_projector(k) @ cert.witness
    assert np.linalg.norm(outside) > 1e-6


def test_a_range_obstruction_witness_is_not_a_view_of_q():
    w = make_system(3, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    q = np.eye(3)
    cert = weaken_to_q(w, np.diag([1.0, 1.0, 0.0]), q)
    assert not cert.passed
    cert.witness[:] = 7.0
    np.testing.assert_array_equal(q, np.eye(3))


def test_k_image_frame_unitary_preserves_bounds():
    rng = np.random.default_rng(37)
    w = random_fusion_system(rng, 4, [2, 2, 1])
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = verify_k_fusion(w, q)
    image, cert = k_image_frame(w, q)
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(base.bounds.lower, rel=1e-8)
    assert cert.bounds.upper == pytest.approx(base.bounds.upper, rel=1e-8)


def test_k_image_frame_maps_line(r3_k):
    w = make_system(3, [[(1, 0, 0)], [(0, 1, 0)]])
    image, cert = k_image_frame(w, r3_k)
    assert cert.passed
    assert same_subspace(image.members[0][0], subspace_from_spanning([(1.0, 1.0, 0.0)]))


def test_k_image_frame_random_rank_three():
    rng = np.random.default_rng(41)
    k = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
    row_basis = np.linalg.svd(k)[2][:3].T
    spans = [
        [row_basis[:, 0]],
        [row_basis[:, 1], row_basis[:, 2]],
        [row_basis[:, 0] + row_basis[:, 1]],
    ]
    w = make_system(5, spans)
    image, cert = k_image_frame(w, k)
    assert cert.passed
    assert cert.bounds.lower > 0.0


def test_k_image_frame_intersect_first_mode():
    rng = np.random.default_rng(43)
    k = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
    row_basis = np.linalg.svd(k)[2][:3].T
    spans = [
        [row_basis[:, 0], rng.standard_normal(5)],
        [row_basis[:, 1], rng.standard_normal(5)],
        [row_basis[:, 2], rng.standard_normal(5)],
    ]
    w = make_system(5, spans)
    image, cert = k_image_frame(w, k, intersect_first=True)
    assert cert.passed
    assert cert.bounds.lower > 0.0


def test_k_image_frame_rejects_member_outside_row_space(r3_k):
    w = make_system(3, [[(0, 0, 1)]])
    with pytest.raises(ValueError):
        k_image_frame(w, r3_k)


def test_verify_k_frame_orthonormal_basis():
    f = KFrame(3, tuple(np.eye(3)))
    cert = verify_k_frame(f, np.eye(3))
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(1.0, abs=BOUND_TOLERANCE)
    assert cert.bounds.upper == pytest.approx(1.0, abs=BOUND_TOLERANCE)


def test_verify_k_frame_diagonal_projection_failure():
    f = KFrame(2, (np.array([1.0, 0.0]),))
    k = np.full((2, 2), 0.5)
    cert = verify_k_frame(f, k)
    assert not cert.passed
    assert cert.witness is not None
    assert np.linalg.norm(k.T @ cert.witness) > 1e-6


def test_a_failing_k_frame_names_the_column_of_k_farthest_from_its_span():
    k = np.array([[0.5, 0.0], [0.5, 1.0]])
    cert = verify_k_frame(KFrame(2, (np.array([1.0, 0.0]),)), k)
    assert not cert.passed
    assert cert.message == "range obstruction: column 1 of K leaves the span of the system"
    np.testing.assert_array_equal(cert.witness, k[:, 1])


def test_a_k_frame_pencil_is_cross_checked_by_the_svd_route(monkeypatch):
    real = frames.max_rayleigh
    monkeypatch.setattr(frames, "max_rayleigh", lambda m, g, tol: skewed(real(m, g, tol)))
    with pytest.raises(AgreementError):
        verify_k_frame(KFrame(3, tuple(np.eye(3))), np.eye(3))


def test_verify_k_frame_projected_basis_matches_fusion_bounds(r3_system, r3_k):
    vectors = []
    for sub, weight in r3_system.members:
        projector = sub.projector()
        for j in range(3):
            vectors.append(weight * projector[:, j])
    cert = verify_k_frame(KFrame(3, tuple(vectors)), r3_k)
    base = verify_k_fusion(r3_system, r3_k)
    assert cert.passed
    assert cert.bounds.lower == pytest.approx(base.bounds.lower, rel=1e-8)
    assert cert.bounds.upper == pytest.approx(base.bounds.upper, rel=1e-8)


def test_a_tall_family_keeps_a_direction_just_above_the_pencil_cutoff():
    """Vectors q_0 and sqrt(5e-10) q_1 with K = q_1: the pencil is 2e9 and the lower bound 5e-10.

    ``eigh`` of the 4 x 4 frame operator returns q_1 only to about
    eps / 5e-10, so K seemed to leave the kept span and the family had "no
    positive lower bound". The 4 x 2 family matrix is taller than wide; its
    QR factor keeps both directions, so the kept span is range(Q) itself.
    """
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))[0]
    family = q[:, :2] * np.array([1.0, np.sqrt(5e-10)])
    k = q[:, 1:2]
    cert = verify_k_frame(KFrame(4, tuple(family.T)), k)
    assert cert.passed, cert.message
    assert cert.bounds.lower == pytest.approx(5e-10, rel=DEFAULT_TOL.eq_rel)
    assert cert.bounds.upper == pytest.approx(1.0, rel=DEFAULT_TOL.eq_rel)
    assert max_rayleigh(k, family).value == pytest.approx(2e9, rel=DEFAULT_TOL.eq_rel)


def _rotated(m, rng):
    """The same span as the orthonormal columns of m, under another orthonormal basis."""
    return m @ np.linalg.qr(rng.standard_normal((m.shape[1], m.shape[1])))[0]


def _planted_pair(rng, n, kind):
    """Two subspaces of R^n of the given kind, and the dimension of their intersection."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d, e = sorted(int(x) for x in rng.integers(0, n + 1, 2))
    if kind == "zero":
        return subspace_from_columns(q[:, :0]), subspace_from_columns(q[:, :e]), 0
    if kind == "full":
        return subspace_from_columns(q), subspace_from_columns(_rotated(q[:, :e], rng)), e
    if kind == "equal":
        return subspace_from_columns(q[:, :e]), subspace_from_columns(_rotated(q[:, :e], rng)), e
    if kind == "nested":
        return subspace_from_columns(q[:, :d]), subspace_from_columns(_rotated(q[:, :e], rng)), d
    if kind == "random":
        a, b = rng.standard_normal((n, d)), rng.standard_normal((n, e))
        return subspace_from_columns(a), subspace_from_columns(b), max(d + e - n, 0)
    # planted: a common part of dimension c beside parts of a and b that meet only at 0
    c = int(rng.integers(0, n + 1))
    p = int(rng.integers(0, n - c + 1))
    r = int(rng.integers(0, n - c - p + 1))
    a = q[:, : c + p] @ rng.standard_normal((c + p, c + p))
    b = np.hstack([q[:, :c], q[:, c + p : c + p + r]]) @ rng.standard_normal((c + r, c + r))
    return subspace_from_columns(a), subspace_from_columns(b), c


@st.composite
def planted_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["zero", "full", "equal", "nested", "random", "planted"]))
    return _planted_pair(np.random.default_rng(draw(st.integers(0, 10**6))), n, kind)


PLANES = (
    subspace_from_spanning([(1, 0, 0), (0, 1, 0)]),
    subspace_from_spanning([(0, 1, 0), (0, 0, 1)]),
    1,
)


@seed(5)
@settings(deadline=None, max_examples=300)
@given(planted_pairs())
@example(PLANES)
def test_subspace_intersection_finds_the_planted_common_part(pair):
    """The result has the known dimension and lies in both operands, so it is their intersection."""
    a, b, common = pair
    for inter in (subspace_intersection(a, b), subspace_intersection(b, a)):
        assert inter.dim == common
        assert subspace_contains(a, inter) and subspace_contains(b, inter)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_two_bases_of_the_whole_space_intersect_in_the_whole_space(n):
    rng = np.random.default_rng(n)
    a, b = (Subspace(n, np.linalg.qr(rng.standard_normal((n, n)))[0]) for _ in range(2))
    assert subspace_intersection(a, b).dim == n


def test_subspace_intersection_is_all_of_a_exactly_when_b_contains_a():
    """Each sine of A against B (1.5e-9) passes the zero rule alone; their root-sum-square does not."""
    n, tilt = 7, 1.5e-9
    e = np.eye(n)
    b = Subspace(n, e[:, :2])
    a = subspace_from_spanning([e[:, 0] + tilt * e[:, 2], e[:, 1] + tilt * e[:, 3]])
    assert not subspace_contains(b, a)
    inter = subspace_intersection(a, b)
    assert inter.dim == 1
    assert subspace_contains(a, inter) and subspace_contains(b, inter)


def test_k_image_frame_intersect_first_keeps_a_member_spanning_the_space():
    """A member equal to R^3 meets the row space of an invertible K in all of R^3."""
    rng = np.random.default_rng(1)
    w = random_fusion_system(rng, 3, [3, 2])
    k = rng.standard_normal((3, 3))
    plain, plain_cert = k_image_frame(w, k)
    first, first_cert = k_image_frame(w, k, intersect_first=True)
    assert plain_cert.passed and first_cert.passed
    for (got, _), (want, _) in zip(first.members, plain.members):
        assert same_subspace(got, want)


@pytest.mark.parametrize("predicate", [same_subspace, subspace_contains, subspace_intersection])
@pytest.mark.parametrize("dims", [(2, 2), (1, 3), (3, 1)])
def test_subspace_predicates_reject_different_ambient_dimensions(predicate, dims):
    a = Subspace(3, np.eye(3)[:, : dims[0]])
    b = Subspace(4, np.eye(4)[:, : dims[1]])
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="^ambient dimensions must match$"):
            predicate(*pair)


def test_subspace_predicates_decompose_nothing_n_by_n(record_linalg):
    n = 6
    rng = np.random.default_rng(3)
    whole = Subspace(n, np.linalg.qr(rng.standard_normal((n, n)))[0])
    subs = [whole] + [subspace_from_columns(rng.standard_normal((n, d))) for d in (5, 2)]
    subs.append(subspace_from_columns(np.hstack([subs[2].basis, rng.standard_normal((n, 3))])))
    calls = record_linalg(("svd", "eigh", "eigvalsh", "qr"))
    for a in subs + [Subspace(n, np.eye(n))]:
        for b in subs:
            for predicate in (same_subspace, subspace_contains, subspace_intersection):
                predicate(a, b)
    assert calls and all(min(call.shape) < n for call in calls), [c.shape for c in calls]


@seed(1)
@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_projection_commutes_through_image_closure(entropy, dim):
    # analysis against a subspace only sees the part of f inside the image
    # closure: pi_V T^T equals pi_V T^T pi_{span(TV)}
    rng = np.random.default_rng(entropy)
    t = rng.standard_normal((dim, dim))
    v = subspace_from_spanning(rng.standard_normal((rng.integers(1, dim + 1), dim)))
    p_v = v.projector()
    p_tv = range_projector(t @ v.basis)
    gap = spectral_norm(p_v @ t.T - p_v @ t.T @ p_tv)
    assert gap <= 1e-9 * (1.0 + spectral_norm(t))


@seed(1)
@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_invertible_image_bessel_bound(entropy, dim):
    rng = np.random.default_rng(entropy)
    w = random_fusion_system(rng, dim, [max(1, dim // 2), 1])
    t = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
    image = FusionSystem(
        dim, tuple((map_subspace(t, sub), weight) for sub, weight in w.members)
    )
    bessel = spectral_norm(frame_operator(image))
    budget = (
        spectral_norm(np.linalg.inv(t)) ** 2
        * spectral_norm(t) ** 2
        * spectral_norm(frame_operator(w))
    )
    assert bessel <= budget * (1.0 + 1e-8)
