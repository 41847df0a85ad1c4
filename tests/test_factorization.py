import re

import numpy as np
import pytest

from conftest import bisected_synthesis_instance, make_system, random_fusion_system, skewed
from kfusion import factorization, frames, numerics
from kfusion.duality import qk_dual_from_x
from kfusion.factorization import DouglasSolution, douglas_solve, range_included, x_w
from kfusion.frames import (
    FusionSystem,
    frame_operator,
    range_projector,
    subspace_from_spanning,
    synthesis,
    verify_k_fusion,
)
from kfusion.numerics import (
    DEFAULT_TOL,
    AgreementError,
    Svd,
    ToleranceProfile,
    pinv,
    spectral_norm,
)
from kfusion.resolution import resolution_from_x

ABS_TOLERANCE = 1e-9
REL_TOLERANCE = 1e-8


def test_range_included_reflexive():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    included, witness = range_included(m, m)
    assert included
    assert witness is None


def test_range_included_operator_through_synthesis(r3_system, r3_k):
    included, _ = range_included(r3_k, synthesis(r3_system))
    assert included


def test_range_included_failure_witness():
    rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])
    included, witness = range_included(np.eye(2), rank_one)
    assert not included
    outside = witness - range_projector(rank_one) @ witness
    assert np.linalg.norm(outside) > 1e-6


def test_range_included_and_douglas_solve_share_one_rule():
    # the column gap 1.5e-9 sits inside eq_abs * (1 + ||L1||) = 2e-9, 3e-9 outside it
    l2 = np.array([[1.0], [0.0]])
    inside = np.array([[1.0], [1.5e-9]])
    included, witness = range_included(inside, l2)
    assert included and witness is None
    assert douglas_solve(inside, l2).norm_sq == pytest.approx(1.0, rel=REL_TOLERANCE)
    outside = np.array([[1.0], [3e-9]])
    included, witness = range_included(outside, l2)
    assert not included
    np.testing.assert_array_equal(witness, outside[:, 0])
    with pytest.raises(ValueError, match="not contained"):
        douglas_solve(outside, l2)


def _tilted_columns(scale, delta, count):
    """``count`` copies of the column scale * (1, delta), against L2 = e_1 in R^2."""
    return scale * np.array([[1.0] * count, [delta] * count]), np.array([[1.0], [0.0]])


@pytest.mark.parametrize(
    "scale, delta, count",
    [(1.0, 2.9e-9, 4), (1.0, 1.5e-8, 200)],
    ids=["four-columns", "many-columns"],
)
def test_range_inclusion_is_decided_on_the_whole_matrix(scale, delta, count):
    # each column sits inside eq_abs * (1 + ||L1||), the Frobenius norm of the off-range part not
    l1, l2 = _tilted_columns(scale, delta, count)
    included, witness = range_included(l1, l2)
    assert not included
    np.testing.assert_array_equal(witness, l1[:, 0])
    with pytest.raises(ValueError, match="not contained"):
        douglas_solve(l1, l2)


def test_an_included_range_gives_a_bounded_pencil():
    # the off-range part passes the containment rule, so the pencil of L1 L1* is bounded
    l1, l2 = _tilted_columns(2.0, 1.2e-9, 4)
    assert range_included(l1, l2)[0]
    sol = douglas_solve(l1, l2)
    assert sol.norm_sq == pytest.approx(16.0, rel=REL_TOLERANCE)
    assert sol.alpha_inf == pytest.approx(16.0, rel=REL_TOLERANCE)


def test_x_w_solves_the_synthesis_equation_it_is_checked_against():
    # K leaves the span of the four rotated lines by just under the containment threshold
    w, k, _ = bisected_synthesis_instance()
    x = x_w(w, k)
    assert x.residual > ABS_TOLERANCE
    qk_dual_from_x(w, k, x)
    resolution_from_x(w, k, x)


@pytest.mark.parametrize("cols", [4, 5])
def test_pairs_the_range_check_accepts_just_inside_its_edge_give_a_bounded_pencil(cols):
    # douglas_solve and weaken_to_q read pencil_ratio, as x_w does: containment is the
    # range check's alone, and the pencil's own step against its eigenvectors, at its
    # own scale, would call many of these pairs unbounded
    lines = FusionSystem(5, tuple((subspace_from_spanning([e]), 1.0) for e in np.eye(5)))
    for seed in range(40):
        w, k, _ = bisected_synthesis_instance(cols, seed)
        t = synthesis(w)
        assert range_included(k, t)[0]
        alpha = x_w(w, k).alpha_inf
        assert douglas_solve(k, t).alpha_inf == pytest.approx(alpha, rel=1e-12)
        lam_sq = frames.weaken_to_q(lines, t, k).details["lambda_squared"]
        assert lam_sq == pytest.approx(alpha, rel=1e-12)


def test_x_w_solution_is_read_only_and_not_checked_again(monkeypatch, r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    with pytest.raises(ValueError):
        sol.x[0, 0] = 1.0
    with pytest.raises(ValueError):
        sol.k[0, 0] = 1.0
    checked = []
    real = factorization._residual
    monkeypatch.setattr(
        factorization, "_residual", lambda *args: checked.append(args) or real(*args)
    )
    assert factorization.solution_matrix(r3_system, r3_k, sol, DEFAULT_TOL) is sol.x
    qk_dual_from_x(r3_system, r3_k, sol)
    resolution_from_x(r3_system, r3_k, sol)
    assert checked == []


def test_x_w_reads_the_norm_its_verification_took(record_linalg):
    """After ``verify_k_fusion``, x_w takes no second norm of Sigma^-1 U* K."""
    w = random_fusion_system(np.random.default_rng(5), 6, [2, 2, 3, 1])
    k = np.random.default_rng(6).standard_normal((6, 4))
    assert verify_k_fusion(w, k).passed
    coeff = frames.frame_analysis(w, k).pinv_matrix
    calls = record_linalg(("spectral_norm",), kernel=numerics)
    sol = x_w(w, k)
    assert calls and not [c for c in calls if np.array_equal(c.args[0], coeff)]
    assert sol.norm_sq == frames.frame_analysis(w, k).pinv_norm ** 2


def test_solutions_x_w_did_not_check_for_this_question_are_checked(r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    solution_matrix = factorization.solution_matrix
    with pytest.raises(ValueError, match="does not solve"):
        solution_matrix(r3_system, 2.0 * r3_k, sol, DEFAULT_TOL)
    # an equal system or another profile passes the check itself
    copy = FusionSystem(3, r3_system.members)
    np.testing.assert_array_equal(solution_matrix(copy, r3_k, sol, DEFAULT_TOL), sol.x)
    loose = ToleranceProfile(eq_abs=1e-6)
    np.testing.assert_array_equal(solution_matrix(r3_system, r3_k, sol, loose), sol.x)
    fields = {name: getattr(sol, name) for name in DouglasSolution.__dataclass_fields__}
    bad = DouglasSolution(**{**fields, "x": 1.001 * sol.x})
    with pytest.raises(ValueError, match="does not solve"):
        solution_matrix(r3_system, r3_k, bad, DEFAULT_TOL)


def test_douglas_solve_identity_case():
    m = np.array([[2.0, 1.0], [0.0, 3.0]])
    sol = douglas_solve(m, m)
    np.testing.assert_allclose(sol.x, np.eye(2), atol=ABS_TOLERANCE)
    assert sol.norm_sq == pytest.approx(1.0, rel=REL_TOLERANCE)
    assert sol.nullspace_match and sol.range_containment


def test_douglas_solve_overlapping_system(r3_system, r3_k):
    sol = douglas_solve(r3_k, synthesis(r3_system))
    assert sol.norm_sq == pytest.approx(1.0, abs=1e-8)
    assert sol.alpha_inf == pytest.approx(1.0, abs=1e-8)
    assert sol.nullspace_match and sol.range_containment
    # the kernel is the line the operator annihilates
    assert np.linalg.norm(sol.x @ np.array([0.0, 0.0, 1.0])) < ABS_TOLERANCE


def test_douglas_solve_random_composed_instance():
    rng = np.random.default_rng(47)
    l2 = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 4))
    l1 = l2 @ rng.standard_normal((4, 5))
    sol = douglas_solve(l1, l2)
    assert sol.residual <= REL_TOLERANCE * (1.0 + spectral_norm(l1))
    assert sol.norm_sq == pytest.approx(sol.alpha_inf, rel=REL_TOLERANCE)
    assert sol.nullspace_match and sol.range_containment


def _composed_pair():
    rng = np.random.default_rng(47)
    l2 = rng.standard_normal((6, 9))
    return l2 @ rng.standard_normal((9, 4)), l2


def test_residual_disagreement_names_the_residual_and_the_tolerance(monkeypatch):
    l1, l2 = _composed_pair()
    real = frames.svd

    def skewed(m):
        f = real(m)
        if m.shape != l2.shape:
            return f
        return Svd(u=f.u, singular_values=1.01 * f.singular_values, v=f.v)

    monkeypatch.setattr(frames, "svd", skewed)
    with pytest.raises(AgreementError) as err:
        douglas_solve(l1, l2)
    found = re.search(r"\|\|L2 x - L1\|\| = (\S+) exceeds tolerance (\S+)$", str(err.value))
    residual, allowed = map(float, found.groups())
    assert residual > allowed
    assert allowed == pytest.approx(DEFAULT_TOL.eq_rel * max(spectral_norm(l1), 1.0), rel=1e-12)


def test_norm_disagreement_names_both_values_the_gap_and_the_tolerance(monkeypatch):
    l1, l2 = _composed_pair()
    real = frames.max_rayleigh
    monkeypatch.setattr(frames, "max_rayleigh", lambda a, g, tol: skewed(real(a, g, tol)))
    with pytest.raises(AgreementError) as err:
        douglas_solve(l1, l2)
    found = re.search(
        r"norm-squared (\S+) and infimum constant (\S+) disagree:"
        r" gap (\S+) exceeds tolerance (\S+)$",
        str(err.value),
    )
    norm_sq, alpha, gap, allowed = map(float, found.groups())
    assert alpha == pytest.approx(1.01 * norm_sq, rel=1e-12)
    assert gap == abs(norm_sq - alpha) > allowed == DEFAULT_TOL.eq_rel * max(norm_sq, alpha, 1.0)


def test_douglas_solve_rejects_range_obstruction():
    rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError):
        douglas_solve(np.eye(2), rank_one)


def test_douglas_solution_is_minimal_among_alternatives():
    rng = np.random.default_rng(53)
    l2 = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    l1 = l2 @ rng.standard_normal((4, 3))
    sol = douglas_solve(l1, l2)
    slack = np.eye(4) - pinv(l2) @ l2
    for _ in range(20):
        alternative = sol.x + slack @ rng.standard_normal((4, 3))
        assert spectral_norm(alternative) >= np.sqrt(sol.norm_sq) - ABS_TOLERANCE


def test_douglas_solve_through_the_synthesis_matrix_is_x_w(r3_system, r3_k):
    rng = np.random.default_rng(71)
    w = random_fusion_system(rng, 5, [2, 2, 2])
    k = range_projector(synthesis(w)) @ rng.standard_normal((5, 5))
    for w, k in ((r3_system, r3_k), (w, k)):
        np.testing.assert_array_equal(douglas_solve(k, synthesis(w)).x, x_w(w, k).x)


def test_x_w_blocks_match_closed_form(r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    rng = np.random.default_rng(59)
    for _ in range(25):
        a, b, c = rng.standard_normal(3)
        parts = sol.components(np.array([a, b, c]))
        np.testing.assert_allclose(parts[0], [a / 2, a / 2, b / 2], atol=1e-9)
        np.testing.assert_allclose(parts[1], [0.0, 0.0, b / 2], atol=1e-9)
        np.testing.assert_allclose(parts[2], [a / 2, a / 2, 0.0], atol=1e-9)


def test_x_w_annihilates_kernel_of_k(r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    assert sol.blocks(np.array([0.0, 0.0, 1.0])).norm() < ABS_TOLERANCE


def test_x_w_identity_matches_inverse_frame_operator_route():
    rng = np.random.default_rng(61)
    w = random_fusion_system(rng, 4, [2, 2, 1])
    sol = x_w(w, np.eye(4))
    expected = synthesis(w).T @ pinv(frame_operator(w))
    np.testing.assert_allclose(sol.x, expected, atol=REL_TOLERANCE)


def test_x_w_component_matrices_assemble_action(r3_system, r3_k):
    sol = x_w(r3_system, r3_k)
    mats = sol.component_matrices()
    f = np.array([1.0, -2.0, 3.0])
    for mat, part in zip(mats, sol.components(f)):
        np.testing.assert_allclose(mat @ f, part, atol=ABS_TOLERANCE)


def test_x_w_norm_links_to_optimal_lower_bound():
    rng = np.random.default_rng(67)
    for _ in range(10):
        w = random_fusion_system(rng, 5, [2, 2, 2])
        raw = rng.standard_normal((5, 5))
        k = range_projector(synthesis(w)) @ raw
        cert = verify_k_fusion(w, k)
        assert cert.passed
        sol = x_w(w, k)
        assert cert.bounds.lower == pytest.approx(1.0 / sol.norm_sq, rel=REL_TOLERANCE)


def test_x_w_requires_frame_condition():
    w = make_system(3, [[(1, 0, 0)]])
    with pytest.raises(ValueError):
        x_w(w, np.eye(3))
