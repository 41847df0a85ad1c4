import re

import numpy as np
import pytest

from conftest import make_system, random_fusion_system
from kfusion import factorization
from kfusion.factorization import DouglasSolution, douglas_solve, range_included, x_w
from kfusion.frames import frame_operator, range_projector, synthesis, verify_k_fusion
from kfusion.numerics import DEFAULT_TOL, AgreementError, Svd, pinv, spectral_norm

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
    real = factorization.svd

    def skewed(m):
        f = real(m)
        if m.shape != l2.shape:
            return f
        return Svd(u=f.u, singular_values=1.01 * f.singular_values, v=f.v)

    monkeypatch.setattr(factorization, "svd", skewed)
    with pytest.raises(AgreementError) as err:
        douglas_solve(l1, l2)
    found = re.search(r"\|\|L2 x - L1\|\| = (\S+) exceeds tolerance (\S+)$", str(err.value))
    residual, allowed = map(float, found.groups())
    assert residual > allowed
    assert allowed == pytest.approx(DEFAULT_TOL.eq_rel * (1.0 + spectral_norm(l1)), rel=1e-12)


def test_norm_disagreement_names_both_values_the_gap_and_the_tolerance(monkeypatch):
    l1, l2 = _composed_pair()
    real = factorization.max_rayleigh
    monkeypatch.setattr(factorization, "max_rayleigh", lambda a, b, tol: 1.01 * real(a, b, tol))
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
