import dataclasses
import re

import numpy as np
import pytest

from kfusion import perturbation
from kfusion.duality import canonical_k_dual
from kfusion.frames import FusionSystem, Subspace
from kfusion.numerics import DEFAULT_TOL, AgreementError, spectral_norm
from kfusion.perturbation import (
    analysis_epsilon,
    approximate_dual_norm,
    certify_perturbation,
    epsilon_threshold,
    perturbed_bounds,
)

from conftest import make_system

E1, E2, E3 = np.eye(3)
U = (E1 + E2) / np.sqrt(2.0)


def rotated_system(angle):
    # lean the middle line of the plane-line-line system toward the plane
    # diagonal, staying inside range(K)
    line = np.cos(angle) * E3 + np.sin(angle) * U
    return make_system(3, [[list(E1 + E2), list(E3)], [list(line)], [list(E1 + E2)]])


# ------------------------------------------------------------ analysis epsilon


def test_analysis_epsilon_vanishes_on_equal_systems(r3_system, r3_k):
    assert analysis_epsilon(r3_system, r3_system, r3_k) == 0.0


def test_analysis_epsilon_merged_member_value(r3_system, r3_perturbed, r3_k):
    eps = analysis_epsilon(r3_system, r3_perturbed, r3_k)
    np.testing.assert_allclose(eps, 1.0 / np.sqrt(2.0), atol=1e-12)


def test_analysis_epsilon_infinite_off_adjoint_range(r3_system, r3_k):
    z = make_system(3, [[list(E1 + E2), list(E3)], [list(E1 - E2)], [list(E1 + E2)]])
    assert analysis_epsilon(r3_system, z, r3_k) == np.inf


def test_analysis_epsilon_layout_mismatch(r3_system, r3_k):
    z = make_system(3, [[list(E3)]])
    with pytest.raises(ValueError):
        analysis_epsilon(r3_system, z, r3_k)


# ------------------------------------------------------------ predicted bounds


def test_perturbed_bounds_zero_epsilon_recovers_base(r3_system, r3_k):
    predicted, cert = perturbed_bounds(r3_system, r3_system, r3_k, 0.0)
    np.testing.assert_allclose([predicted.lower, predicted.upper], [1.0, 2.0], atol=1e-10)
    assert cert.passed


def test_perturbed_bounds_merged_member(r3_system, r3_perturbed, r3_k):
    predicted, cert = perturbed_bounds(r3_system, r3_perturbed, r3_k, 0.5)
    np.testing.assert_allclose(predicted.lower, 0.25, atol=1e-12)
    np.testing.assert_allclose(predicted.upper, 4.5, atol=1e-12)
    np.testing.assert_allclose(
        [cert.bounds.lower, cert.bounds.upper], [1.5, 3.0], atol=1e-10
    )
    assert cert.passed


def test_perturbed_bounds_epsilon_cap(r3_system, r3_perturbed, r3_k):
    with pytest.raises(ValueError):
        perturbed_bounds(r3_system, r3_perturbed, r3_k, 1.0)


def test_perturbed_bounds_tight_epsilon_dominates(r3_system, r3_k):
    z = rotated_system(1e-3)
    eps = analysis_epsilon(r3_system, z, r3_k)
    predicted, cert = perturbed_bounds(r3_system, z, r3_k, eps)
    assert cert.passed
    assert cert.details["hypothesis_holds"]
    assert cert.bounds.lower >= predicted.lower - 1e-9


def test_a_hypothesis_granted_by_its_allowance_widens_the_window_alike():
    # eps* = 8e-9 exceeds epsilon = 0 by less than the cross-check allowance 1e-8,
    # and the verified lower bound (1 - 8e-9)^2 sits below the window [1, 1] by more
    line = Subspace(1, np.eye(1))
    w = FusionSystem(1, ((line, 1.0),))
    z = FusionSystem(1, ((line, 1.0 - 8e-9),))
    predicted, cert = perturbed_bounds(w, z, np.eye(1), 0.0)
    assert [predicted.lower, predicted.upper] == [1.0, 1.0]
    assert cert.details["analysis_epsilon"] == pytest.approx(8e-9)
    assert cert.details["hypothesis_holds"]
    assert cert.passed


# ---------------------------------------------------------- epsilon threshold


def test_epsilon_threshold_merged_member(r3_system, r3_perturbed, r3_k):
    report = epsilon_threshold(r3_system, r3_perturbed, r3_k)
    np.testing.assert_allclose(report.deviation, np.sqrt(2.0) / 6.0, atol=1e-12)
    np.testing.assert_allclose(report.dual_norm, 0.5, atol=1e-12)
    np.testing.assert_allclose(report.second_term, 7.0 / 9.0, atol=1e-12)
    np.testing.assert_allclose(report.threshold, 7.0 / 9.0, atol=1e-12)
    assert not report.vacuous


def test_epsilon_threshold_identical_pair(r3_system, r3_k):
    report = epsilon_threshold(r3_system, r3_system, r3_k)
    assert report.deviation <= 1e-12
    np.testing.assert_allclose(report.dual_norm, 1.0 / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(report.threshold, 0.5, atol=1e-12)


def test_epsilon_threshold_vacuous_for_rescaled_weights(r3_system, r3_k):
    spans = [[list(E1 + E2), list(E3)], [list(E3)], [list(E1 + E2)]]
    heavy = make_system(3, spans, weights=[5.0, 5.0, 5.0])
    report = epsilon_threshold(r3_system, heavy, r3_k)
    assert report.vacuous
    assert report.second_term <= 0.0


# ------------------------------------------------------- approximate K-duals


def test_approximate_dual_exact_for_canonical(r3_perturbed, r3_k):
    dual, _, _ = canonical_k_dual(r3_perturbed, r3_k)
    cert = approximate_dual_norm(r3_perturbed, dual, r3_k)
    assert cert.passed
    assert cert.residual <= 1e-10


def test_approximate_dual_survives_member_merge(r3_perturbed, r3_dual, r3_k):
    cert = approximate_dual_norm(r3_perturbed, r3_dual, r3_k)
    assert cert.passed
    np.testing.assert_allclose(cert.residual, np.sqrt(2.0) / 3.0, atol=1e-12)


def test_approximate_dual_zero_family_fails(r3_perturbed, r3_k):
    zero = Subspace(3, np.zeros((3, 0)))
    v = FusionSystem(3, tuple((zero, 1.0) for _ in range(3)))
    cert = approximate_dual_norm(r3_perturbed, v, r3_k)
    assert not cert.passed
    np.testing.assert_allclose(cert.residual, spectral_norm(r3_k), atol=1e-12)


def test_duals_stay_approximate_below_threshold(r3_system, r3_k):
    dual, _, _ = canonical_k_dual(r3_system, r3_k)
    premise_hits = 0
    for angle in np.linspace(1e-3, 0.3, 20):
        z = rotated_system(float(angle))
        eps = analysis_epsilon(r3_system, z, r3_k)
        report = epsilon_threshold(r3_system, z, r3_k)
        if eps < report.threshold:
            premise_hits += 1
            cert = approximate_dual_norm(z, dual, r3_k)
            assert cert.residual < 1.0
    assert premise_hits >= 5


# ---------------------------------------------------- perturbation certificates


def test_certify_identity_perturbation(r3_system, r3_k):
    report = certify_perturbation(r3_system, r3_system, r3_k, 0.1, 0.1, 0.01)
    assert report.certified
    assert report.decided_by == "certificate"
    assert report.applicable
    assert report.predicted_bounds.lower <= report.actual_bounds.lower + 1e-12
    assert report.falsified_witness is None


def test_certify_tiny_rotation(r3_system, r3_k):
    z = rotated_system(1e-3)
    report = certify_perturbation(r3_system, z, r3_k, 0.1, 0.1, 0.01)
    assert report.certified
    assert report.decided_by == "certificate"
    assert report.applicable
    assert report.predicted_bounds.lower <= report.actual_bounds.lower + 1e-12
    assert report.actual_bounds.upper <= report.predicted_bounds.upper + 1e-12


def test_certify_orthogonal_swap_is_falsified(r3_system, r3_k):
    z = make_system(3, [[list(E1 + E2), list(E3)], [list(E1 - E2)], [list(E1 + E2)]])
    report = certify_perturbation(r3_system, z, r3_k, 0.5, 0.5, 0.01)
    assert not report.certified
    assert report.decided_by == "falsifier"
    f = report.falsified_witness
    assert f is not None
    delta = np.diag([0.0, 0.0, 1.0]) - 0.5 * np.array(
        [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    )
    lhs = np.linalg.norm(delta @ f)
    rhs = (
        0.5 * np.linalg.norm(np.diag([0.0, 0.0, 1.0]) @ f)
        + 0.5 * np.linalg.norm(0.5 * np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]]) @ f)
        + 0.01 * np.linalg.norm(r3_k.T @ f)
    )
    assert lhs > rhs


def test_certify_rejects_bad_parameters(r3_system, r3_k):
    with pytest.raises(ValueError):
        certify_perturbation(r3_system, r3_system, r3_k, 1.2, 0.1, 0.01)
    with pytest.raises(ValueError):
        certify_perturbation(r3_system, r3_system, r3_k, 0.1, 0.1, 0.0)


def test_certify_rejects_a_nan_epsilon_before_any_analysis(r3_system, r3_k):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        certify_perturbation(r3_system, r3_system, r3_k, 0.5, 0.5, np.nan)


WINDOW_MESSAGE = re.compile(
    r"verified bounds (none|\[(\S+), (\S+)\]), predicted window \[(\S+), (\S+)\]"
    r"(?:, allowed gaps (\S+) below and (\S+) above)?$"
)


def _skew_verification(monkeypatch, z, skew):
    """Make verify_k_fusion report ``skew(certificate)`` for the perturbed system only."""
    real = perturbation.verify_k_fusion

    def skewed(system, k, tol):
        cert = real(system, k, tol)
        return skew(cert) if system is z else cert

    monkeypatch.setattr(perturbation, "verify_k_fusion", skewed)


def _stretched(cert):
    bounds = dataclasses.replace(cert.bounds, upper=10.0 * cert.bounds.upper)
    return dataclasses.replace(cert, bounds=bounds)


def _failed(cert):
    return dataclasses.replace(cert, passed=False, bounds=None, message="skewed")


@pytest.mark.parametrize(
    "question, skew",
    [
        (lambda *args: certify_perturbation(*args, 0.1, 0.1, 0.01).predicted_bounds, _stretched),
        (lambda *args: certify_perturbation(*args, 0.1, 0.1, 0.01).predicted_bounds, _failed),
        (lambda *args: perturbed_bounds(*args, analysis_epsilon(*args))[0], _stretched),
    ],
    ids=["certify-escape", "certify-failed", "perturbed-escape"],
)
def test_window_errors_name_the_bounds_the_window_and_the_slack(
    r3_system, r3_k, monkeypatch, question, skew
):
    """Each question returns its predicted window, and raises once verification is skewed."""
    z = rotated_system(1e-3)
    predicted = question(r3_system, z, r3_k)
    _skew_verification(monkeypatch, z, skew)
    with pytest.raises(AgreementError) as err:
        question(r3_system, z, r3_k)
    found = WINDOW_MESSAGE.search(str(err.value))
    verified, lower, upper, low, high, below, above = found.groups()
    assert [float(low), float(high)] == [predicted.lower, predicted.upper]
    if skew is _failed:
        assert verified == "none" and below is None
    else:
        assert float(below) == DEFAULT_TOL.eq_rel * max(float(lower), float(low), 1.0)
        assert float(above) == DEFAULT_TOL.eq_rel * max(float(upper), float(high), 1.0)
        assert float(upper) > float(high) + float(above)
        assert float(lower) >= float(low) - float(below)
