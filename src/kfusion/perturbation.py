"""Stability of K-fusion frames under member and weight perturbations.

Covers the three-parameter perturbation certificate, the tight analysis
epsilon of a member-wise deviation, the predicted frame bounds of a
perturbed system, approximate dual reconstruction norms, and the epsilon
threshold guaranteeing that duals of the original system stay approximate
duals of the perturbed one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kfusion.duality import DualCertificate, k_dual_reconstruction
from kfusion.frames import (
    Certificate,
    FrameBounds,
    FusionSystem,
    frame_analysis,
    verify_k_fusion,
)
from kfusion.numerics import (
    DEFAULT_TOL,
    AgreementError,
    ToleranceProfile,
    agreement,
    as_matrix,
    at_most,
    max_rayleigh,
    outside_column,
    r_factor,
    spectral_norm,
)


def analysis_epsilon(
    w: FusionSystem, z: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL
) -> float:
    """Smallest epsilon with ``||(T_W* - T_Z*) f|| <= eps ||K* f||`` for all f.

    The difference acts in ambient coordinates, one weighted projector gap
    per member, so the systems only need matching member counts. With
    K = U_K Sigma_K V_K* the truncated SVD the analysis of (W, K, tol) holds,
    epsilon is ||Sigma_K^-1 U_K* M|| for the stacked gap images M. Returns
    infinity when the difference moves some vector that the adjoint of K
    kills: a column of M leaves range(K) by ``outside_column``.
    """
    if len(w) != len(z) or w.ambient_dim != z.ambient_dim:
        raise ValueError("systems must have matching layout")
    f = frame_analysis(w, k, tol).k_factors
    # an unchanged member adds exactly nothing; the factors Y G* of the others stand side by
    # side, so the Gram of the stack is the sum of their Delta* Delta = (Y G*)(Y G*)*
    gaps = (
        _member_gap(w_sub, w_weight, z_sub, z_weight)
        for (w_sub, w_weight), (z_sub, z_weight) in zip(w.members, z.members)
        if w_weight != z_weight or not np.array_equal(w_sub.basis, z_sub.basis)
    )
    images = np.hstack([np.zeros((w.ambient_dim, 0)), *(y @ gap.T for y, gap in gaps)])
    if outside_column(images, f.u, tol) is not None:
        return np.inf
    return spectral_norm(f.u.T @ images / f.singular_values[:, None])


def _member_gap(w_sub, w_weight, z_sub, z_weight):
    """Y = [W Z] and G = R D, where Delta = w P_W - z P_Z = Y D Y* and R is the QR factor of Y.

    With Y = Q R and Q orthonormal, Delta = Q (G Y*), so ||Delta x|| = ||G Y* x||,
    and G has only dim W + dim Z rows.
    """
    y = np.hstack([w_sub.basis, z_sub.basis])
    signs = np.concatenate([np.full(w_sub.dim, w_weight), np.full(z_sub.dim, -z_weight)])
    return y, r_factor(y) * signs


@dataclass
class PerturbationReport:
    """Outcome of the three-parameter perturbation check."""

    lambda1: float
    lambda2: float
    epsilon: float
    epsilon_threshold: float
    predicted_bounds: FrameBounds
    actual_bounds: FrameBounds
    certified: bool
    falsified_witness: np.ndarray = None
    decided_by: str = "undecided"
    applicable: bool = False


def member_pencils(
    w: FusionSystem, z: FusionSystem, k, lambda1, lambda2, epsilon, tol=DEFAULT_TOL
):
    """Yield ``(mu, f, violated)`` for each member with dim S_i > 0, in member order.

    At f the gap of member i is ||A f|| and the right-hand side is
    ||B f|| + ||C f|| + ||D f||: the weighted member maps W_i* and Z_i* and
    K*, times lambda1, lambda2 and epsilon w_i, with D = Sigma_K U_K* from the
    truncated SVD K = U_K Sigma_K V_K* that the analysis of (W, K, tol) holds.
    mu is the top eigenvalue of the pencil (A*A, B*B + C*C + D*D) on the
    range of its right side, S_i = span(W_i, Z_i, range K), where every
    term vanishes off it; f is the unit vector at its eigenvector, and
    ``violated`` whether f violates the inequality as stated.
    """
    k_factors = frame_analysis(w, k, tol).k_factors
    k_term = k_factors.singular_values[:, None] * k_factors.u.T
    for (w_sub, w_weight), (z_sub, z_weight) in zip(w.members, z.members):
        terms = (
            lambda1 * w_weight * w_sub.basis.T,
            lambda2 * z_weight * z_sub.basis.T,
            epsilon * w_weight * k_term,
        )
        right = np.vstack(terms)
        if right.shape[0] == 0:
            continue
        y, gap = _member_gap(w_sub, w_weight, z_sub, z_weight)
        # few rows that keep each norm: ||Delta f|| = ||G Y* f||
        a = gap @ y.T
        pencil = max_rayleigh(a.T, right.T, tol)
        mu, f = pencil.value, pencil.maximizer
        rhs = sum(np.linalg.norm(t @ f) for t in terms)
        yield mu, f, not at_most(np.linalg.norm(a @ f), rhs, tol)


def _window(predicted: FrameBounds, actual: Certificate, tol: ToleranceProfile):
    """Whether verified bounds exist and lie in the window, each end up to rounding; the numbers."""
    window = f"predicted window [{predicted.lower}, {predicted.upper}]"
    if not actual.passed:
        return False, f"verified bounds none, {window}"
    lower, upper = actual.bounds.lower, actual.bounds.upper
    ends = ((predicted.lower, lower), (upper, predicted.upper))
    inside = all(at_most(a, b, tol) for a, b in ends)
    low_allowed, high_allowed = (agreement(a, b, tol)[1] for a, b in ends)
    numbers = f"verified bounds [{lower}, {upper}], {window}"
    return inside, f"{numbers}, allowed gaps {low_allowed} below and {high_allowed} above"


def certify_perturbation(
    w: FusionSystem,
    z: FusionSystem,
    k,
    lambda1: float,
    lambda2: float,
    epsilon: float,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> PerturbationReport:
    """Decide the member-wise perturbation hypothesis and report frame bounds.

    The hypothesis bounds each weighted projector gap by a combination of
    the two member norms and ``epsilon`` times the adjoint action of K. It
    quantifies over all vectors, so the decision runs in two phases: a
    conservative sufficient certificate (the gap vanishes off range(K) and
    is dominated on it by epsilon times the smallest nonzero singular
    value of K), then ``member_pencils``, member by member, whose top
    generalized eigenvector is the one witness candidate of each member.
    A candidate that does not violate the inequality as stated leaves the
    answer "undecided".
    When the hypothesis is certified and epsilon clears the applicability
    threshold, the predicted bounds must be dominated by the verified
    bounds of the perturbed system.
    """
    if not (0.0 < lambda1 < 1.0 and 0.0 < lambda2 < 1.0):
        raise ValueError("lambda parameters must lie strictly between 0 and 1")
    # written so that NaN fails too
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if len(w) != len(z) or w.ambient_dim != z.ambient_dim:
        raise ValueError("systems must have matching layout")
    analysis = frame_analysis(w, k, tol).require()
    k, k_range = analysis.k, analysis.k_factors.u
    k_sv = analysis.k_factors.singular_values
    sigma_min = float(k_sv[-1]) if k_sv.size else 0.0

    certified = True
    for (w_sub, w_weight), (z_sub, z_weight) in zip(w.members, z.members):
        # Delta is symmetric, so ||Delta X|| = ||X Y (R D)*|| for a symmetric projector X
        y, gap = _member_gap(w_sub, w_weight, z_sub, z_weight)
        image = y @ gap.T
        if outside_column(image, k_range, tol) is not None or not at_most(
            spectral_norm(k_range.T @ image), epsilon * w_weight * sigma_min, tol
        ):
            certified = False
            break

    decided_by, witness = "certificate", None
    if not certified:
        pencils = member_pencils(w, z, k, lambda1, lambda2, epsilon, tol)
        witness = next((f for _, f, violated in pencils if violated), None)
        decided_by = "undecided" if witness is None else "falsifier"

    weight_mass = float(np.sqrt(sum(w_**2 for w_ in w.weights)))
    k_norm = analysis.k_norm
    sqrt_a = float(np.sqrt(analysis.lower))
    sqrt_b = float(np.sqrt(analysis.upper))
    threshold = (
        (1.0 - lambda1) * sqrt_a / (k_norm * weight_mass)
        if k_norm * weight_mass > 0.0
        else np.inf
    )
    low_core = (1.0 - lambda1) * sqrt_a - epsilon * k_norm * weight_mass
    predicted = FrameBounds(
        lower=max(low_core, 0.0) ** 2 / (1.0 + lambda2) ** 2,
        upper=((1.0 + lambda1) * sqrt_b + epsilon * k_norm * weight_mass) ** 2
        / (1.0 - lambda2) ** 2,
        optimal=False,
    )
    actual = verify_k_fusion(z, k, tol)
    applicable = bool(certified and epsilon < threshold)
    if applicable:
        inside, numbers = _window(predicted, actual, tol)
        if not inside:
            raise AgreementError(f"certified perturbation escapes the predicted window: {numbers}")
    return PerturbationReport(
        lambda1=lambda1,
        lambda2=lambda2,
        epsilon=epsilon,
        epsilon_threshold=float(threshold),
        predicted_bounds=predicted,
        actual_bounds=actual.bounds,
        certified=certified,
        falsified_witness=witness,
        decided_by=decided_by,
        applicable=applicable,
    )


def perturbed_bounds(
    w: FusionSystem, z: FusionSystem, k, epsilon: float, tol: ToleranceProfile = DEFAULT_TOL
):
    """Predicted frame bounds of an epsilon-perturbed system.

    Predictions square the shifted roots of the base bounds. Returns the
    predicted bounds and a certificate carrying the verified bounds of the
    perturbed system; when the supplied epsilon really dominates the
    analysis deviation, the verified bounds must respect the prediction.
    "Dominates" is ``at_most(eps*, epsilon)``, which grants eps* up to its
    allowance above epsilon; the verified bounds are then judged against
    the window that eps* predicts, so the allowance moves both alike.
    """
    analysis = frame_analysis(w, k, tol).require()
    k, k_norm = analysis.k, analysis.k_norm
    sqrt_a = float(np.sqrt(analysis.lower))
    if not 0.0 <= epsilon < sqrt_a:
        raise ValueError("epsilon must lie in [0, sqrt(A))")
    sqrt_b = float(np.sqrt(analysis.upper))

    def window_at(e):
        return FrameBounds(
            lower=max(sqrt_a - e, 0.0) ** 2, upper=(sqrt_b + e * k_norm) ** 2, optimal=False
        )

    predicted = window_at(epsilon)
    actual = verify_k_fusion(z, k, tol)
    eps_star = analysis_epsilon(w, z, k, tol)
    hypothesis_holds = at_most(eps_star, epsilon, tol)
    granted = window_at(max(eps_star, epsilon)) if hypothesis_holds else predicted
    dominated, numbers = _window(granted, actual, tol)
    if hypothesis_holds and not dominated:
        raise AgreementError(f"perturbed bounds escape the predicted window: {numbers}")
    cert = Certificate(
        passed=dominated,
        bounds=actual.bounds,
        message="verified bounds against perturbation prediction",
        details={"analysis_epsilon": eps_star, "hypothesis_holds": hypothesis_holds},
    )
    return predicted, cert


def approximate_dual_norm(
    z: FusionSystem, v: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL
) -> DualCertificate:
    """Distance of the dual reconstruction through Z from K; passes below one."""
    k = as_matrix(k)
    recon, _ = k_dual_reconstruction(z, v, k, tol)
    residual = spectral_norm(recon - k)
    return DualCertificate(
        kind="approximate", residual=residual, passed=bool(residual < 1.0)
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Epsilon threshold under which duals survive the perturbation."""

    threshold: float
    deviation: float
    dual_norm: float
    second_term: float
    vacuous: bool


def epsilon_threshold(
    w: FusionSystem, z: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL
) -> ThresholdReport:
    """Largest epsilon keeping K-duals of the base system approximately dual.

    Evaluates the minimum of the root of the base lower bound and the
    ratio built from the inverse-frame-operator deviation between the two
    systems. A nonpositive numerator makes the guarantee vacuous for the
    pair; that is reported rather than raised.
    """
    base = frame_analysis(w, k, tol).require()
    k = base.k
    other = frame_analysis(z, k, tol)
    cert = other.certificate()
    if not cert.passed:
        raise ValueError(f"perturbed system must be a K-fusion frame: {cert.message}")
    inv_w, inv_z = base.inverse_on_image, other.inverse_on_image
    deviation = spectral_norm((inv_w.T - inv_z.T) @ k)
    dual_norm = spectral_norm(inv_z.T @ k)
    numerator = 0.5 - deviation**2 * base.upper
    denominator = dual_norm**2 * base.k_norm**2
    vacuous = bool(numerator <= 0.0)
    second = numerator / denominator if denominator > 0.0 else np.inf
    threshold = min(float(np.sqrt(base.lower)), float(second))
    return ThresholdReport(
        threshold=threshold,
        deviation=deviation,
        dual_norm=dual_norm,
        second_term=float(second),
        vacuous=vacuous,
    )
