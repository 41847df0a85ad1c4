"""Operator resolutions: splitting K into weighted member-wise pieces.

A resolution of K is a finite family of operators whose weighted squares sum
back to K. The constructions here come from a K-fusion frame: the component
maps of a synthesis solution, and two projection-composed families built
from the inverse frame operator. The minimal-norm comparison and the
pseudo-inverse route are certified against independent computations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from kfusion.factorization import DouglasSolution, x_w
from kfusion.frames import (
    BlockVector,
    Certificate,
    FusionSystem,
    frame_analysis,
    frame_operator,
    range_projector,
    subspace_from_columns,
    synthesis,
    verify_k_fusion,
)
from kfusion.numerics import (
    DEFAULT_TOL,
    ToleranceProfile,
    as_matrix,
    max_rayleigh,
    pinv,
    spectral_norm,
)


@dataclass(frozen=True)
class Resolution:
    """Family of operators with positive weights, aimed at summing to K."""

    thetas: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.thetas) != len(self.weights):
            raise ValueError("one weight per operator is required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        mats = tuple(as_matrix(t) for t in self.thetas)
        shapes = {m.shape for m in mats}
        if len(shapes) > 1:
            raise ValueError("all operators must share one shape")
        object.__setattr__(self, "thetas", mats)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def __len__(self) -> int:
        return len(self.thetas)

    def weighted_sum(self) -> np.ndarray:
        return sum(w**2 * t for t, w in zip(self.thetas, self.weights))

    def gram(self) -> np.ndarray:
        g = sum(w**2 * t.T @ t for t, w in zip(self.thetas, self.weights))
        return 0.5 * (g + g.T)


@dataclass(frozen=True)
class ResolutionCheck:
    passed: bool
    residual: float
    lower: float
    upper: float


def verify_resolution(
    r: Resolution, k, tol: ToleranceProfile = DEFAULT_TOL
) -> ResolutionCheck:
    """Check that the weighted operators sum to K and report optimal bounds.

    The upper bound is the largest eigenvalue of the weighted gram sum; the
    lower bound is the largest A with ``A * ||K f||^2`` below the weighted
    square sums for every f, vectors in the kernel of K imposing no
    constraint.
    """
    k = as_matrix(k)
    if r.thetas and r.thetas[0].shape != k.shape:
        raise ValueError("operators and K must share one shape")
    residual = spectral_norm(r.weighted_sum() - k)
    gram = r.gram()
    upper = spectral_norm(gram)
    ratio = max_rayleigh(k.T @ k, gram, tol)
    lower = 0.0 if np.isinf(ratio) else (np.inf if ratio == 0.0 else 1.0 / ratio)
    return ResolutionCheck(
        passed=bool(residual <= tol.eq_abs * (1.0 + spectral_norm(k))),
        residual=residual,
        lower=lower,
        upper=upper,
    )


def resolution_from_x(
    w: FusionSystem, k, x: DouglasSolution, tol: ToleranceProfile = DEFAULT_TOL
) -> Resolution:
    """Resolution by the component maps of a synthesis solution.

    The i-th operator is the ambient realization of the i-th coefficient
    block; the weights are the square roots of the system weights, so the
    weighted sum telescopes back through the synthesis equation.
    """
    k = as_matrix(k)
    x_mat = as_matrix(x.x)
    if spectral_norm(synthesis(w) @ x_mat - k) > tol.eq_rel * (1.0 + spectral_norm(k)):
        raise ValueError("x does not solve the synthesis equation for K")
    thetas = tuple(
        sub.basis @ x_mat[sl, :] for (sub, _), sl in zip(w.members, w.block_slices())
    )
    return Resolution(thetas=thetas, weights=tuple(np.sqrt(w_) for w_ in w.weights))


def resolution_b(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> Resolution:
    """Resolution by range-projected members of the adjoint inverse route.

    The i-th operator is P_K P_i C, with P_K the range projector of K, P_i
    the member projector and C the adjoint of the inverse frame operator on
    the image, applied to K. With U_K an orthonormal basis of range(K) and
    B_i the member basis it is built as (U_K (U_K* B_i)) (B_i* C), at
    n * d_i * n operations per member.
    """
    k = as_matrix(k)
    analysis = frame_analysis(w, k, tol).require()
    u_k = analysis.k_factors.u
    carrier = analysis.inverse_on_image.T @ k
    thetas = tuple((u_k @ (u_k.T @ sub.basis)) @ (sub.basis.T @ carrier) for sub, _ in w.members)
    return Resolution(thetas=thetas, weights=w.weights)


def resolution_c(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> Resolution:
    """Resolution by the inverse frame operator applied after member projections.

    The i-th operator is G P_i K, with G the inverse frame operator on the
    image of range(K); it is built through the member basis B_i as
    (G B_i) (B_i* K).
    """
    k = as_matrix(k)
    inv_img = frame_analysis(w, k, tol).require().inverse_on_image
    thetas = tuple((inv_img @ sub.basis) @ (sub.basis.T @ k) for sub, _ in w.members)
    return Resolution(thetas=thetas, weights=w.weights)


def frame_from_resolution(r: Resolution, k, tol: ToleranceProfile = DEFAULT_TOL):
    """Fusion system spanned by the ranges of a certified resolution.

    Returns the system together with its K-fusion certificate; an all-zero
    operator contributes a zero subspace.
    """
    k = as_matrix(k)
    check = verify_resolution(r, k, tol)
    if not check.passed:
        raise ValueError(f"resolution residual {check.residual} exceeds tolerance")
    members = tuple(
        (subspace_from_columns(theta, tol), weight)
        for theta, weight in zip(r.thetas, r.weights)
    )
    system = FusionSystem(k.shape[0], members)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cert = verify_k_fusion(system, k, tol)
    return system, cert


@dataclass(frozen=True)
class MinimalNormReport:
    """Sampled margins of the two minimal-norm inequalities."""

    passed: bool
    plain_margin: tuple
    centered_margin: tuple
    samples: int


def minimal_norm_check(
    w: FusionSystem, k, r: Resolution, tol: ToleranceProfile = DEFAULT_TOL
) -> MinimalNormReport:
    """Compare a member-wise resolution against the distinguished solution.

    Requires each operator to map into its member and the sum weighted by
    one factor of the system weights to reproduce K; that normalization
    makes the resolution a synthesis preimage family, which is what the
    minimality of the distinguished solution is measured against. For 100
    seeded random vectors, checks both inequalities: plain block norms, and
    block norms after subtracting the weighted member projections.
    """
    k = as_matrix(k)
    if len(r) != len(w):
        raise ValueError("one operator per member is required")
    for idx, (theta, (sub, _)) in enumerate(zip(r.thetas, w.members)):
        drift = spectral_norm(theta - sub.projector() @ theta)
        if drift > tol.eq_abs * (1.0 + spectral_norm(theta)):
            raise ValueError(f"operator {idx} does not map into member {idx}")
    lifted = sum(weight * theta for theta, weight in zip(r.thetas, w.weights))
    gap = spectral_norm(lifted - k)
    if gap > tol.eq_abs * (1.0 + spectral_norm(k)):
        raise ValueError(
            "resolution must reproduce K with one factor of the system weights"
        )
    x_mat = x_w(w, k, tol).x
    projectors = [sub.projector() for sub, _ in w.members]
    rng = np.random.default_rng(2)
    plain, centered = [], []
    for _ in range(100):
        f = rng.standard_normal(w.ambient_dim)
        blocks = BlockVector.from_stacked(x_mat @ f, w.dims())
        lhs_plain = blocks.norm_squared
        rhs_plain = sum(
            float(np.linalg.norm(theta @ f) ** 2) for theta in r.thetas
        )
        lhs_centered = 0.0
        rhs_centered = 0.0
        for (sub, weight), block, theta, proj in zip(
            w.members, blocks.blocks, r.thetas, projectors
        ):
            target = weight * (proj @ f)
            lhs_centered += float(np.linalg.norm(sub.basis @ block - target) ** 2)
            rhs_centered += float(np.linalg.norm(theta @ f - target) ** 2)
        plain.append(rhs_plain - lhs_plain)
        centered.append(rhs_centered - lhs_centered)
    scale = tol.eq_rel * (1.0 + max(map(abs, plain + centered)))
    passed = min(plain) >= -scale and min(centered) >= -scale
    return MinimalNormReport(
        passed=bool(passed),
        plain_margin=(min(plain), max(plain)),
        centered_margin=(min(centered), max(centered)),
        samples=100,
    )


@dataclass(frozen=True)
class PinvRouteReport:
    """Agreement between the solution-route blocks and the direct pseudo-inverse."""

    projected: bool
    gap_plain: float
    gap_weighted: float
    matches_plain: bool
    matches_weighted: bool


def pinv_via_xw(w: FusionSystem, k, f, tol: ToleranceProfile = DEFAULT_TOL):
    """Blocks of the distinguished solution route against the direct pseudo-inverse.

    For f in range(K), the route takes the minimal synthesis preimage of f
    (the distinguished solution applied to any g with K g = f). The direct
    computation is the pseudo-inverse of the range-projected synthesis
    applied to f. The report carries the gap for the plain blocks and for
    the weight-scaled blocks, since the two conventions genuinely differ;
    the returned block vector is the weight-scaled one.
    """
    k = as_matrix(k)
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.shape[0] != w.ambient_dim:
        raise ValueError("vector must live in the ambient space")
    p_r = range_projector(k, tol)
    projected = p_r @ f
    was_outside = bool(
        np.linalg.norm(f - projected) > tol.eq_abs * (1.0 + np.linalg.norm(f))
    )
    if was_outside:
        warnings.warn("vector outside range(K) was projected", stacklevel=2)
    t_w = synthesis(w)
    plain = BlockVector.from_stacked(pinv(t_w, tol) @ projected, w.dims())
    weighted = BlockVector(
        tuple(weight * b for b, (_, weight) in zip(plain.blocks, w.members))
    )
    oracle = BlockVector.from_stacked(pinv(p_r @ t_w, tol) @ projected, w.dims())
    slack = tol.eq_rel * (1.0 + oracle.norm())
    gap_plain = float(np.linalg.norm(plain.stacked() - oracle.stacked()))
    gap_weighted = float(np.linalg.norm(weighted.stacked() - oracle.stacked()))
    report = PinvRouteReport(
        projected=was_outside,
        gap_plain=gap_plain,
        gap_weighted=gap_weighted,
        matches_plain=bool(gap_plain <= slack),
        matches_weighted=bool(gap_weighted <= slack),
    )
    return weighted, report
