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

from kfusion.factorization import DouglasSolution, solution_matrix, x_w
from kfusion.frames import (
    BlockVector,
    FusionSystem,
    frame_analysis,
    range_projector,
    subspace_from_columns,
    synthesis,
    verify_k_fusion,
)
from kfusion.numerics import (
    DEFAULT_TOL,
    ToleranceProfile,
    as_matrix,
    cross_allowance,
    max_rayleigh,
    negligible,
    outside_column,
    pinv,
    r_factor,
    residual_matrix,
    spectral_norm,
    symmetric_eigenvalues,
)


@dataclass(frozen=True, init=False)
class Resolution:
    """Family of operators with positive weights, aimed at summing to K.

    Operator i is kept as a factor pair ``factors[i] = (left_i, right_i)``
    with theta_i = left_i @ right_i: left_i is n x d_i and right_i is
    d_i x cols. The library's constructions pass pairs with d_i the member
    dimension, so nothing per member is n x n; ``Resolution(thetas, weights)``
    keeps each dense theta as the pair (theta, I).
    """

    factors: tuple
    weights: tuple

    def __init__(self, thetas, weights):
        mats = tuple(as_matrix(t) for t in thetas)
        eye = np.eye(mats[0].shape[1]) if mats else None
        self._set(tuple((t, eye) for t in mats), weights)

    @classmethod
    def from_factors(cls, factors, weights) -> "Resolution":
        """The resolution with operators ``left @ right`` for each (left, right) in ``factors``."""
        r = cls.__new__(cls)
        r._set(tuple((as_matrix(left), as_matrix(right)) for left, right in factors), weights)
        return r

    def _set(self, factors, weights) -> None:
        weights = tuple(float(w) for w in weights)
        if len(factors) != len(weights):
            raise ValueError("one weight per operator is required")
        if not factors:
            raise ValueError("a resolution needs at least one operator")
        # written so that NaN fails too
        if not all(0.0 < w < np.inf for w in weights):
            raise ValueError(f"weights must be finite and positive, got {weights}")
        if len({(left.shape[0], right.shape[1]) for left, right in factors}) > 1:
            raise ValueError("all operators must share one shape")
        if any(left.shape[1] != right.shape[0] for left, right in factors):
            raise ValueError("each left factor needs as many columns as its right factor has rows")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple:
        left, right = self.factors[0]
        return left.shape[0], right.shape[1]

    @property
    def thetas(self) -> tuple:
        """The operators as dense matrices, multiplied out on every read."""
        return tuple(left @ right for left, right in self.factors)

    def stacked(self) -> tuple:
        """(lefts, rights): the left factors side by side, the right ones times w_i**2 stacked."""
        lefts = np.hstack([left for left, _ in self.factors])
        rights = np.vstack([w**2 * right for (_, right), w in zip(self.factors, self.weights)])
        return lefts, rights

    def weighted_sum(self) -> np.ndarray:
        """Sum of w_i**2 theta_i, as one product of the stacked factors."""
        lefts, rights = self.stacked()
        return lefts @ rights

    def gram_factor(self) -> np.ndarray:
        """M with M* M the weighted gram sum, sum(d_i) x cols.

        M stacks w_i R_i right_i, with R_i the R-factor of left_i.
        """
        return np.vstack(
            [w * (r_factor(left) @ right) for (left, right), w in zip(self.factors, self.weights)]
        )


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
    constraint. Both are read from the pencil ``numerics.max_rayleigh(K*, M*)`` of the gram
    factor M: ||M||**2 as the top eigenvalue of M* M it keeps, the lower bound from its value.
    The residual of the stacked factors, through ``numerics.residual_matrix``,
    is ``negligible`` at that pencil's ``m_scale``, the scale of its
    containment step; it takes ||K|| only when the pencil spans every row.
    """
    k = as_matrix(k)
    if r.shape != k.shape:
        raise ValueError("operators and K must share one shape")
    residual = spectral_norm(residual_matrix(*r.stacked(), k))
    factor = r.gram_factor()
    pencil = max_rayleigh(k.T, factor.T, tol)
    upper = float(pencil.vals[-1]) if pencil.vals.size else 0.0
    ratio = pencil.value
    lower = 0.0 if np.isinf(ratio) else (np.inf if ratio == 0.0 else 1.0 / ratio)
    return ResolutionCheck(
        passed=negligible(residual, pencil.m_scale, tol),
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
    x_mat = solution_matrix(w, k, x, tol)
    factors = tuple(
        (sub.basis, x_mat[sl, :].copy()) for (sub, _), sl in zip(w.members, w.block_slices())
    )
    return Resolution.from_factors(factors, tuple(np.sqrt(w_) for w_ in w.weights))


def resolution_b(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> Resolution:
    """Resolution by range-projected members of the adjoint inverse route.

    The i-th operator is P_K P_i C, with P_K the range projector of K, P_i
    the member projector and C the adjoint of the inverse frame operator on
    the image, applied to K. With U_K an orthonormal basis of range(K) and
    B_i the member basis it is kept as the pair (U_K (U_K* B_i), B_i* C).
    """
    k = as_matrix(k)
    analysis = frame_analysis(w, k, tol).require()
    u_k = analysis.k_factors.u
    carrier = analysis.inverse_on_image.T @ k
    factors = tuple((u_k @ (u_k.T @ sub.basis), sub.basis.T @ carrier) for sub, _ in w.members)
    return Resolution.from_factors(factors, w.weights)


def resolution_c(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> Resolution:
    """Resolution by the inverse frame operator applied after member projections.

    The i-th operator is G P_i K, with G the inverse frame operator on the
    image of range(K); with B_i the member basis it is kept as the pair
    (G B_i, B_i* K).
    """
    k = as_matrix(k)
    inv_img = frame_analysis(w, k, tol).require().inverse_on_image
    factors = tuple((inv_img @ sub.basis, sub.basis.T @ k) for sub, _ in w.members)
    return Resolution.from_factors(factors, w.weights)


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
    """Extreme margins, over unit vectors, of the two minimal-norm inequalities."""

    passed: bool
    plain_margin: tuple
    centered_margin: tuple


def minimal_norm_check(
    w: FusionSystem, k, r: Resolution, tol: ToleranceProfile = DEFAULT_TOL
) -> MinimalNormReport:
    """Compare a member-wise resolution against the distinguished solution.

    Requires each operator to map into its member and the sum weighted by
    one factor of the system weights to reproduce K; that normalization
    makes the resolution a synthesis preimage family, which is what the
    minimality of the distinguished solution is measured against. Operator
    i is then B_i Y_i with B_i the member basis, and with X the distinguished
    solution both inequalities are operator ones: Y* Y - X* X >= 0 for the
    plain block norms, and the same with T_W* subtracted from X and Y for
    the block norms after subtracting the weighted member projections. Each
    margin is the (smallest, largest) eigenvalue of that difference, its
    extreme values over unit f. An inequality holds when the smallest is at
    least -``cross_allowance`` of the right-hand form's largest eigenvalue.
    """
    k = as_matrix(k)
    if len(r) != len(w):
        raise ValueError("one operator per member is required")
    thetas = r.thetas
    for idx, (theta, (sub, _)) in enumerate(zip(thetas, w.members)):
        if outside_column(theta, sub.basis, tol) is not None:
            raise ValueError(f"operator {idx} does not map into member {idx}")
    lifted = sum(weight * theta for theta, weight in zip(thetas, w.weights))
    # ||K|| from the analysis x_w reads below
    if not negligible(spectral_norm(lifted - k), frame_analysis(w, k, tol).k_norm, tol):
        raise ValueError("resolution must reproduce K with one factor of the system weights")
    x_mat = x_w(w, k, tol).x
    y = np.vstack(
        [(sub.basis.T @ left) @ right for (left, right), (sub, _) in zip(r.factors, w.members)]
    )
    t_adj = synthesis(w).T
    margins, passed = [], True
    for rhs, lhs in ((y, x_mat), (y - t_adj, x_mat - t_adj)):
        vals = symmetric_eigenvalues(rhs.T @ rhs - lhs.T @ lhs)
        margins.append((float(vals[0]), float(vals[-1])))
        passed = passed and vals[0] >= -cross_allowance(spectral_norm(rhs) ** 2, tol)
    return MinimalNormReport(bool(passed), *margins)


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
    was_outside = not negligible(np.linalg.norm(f - projected), np.linalg.norm(f), tol)
    if was_outside:
        warnings.warn("vector outside range(K) was projected", stacklevel=2)
    t_w = synthesis(w)
    plain = BlockVector.from_stacked(pinv(t_w, tol) @ projected, w.dims())
    weighted = BlockVector(
        tuple(weight * b for b, (_, weight) in zip(plain.blocks, w.members))
    )
    oracle = BlockVector.from_stacked(pinv(p_r @ t_w, tol) @ projected, w.dims())
    gap_plain = float(np.linalg.norm(plain.stacked() - oracle.stacked()))
    gap_weighted = float(np.linalg.norm(weighted.stacked() - oracle.stacked()))
    report = PinvRouteReport(
        projected=was_outside,
        gap_plain=gap_plain,
        gap_weighted=gap_weighted,
        matches_plain=gap_plain <= cross_allowance(max(plain.norm(), oracle.norm()), tol),
        matches_weighted=gap_weighted <= cross_allowance(max(weighted.norm(), oracle.norm()), tol),
    )
    return weighted, report
