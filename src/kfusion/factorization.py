"""Minimal-norm factorization of one operator through another.

Given matrices with nested ranges, the equation ``L2 @ x = L1`` has a unique
solution that simultaneously attains the minimal operator norm, shares its
kernel with L1, and has range inside the row space of L2. The distinguished
solution of ``T_W @ x = K`` drives the dual and resolution constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kfusion.frames import (
    BlockVector,
    FusionSystem,
    _worst_column_outside,
    frame_analysis,
    synthesis,
)
from kfusion.numerics import (
    DEFAULT_TOL,
    AgreementError,
    ToleranceProfile,
    as_matrix,
    max_rayleigh,
    numerical_rank,
    orthonormal_range,
    spectral_norm,
    svd,
)


@dataclass(frozen=True)
class DouglasSolution:
    """Canonical solution of ``L2 @ x = L1`` with its three certificates.

    ``norm_sq`` and ``alpha_inf`` realize the same quantity two independent
    ways (operator norm of x, and the smallest constant bounding
    ``L1 L1*`` by a multiple of ``L2 L2*``); they must agree.
    """

    x: np.ndarray
    norm_sq: float
    alpha_inf: float
    nullspace_match: bool
    range_containment: bool
    residual: float


@dataclass(frozen=True)
class XwSolution(DouglasSolution):
    """Distinguished solution of ``T_W @ x = K`` with per-member block access."""

    system: FusionSystem
    k: np.ndarray

    def blocks(self, f) -> BlockVector:
        """Direct-sum coefficients of the solution applied to an ambient vector."""
        f = np.asarray(f, dtype=float).reshape(-1)
        return BlockVector.from_stacked(self.x @ f, self.system.dims())

    def components(self, f) -> list:
        """Ambient member components of the solution applied to a vector."""
        coeff = self.blocks(f)
        return [
            sub.basis @ block
            for (sub, _), block in zip(self.system.members, coeff.blocks)
        ]

    def component_matrices(self) -> list:
        """Ambient matrices whose i-th entry maps f to the i-th component."""
        return [
            sub.basis @ self.x[sl, :]
            for (sub, _), sl in zip(self.system.members, self.system.block_slices())
        ]


def range_included(l1, l2, tol: ToleranceProfile = DEFAULT_TOL):
    """Whether the column space of L1 lies inside that of L2.

    Returns (included, witness). Inclusion fails when some column of L1 lies
    farther than ``eq_abs * (1 + ||L1||)`` from the range of L2, the rule
    ``douglas_solve`` applies; the witness is then the farthest column, else
    None.
    """
    l1 = as_matrix(l1)
    l2 = as_matrix(l2)
    if l1.shape[0] != l2.shape[0]:
        raise ValueError("L1 and L2 must have the same number of rows")
    witness = _outside_witness(l1, orthonormal_range(l2, tol), spectral_norm(l1), tol)
    return witness is None, witness


def _outside_witness(l1, basis, l1_norm: float, tol: ToleranceProfile):
    """The column of L1 farthest from span(basis) if beyond ``eq_abs * (1 + ||L1||)``, else None."""
    gap, j = _worst_column_outside(l1, basis)
    if j is None or gap <= tol.eq_abs * (1.0 + l1_norm):
        return None
    return l1[:, j]


def _solve_from_factors(l1, l2, l1_factors, l2_factors, alpha_inf, tol) -> DouglasSolution:
    """Minimal-norm solution of ``L2 @ x = L1`` from truncated thin SVDs of both.

    ``x = V Sigma^-1 U* L1`` with (U, Sigma, V) the factors of L2. Because V
    has orthonormal columns, the norm, rank and kernel of x are those of the
    small ``Sigma^-1 U* L1``, so no decomposition is made at the size of x.
    ``alpha_inf``, the pencil constant of (L1 L1*, L2 L2*), comes from an
    eigendecomposition of L2 L2* and must agree with the SVD route.
    """
    coeff = (l2_factors.u.T @ l1) / l2_factors.singular_values[:, None]
    x = l2_factors.v @ coeff
    residual = spectral_norm(l2 @ x - l1)
    allowed = tol.eq_rel * (1.0 + l1_factors.top)
    if residual > allowed:
        raise AgreementError(
            f"factorization residual ||L2 x - L1|| = {residual} exceeds tolerance {allowed}"
        )
    norm_sq = spectral_norm(coeff) ** 2
    gap = abs(norm_sq - alpha_inf)
    allowed = tol.eq_rel * max(norm_sq, alpha_inf, 1.0)
    if np.isinf(alpha_inf) or gap > allowed:
        raise AgreementError(
            f"norm-squared {norm_sq} and infimum constant {alpha_inf} disagree:"
            f" gap {gap} exceeds tolerance {allowed}"
        )
    x_scale = tol.eq_abs * (1.0 + np.sqrt(norm_sq))
    # x kills the kernel of L1 exactly when coeff vanishes off the row space of L1
    row = l1_factors.v
    kernel_contained = row.shape[1] == l1.shape[1] or spectral_norm(
        coeff - (coeff @ row) @ row.T
    ) <= x_scale
    nullspace_match = kernel_contained and numerical_rank(coeff, tol) == row.shape[1]
    v = l2_factors.v
    off_range = np.linalg.norm(x - v @ (v.T @ x), axis=0)
    range_containment = not off_range.size or off_range.max() <= x_scale
    return DouglasSolution(
        x=x,
        norm_sq=norm_sq,
        alpha_inf=alpha_inf,
        nullspace_match=bool(nullspace_match),
        range_containment=bool(range_containment),
        residual=residual,
    )


def douglas_solve(l1, l2, tol: ToleranceProfile = DEFAULT_TOL) -> DouglasSolution:
    """Canonical minimal-norm solution of ``L2 @ x = L1``.

    Parameters
    ----------
    l1, l2 : array_like
        Matrices with the same row count and the range of L1 inside the
        range of L2.
    tol : ToleranceProfile
        Tolerance policy.

    Returns
    -------
    DouglasSolution
        ``x = pinv(L2) @ L1`` along with the squared norm, the infimum
        constant of the operator inequality, and the kernel/range
        certificates that pin the solution uniquely.

    Raises
    ------
    ValueError
        If the range inclusion fails: some column of L1 lies farther than
        ``eq_abs * (1 + ||L1||)`` from the range of L2.
    AgreementError
        If the factorization residual exceeds tolerance or the two norm
        computations disagree.
    """
    l1 = as_matrix(l1)
    l2 = as_matrix(l2)
    if l1.shape[0] != l2.shape[0]:
        raise ValueError("L1 and L2 must have the same number of rows")
    l1_factors = svd(l1).truncated(tol)
    l2_factors = svd(l2).truncated(tol)
    witness = _outside_witness(l1, l2_factors.u, l1_factors.top, tol)
    if witness is not None:
        raise ValueError(
            f"range of L1 is not contained in range of L2; witness column {witness}"
        )
    alpha_inf = max_rayleigh(l1 @ l1.T, l2 @ l2.T, tol)
    return _solve_from_factors(l1, l2, l1_factors, l2_factors, alpha_inf, tol)


def x_w(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> XwSolution:
    """Distinguished solution of ``T_W @ x = K`` for a verified K-fusion frame.

    The reciprocal of its squared norm is the optimal lower frame bound; the
    per-member components give the building blocks for duals and
    resolutions. Built from the shared analysis of (W, K, tol): the factors
    and the pencil constant that verified the frame condition.
    """
    analysis = frame_analysis(w, k, tol).require()
    base = _solve_from_factors(
        analysis.k, synthesis(w), analysis.k_factors, analysis.factors, analysis.pencil_ratio, tol
    )
    return XwSolution(
        x=base.x,
        norm_sq=base.norm_sq,
        alpha_inf=base.alpha_inf,
        nullspace_match=base.nullspace_match,
        range_containment=base.range_containment,
        residual=base.residual,
        system=w,
        k=as_matrix(k),
    )
