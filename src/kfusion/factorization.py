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
    FrameAnalysis,
    FusionSystem,
    frame_analysis,
    synthesis,
)
from kfusion.numerics import (
    DEFAULT_TOL,
    AgreementError,
    ToleranceProfile,
    agreement,
    as_matrix,
    cross_allowance,
    negligible,
    numerical_rank,
    off_span,
    outside,
    residual_matrix,
    spectral_norm,
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
    """Distinguished solution of ``T_W @ x = K`` with per-member block access.

    ``x`` and ``k`` (the analysis's copy of K) are read-only, and ``tol`` is
    the profile ``x_w`` checked the solution under.
    """

    system: FusionSystem
    k: np.ndarray
    tol: ToleranceProfile

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


def _pair(l1, l2, tol: ToleranceProfile) -> FrameAnalysis:
    """The analysis of the pair (L2, L1): L2 plays T and L1 plays K."""
    l1, l2 = as_matrix(l1), as_matrix(l2)
    if l1.shape[0] != l2.shape[0]:
        raise ValueError("L1 and L2 must have the same number of rows")
    return FrameAnalysis.of_pair(l2, l1, tol)


def range_included(l1, l2, tol: ToleranceProfile = DEFAULT_TOL):
    """Whether the column space of L1 lies inside that of L2.

    Returns (included, witness). Inclusion is the range check of the pair's
    analysis, ``FrameAnalysis.range_obstruction``, which ``douglas_solve``
    applies too; on failure the witness is the column of L1 farthest from
    the range of L2, else None.
    """
    analysis = _pair(l1, l2, tol)
    j = analysis.range_obstruction
    return j is None, None if j is None else analysis.k[:, j].copy()


def _residual(l2, x, l1, l1_norm: float, tol: ToleranceProfile):
    """``(||L2 x - L1||, allowed)``: L2 x and L1 are two computations of L1, of norm ``l1_norm``."""
    return spectral_norm(residual_matrix(l2, x, l1)), cross_allowance(l1_norm, tol)


def _solve(analysis: FrameAnalysis, l2: np.ndarray, alpha_inf: float) -> DouglasSolution:
    """Minimal-norm solution of ``L2 @ x = L1`` from the analysis of the pair (L2, L1).

    ``x = V Sigma^-1 U* L1`` with (U, Sigma, V) the analysis's truncated
    factors of L2. Because V has orthonormal columns, the norm, rank and
    kernel of x are those of the small ``Sigma^-1 U* L1``, so no
    decomposition is made at the size of x. ``alpha_inf``, the pencil
    constant of (L1 L1*, L2 L2*), comes from the analysis's pencil and must
    agree with the SVD route.
    """
    l1, f, tol = analysis.k, analysis.factors, analysis.tol
    coeff = (f.u.T @ l1) / f.singular_values[:, None]
    x = f.v @ coeff
    residual, allowed = _residual(l2, x, l1, analysis.k_factors.top, tol)
    if residual > allowed:
        raise AgreementError(
            f"factorization residual ||L2 x - L1|| = {residual} exceeds tolerance {allowed}"
        )
    norm_sq = spectral_norm(coeff) ** 2
    gap, allowed = agreement(norm_sq, alpha_inf, tol)
    if gap > allowed:
        raise AgreementError(
            f"norm-squared {norm_sq} and infimum constant {alpha_inf} disagree:"
            f" gap {gap} exceeds tolerance {allowed}"
        )
    x_norm = np.sqrt(norm_sq)
    # x kills the kernel of L1 exactly when coeff vanishes off the row space of L1
    row = analysis.k_factors.v
    kernel_contained = row.shape[1] == l1.shape[1] or negligible(
        spectral_norm(coeff - (coeff @ row) @ row.T), x_norm, tol
    )
    nullspace_match = kernel_contained and numerical_rank(coeff, tol) == row.shape[1]
    range_containment = outside(x_norm, off_span(x, f.v)[1], tol) is None
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
        certificates that pin the solution uniquely; all read the analysis
        of the pair (L2, L1).

    Raises
    ------
    ValueError
        If the range inclusion fails: L1 leaves the range of L2 by the
        pair's range check.
    AgreementError
        If the factorization residual exceeds tolerance or the two norm
        computations disagree.
    """
    analysis = _pair(l1, l2, tol)
    j = analysis.range_obstruction
    if j is not None:
        raise ValueError(
            f"range of L1 is not contained in range of L2; witness column {analysis.k[:, j]}"
        )
    return _solve(analysis, as_matrix(l2), analysis.pencil_ratio)


def solution_matrix(w: FusionSystem, k: np.ndarray, x: DouglasSolution, tol) -> np.ndarray:
    """The matrix of x; ValueError unless ``T_W @ x`` and K agree as ``x_w`` checks its own.

    The solution ``x_w`` built for this system, K and tol passed that very
    check when it was built, and its matrix is read-only, so it is returned
    without a second check.
    """
    if isinstance(x, XwSolution) and x.system is w and x.tol == tol and np.array_equal(x.k, k):
        return x.x
    x_mat = as_matrix(x.x)
    analysis = frame_analysis(w, k, tol)
    residual, allowed = _residual(synthesis(w), x_mat, analysis.k, analysis.k_factors.top, tol)
    if residual > allowed:
        raise ValueError("x does not solve the synthesis equation for K")
    return x_mat


def x_w(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> XwSolution:
    """Distinguished solution of ``T_W @ x = K`` for a verified K-fusion frame.

    The reciprocal of its squared norm is the optimal lower frame bound; the
    per-member components give the building blocks for duals and
    resolutions. Built from the shared analysis of (W, K, tol): the factors
    and the pencil constant that verified the frame condition.
    """
    analysis = frame_analysis(w, k, tol).require()
    base = _solve(analysis, synthesis(w), analysis.pencil_ratio)
    base.x.flags.writeable = False
    return XwSolution(**vars(base), system=w, k=analysis.k, tol=tol)
