"""Dense-matrix kernel: SVD, rank, pseudo-inverse, eigenvalues, norms, PSD pencil maxima.

Every other module routes its linear algebra through here so that rank
decisions happen once, at SVD truncation, under a single tolerance policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ToleranceProfile:
    """Tolerance policy shared by every operation in the package.

    Attributes
    ----------
    rank_rel : float
        Relative singular-value cutoff for rank decisions.
    eq_abs : float
        Absolute residual tolerance for equality checks.
    eq_rel : float
        Relative residual tolerance for equality checks.
    """

    rank_rel: float = 1e-10
    eq_abs: float = 1e-9
    eq_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.rank_rel < 1.0:
            raise ValueError("rank_rel must lie strictly between 0 and 1")
        if self.eq_abs <= 0.0 or self.eq_rel <= 0.0:
            raise ValueError("eq_abs and eq_rel must be strictly positive")


DEFAULT_TOL = ToleranceProfile()


class AgreementError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


@dataclass(frozen=True)
class Svd:
    """Thin singular value decomposition ``m = u @ diag(s) @ v.T``."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    @property
    def top(self) -> float:
        """Largest singular value, the spectral norm; zero when there is none."""
        return float(self.singular_values[0]) if self.singular_values.size else 0.0

    @property
    def pinv_norm(self) -> float:
        """Spectral norm of the pseudo-inverse ``v @ diag(1/s) @ u.T`` of truncated factors."""
        return 1.0 / float(self.singular_values[-1]) if self.singular_values.size else 0.0

    def truncated(self, tol: ToleranceProfile = DEFAULT_TOL) -> "Svd":
        """The factors kept by the ``rank_rel`` cutoff; their width is the numerical rank.

        Dropped columns are not kept alive: the kept ones are copied out.
        """
        s = self.singular_values
        rank = int(np.count_nonzero(s > _sv_cutoff(s, tol)))
        if rank == s.size:
            return self
        return Svd(self.u[:, :rank].copy(), s[:rank].copy(), self.v[:, :rank].copy())


def as_matrix(m) -> np.ndarray:
    """Coerce input to a finite two-dimensional float array."""
    out = np.asarray(m, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def svd(m) -> Svd:
    """Thin SVD with singular values sorted nonincreasing.

    Parameters
    ----------
    m : array_like
        Real matrix.

    Returns
    -------
    Svd
        Factors with ``min(rows, cols)`` orthonormal ``u``/``v`` columns.
        LAPACK convergence failures propagate as
        ``numpy.linalg.LinAlgError``, never silently.
    """
    m = as_matrix(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return Svd(u=u, singular_values=s, v=vt.T)


def r_factor(m) -> np.ndarray:
    """Triangular factor R of the reduced QR decomposition of ``m``.

    ``R.T @ R`` equals ``m.T @ m``, so ``m @ a`` and ``R @ a`` have the same
    norm for every ``a`` while R has only ``min(rows, cols)`` rows.
    """
    return np.linalg.qr(as_matrix(m), mode="r")


def _sv_cutoff(s: np.ndarray, tol: ToleranceProfile) -> float:
    top = float(s[0]) if s.size else 0.0
    return tol.rank_rel * max(top, 0.0)


def numerical_rank(m, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_rel`` times the largest one.

    The zero matrix (and any empty matrix) has rank 0.
    """
    m = as_matrix(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > _sv_cutoff(s, tol)))


def pinv(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD truncated at the numerical rank.

    Parameters
    ----------
    m : array_like
        Real matrix.
    tol : ToleranceProfile
        Supplies the ``rank_rel`` cutoff; singular values at or below it are
        zeroed, not inverted.

    Returns
    -------
    numpy.ndarray
        Matrix satisfying all four Penrose identities to working precision.
    """
    m = as_matrix(m)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]))
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > _sv_cutoff(s, tol)
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (vt.T * s_inv) @ u.T


def symmetric_eigenvalues(m) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric part ``(m + m.T) / 2`` of a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def spectral_norm(m) -> float:
    """Largest singular value; zero for empty and zero matrices.

    Computed without an SVD. The input is first scaled by its largest
    absolute entry, so nothing below can overflow or underflow. An exactly
    symmetric input gives its norm as the largest eigenvalue modulus;
    otherwise the norm is the square root of the top eigenvalue of the
    Gram matrix of the shorter side. Both are accurate to a few ulps
    relative. Rank decisions do not come from here: a Gram squares the
    small singular values they read, so they keep the SVD.
    """
    m = as_matrix(m)
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        return 0.0
    m = m / scale
    rows, cols = m.shape
    if rows == cols and np.array_equal(m, m.T):
        vals = symmetric_eigenvalues(m)
        return scale * max(-float(vals[0]), float(vals[-1]))
    gram = m.T @ m if cols <= rows else m @ m.T
    return scale * max(float(symmetric_eigenvalues(gram)[-1]), 0.0) ** 0.5


def orthonormal_range(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, as columns.

    One SVD, one rank decision; downstream code never re-thresholds.
    """
    m = as_matrix(m)
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > _sv_cutoff(s, tol)]


def null_basis(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel, as columns, from the same cutoff rule."""
    m = as_matrix(m)
    cols = m.shape[1]
    if m.size == 0:
        return np.eye(cols)
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    rank = int(np.count_nonzero(s > _sv_cutoff(s, tol)))
    return vt[rank:].T


def max_rayleigh(a, b, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Supremum of ``<a f, f> / <b f, f>`` over f outside the kernel of b.

    Parameters
    ----------
    a, b : array_like
        Symmetric positive semidefinite matrices of matching shape.
    tol : ToleranceProfile
        Rank cutoff for the restriction of the pencil to ``range(b)`` and
        the symmetry / kernel-containment checks.

    Returns
    -------
    float
        The largest generalized eigenvalue of the pencil restricted to
        ``range(b)``; ``inf`` when the kernel of b is not contained in the
        kernel of a (the quotient is then unbounded); 0.0 in the vacuous
        case a = b = 0.

    Raises
    ------
    ValueError
        If either argument is asymmetric beyond tolerance or shapes differ.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    for name, m in (("a", a), ("b", b)):
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{name} must be square")
        skew = m - m.T
        # an exactly symmetric input passes without the two norm SVDs
        if skew.any() and spectral_norm(skew) > tol.eq_abs * (1.0 + spectral_norm(m)):
            raise ValueError(f"{name} is not symmetric within tolerance")
    if a.shape != b.shape:
        raise ValueError("a and b must have matching shapes")
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    vals, vecs = np.linalg.eigh(b)
    top = float(vals[-1]) if vals.size else 0.0
    keep = vals > tol.rank_rel * max(top, 0.0)
    kernel = vecs[:, ~keep]
    if kernel.shape[1] and spectral_norm(a @ kernel) > tol.eq_abs * (1.0 + spectral_norm(a)):
        return float("inf")
    if not np.any(keep):
        return 0.0
    # b is diagonal in its kept eigenbasis, so the restricted pencil reduces
    # to an ordinary symmetric eigenproblem after diagonal scaling.
    root = 1.0 / np.sqrt(vals[keep])
    a_restricted = vecs[:, keep].T @ a @ vecs[:, keep]
    pencil = root[:, None] * a_restricted * root[None, :]
    return max(float(np.linalg.eigvalsh(pencil)[-1]), 0.0)
