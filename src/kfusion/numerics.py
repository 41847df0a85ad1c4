"""Dense-matrix kernel: SVD, rank, pseudo-inverse, eigenvalues, norms, PSD pencil maxima.

Every other module routes its linear algebra through here so that rank
decisions happen once, at SVD truncation, under a single tolerance policy.
Every other comparison with the tolerance goes through one of three rules
here: ``negligible`` (a residual counts as zero; ``negligible_lazily`` when
its scale is costly), ``outside_column`` (columns lie in a span) and
``agreement`` / ``at_most`` (two computations of one number).
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
        Absolute tolerance of the zero rule (``negligible``) and the
        containment rule (``outside_column``).
    eq_rel : float
        Relative tolerance of the cross-check rule (``agreement``, ``at_most``).
    """

    rank_rel: float = 1e-10
    eq_abs: float = 1e-9
    eq_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.rank_rel < 1.0:
            raise ValueError("rank_rel must lie strictly between 0 and 1")
        # written so that NaN fails too
        if not (0.0 < self.eq_abs < np.inf and 0.0 < self.eq_rel < np.inf):
            raise ValueError("eq_abs and eq_rel must be finite and strictly positive")


DEFAULT_TOL = ToleranceProfile()


class AgreementError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


def negligible(residual: float, scale: float, tol: ToleranceProfile) -> bool:
    """The zero rule: a residual at norm ``scale`` counts as zero when <= eq_abs (1 + scale)."""
    return bool(residual <= tol.eq_abs * (1.0 + scale))


# A floor below a norm (||B* m|| <= ||m||, a column norm <= ||m||) holds
# exactly; the computed values can cross by rounding when they are equal.
# Shrinking the floor by far more than that rounding keeps every first-step
# pass a pass of the one-step rule.
_BELOW_NORM = 1.0 - 1e-8


def negligible_lazily(residual: float, floor: float, scale, tol: ToleranceProfile) -> bool:
    """``negligible(residual, scale(), tol)``, where ``floor`` is at most the value of ``scale()``.

    ``negligible`` accepts more as its scale grows, so the rule is first
    decided at ``floor``: a pass there is a pass at ``scale()``. The callable
    runs only on a fail, and the rule is decided again at its value.
    """
    return negligible(residual, _BELOW_NORM * floor, tol) or negligible(residual, scale(), tol)


def outside_column(m: np.ndarray, basis: np.ndarray, m_norm, tol: ToleranceProfile):
    """The containment rule: None when the columns of m lie in span(basis), else the worst column.

    ``basis`` has orthonormal columns and ``m_norm`` is the spectral norm of m.
    The columns lie in the span when the Frobenius norm of (I - B B*) m is
    ``negligible`` at scale ``m_norm``; it bounds the spectral norm from above.

    ``m_norm`` may instead be a callable that computes that norm. The rule is
    then ``negligible_lazily`` with the floor ||B* m||, a norm the size of the
    span, so the callable runs only when the residual fails there.
    """
    coords = basis.T @ m
    # in place: m can be far wider than it is tall
    off = basis @ coords
    off -= m
    off *= off
    squares = off.sum(axis=0)
    residual = float(np.sqrt(squares.sum()))
    if callable(m_norm):
        inside = negligible_lazily(residual, spectral_norm(coords), m_norm, tol)
    else:
        inside = negligible(residual, m_norm, tol)
    return None if inside else int(np.argmax(squares))


# c eps of the span rule, c = 64 units of rounding: it picks an algorithm,
# never an answer, so it is not part of the ToleranceProfile
SPAN_ROUNDING = 64 * np.finfo(float).eps


def span_coordinates(m: np.ndarray, basis: np.ndarray):
    """Q* m when ||m - Q Q* m||_F <= c eps ||m||_F for the orthonormal Q = ``basis``, else None."""
    coords = basis.T @ m
    off = basis @ coords
    off -= m
    return coords if np.linalg.norm(off) <= SPAN_ROUNDING * np.linalg.norm(m) else None


def residual_matrix(l: np.ndarray, r: np.ndarray, k: np.ndarray) -> np.ndarray:
    """L R - K, or R_L R - Q* K (same norm to rounding) when L = Q R_L is tall and K in span(Q)."""
    if l.shape[0] > l.shape[1]:
        q, r_l = np.linalg.qr(l)
        coords = span_coordinates(k, q)
        if coords is not None:
            return r_l @ r - coords
    return l @ r - k


def cross_allowance(scale: float, tol: ToleranceProfile) -> float:
    """How far two computations of a quantity of size ``scale`` may differ: eq_rel max(scale, 1)."""
    return tol.eq_rel * max(scale, 1.0)


def agreement(a: float, b: float, tol: ToleranceProfile) -> tuple:
    """The cross-check rule: (gap, allowed) between two computations of one number.

    They agree when gap <= allowed = eq_rel max(|a|, |b|, 1); infinite values only when equal.
    """
    if np.isinf(a) or np.isinf(b):
        return (0.0 if a == b else np.inf), 0.0
    return abs(a - b), cross_allowance(max(abs(a), abs(b)), tol)


def at_most(a: float, b: float, tol: ToleranceProfile) -> bool:
    """a <= b up to rounding: a <= b, or a and b agree by ``agreement``."""
    gap, allowed = agreement(a, b, tol)
    return bool(a <= b or gap <= allowed)


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
        zeroed, not inverted, and so are subnormal ones, whose reciprocals
        can overflow however m is scaled.

    Returns
    -------
    numpy.ndarray
        Matrix satisfying all four Penrose identities to working precision.
    """
    m = as_matrix(m)
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]))
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = (s > _sv_cutoff(s, tol)) & (s >= np.finfo(float).tiny)
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


def _kept_span(m: np.ndarray, vals: np.ndarray, vecs: np.ndarray, m_norm, tol: ToleranceProfile):
    """b = vecs diag(vals) vecs*, restricted to the rank cutoff: ``(kept, kept_vals)``.

    ``vecs`` has orthonormal columns, and b's eigenvalues above
    ``rank_rel`` times the largest are kept. Returns ``(None, f)`` when the
    columns of m leave the span of the kept eigenvectors, with f the
    normalized off-span part of the worst column; ``m_norm`` is the
    callable that ``outside_column`` asks for ||m|| on a first-step fail.
    """
    keep = vals > tol.rank_rel * max(float(vals.max(initial=0.0)), 0.0)
    kept = vecs[:, keep]
    if kept.shape[1] < m.shape[0]:
        j = outside_column(m, kept, m_norm, tol)
        if j is not None:
            off = m[:, j] - kept @ (kept.T @ m[:, j])
            return None, off / np.linalg.norm(off)
    return kept, vals[keep]


def _scaled_pencil(m, b, tol: ToleranceProfile):
    """The pencil (m m*, b) on range(b) as one symmetric matrix, and the map of its eigenvectors.

    Returns ``(pencil, back)``: an eigenvector v of ``pencil`` is ``back @ v`` in ambient
    coordinates. Returns ``(None, f)`` when the columns of m leave the span of b's kept
    eigenvectors, with f the normalized off-span part of the worst column.
    """
    m = as_matrix(m)
    b = as_matrix(b)
    if b.shape != (m.shape[0],) * 2:
        raise ValueError("b must be square with as many rows as m")
    skew = b - b.T
    # an exactly symmetric input passes without the two norms
    if skew.any() and not negligible(spectral_norm(skew), spectral_norm(b), tol):
        raise ValueError("b is not symmetric within tolerance")
    b = 0.5 * (b + b.T)
    vals, vecs = np.linalg.eigh(b)
    a = m @ m.T
    # ||m|| squared is the norm of the symmetric a, which needs no Gram of m;
    # it is computed only when the rank-sized first step fails
    kept, vals = _kept_span(m, vals, vecs, lambda: np.sqrt(spectral_norm(a)), tol)
    if kept is None:
        return None, vals
    # b is diagonal in its kept eigenbasis, so the restricted pencil reduces
    # to an ordinary symmetric eigenproblem after diagonal scaling.
    root = 1.0 / np.sqrt(vals)
    a_restricted = kept.T @ a @ kept
    return root[:, None] * a_restricted * root[None, :], kept * root


def max_rayleigh(m, b, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Supremum of ``<a f, f> / <b f, f>`` with a = m m* over f outside the kernel of b.

    Parameters
    ----------
    m, b : array_like
        The factor of a = m m*, and a symmetric PSD b with as many rows.
    tol : ToleranceProfile
        Rank cutoff for the restriction of the pencil to ``range(b)``, the
        symmetry check on b and the containment of m in ``range(b)``.

    Returns
    -------
    float
        The largest generalized eigenvalue of the pencil restricted to
        ``range(b)``; ``inf`` when the columns of m fail ``outside_column``
        against b's kept eigenvectors (the quotient is then unbounded); 0.0
        in the vacuous case a = b = 0.

    Raises
    ------
    ValueError
        If b is asymmetric beyond tolerance or the shapes differ.
    """
    pencil, _ = _scaled_pencil(m, b, tol)
    if pencil is None:
        return float("inf")
    return max(float(np.linalg.eigvalsh(pencil)[-1]), 0.0) if pencil.size else 0.0


def max_rayleigh_gram(m, g, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """``max_rayleigh(m, b)`` with b = g* g given by its factor g.

    A g wider than tall has rank at most its row count, so b is never
    formed: range(b) and b's eigenvalues there are the left singular
    vectors and squared singular values of the thin SVD of g* (columns x
    rows of g). The rank cutoff, the containment of m and the pencil are
    then decided on that span, as ``max_rayleigh`` decides them on b's
    eigenvectors; the pencil's top value is ||m* U Sigma^-1||**2 over the
    kept factors. Any other g takes the eigendecomposition of b.
    """
    m = as_matrix(m)
    g = as_matrix(g)
    if g.shape[1] != m.shape[0]:
        raise ValueError("g must have as many columns as m has rows")
    if g.shape[0] >= g.shape[1]:
        b = g.T @ g
        return max_rayleigh(m, 0.5 * (b + b.T), tol)
    f = svd(g.T)
    kept, vals = _kept_span(m, f.singular_values**2, f.u, lambda: spectral_norm(m), tol)
    if kept is None:
        return float("inf")
    return spectral_norm((m.T @ kept) / np.sqrt(vals)) ** 2


def rayleigh_maximizer(m, b, tol: ToleranceProfile = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """``max_rayleigh``, from ``eigh`` (so equal up to the last digits), and a unit maximizer.

    An unbounded quotient gives the normalized part of m's worst column off
    range(b); a = b = 0 gives zero.
    """
    pencil, back = _scaled_pencil(m, b, tol)
    if pencil is None:
        return float("inf"), back
    if not pencil.size:
        return 0.0, np.zeros(back.shape[0])
    vals, vecs = np.linalg.eigh(pencil)
    top = back @ vecs[:, -1]
    return max(float(vals[-1]), 0.0), top / np.linalg.norm(top)
