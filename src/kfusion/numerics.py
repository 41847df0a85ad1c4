"""Dense-matrix kernel: SVD, rank, pseudo-inverse, eigenvalues, norms, PSD pencil maxima.

Every other module routes its linear algebra through here so that rank
decisions happen once, at SVD truncation, under a single tolerance policy:
``keeps_rank`` is the one cutoff, read by ``Svd.truncated`` (and so by
``orthonormal_range`` and ``pinv``), ``numerical_rank`` and ``max_rayleigh``,
and ``Svd.pinv`` is the one pseudo-inverse of truncated factors. Every pencil
goes through ``max_rayleigh``, which takes the factor g of its right side
b = g g* and decomposes the Gram of g's shorter side, the rule
``spectral_norm`` follows too. Every other comparison with the tolerance
goes through one of three rules here: ``negligible`` (a residual counts as
zero), ``outside`` (columns lie in a span, judged by ``negligible`` at a
scale the containment step computes itself; ``outside_column`` against a
basis, ``outside_without`` for a span less some of its directions) and
``agreement`` / ``at_most`` (two computations of one number).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        containment rule (``outside``).
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


def off_span(m: np.ndarray, basis: np.ndarray) -> tuple:
    """(B* m, the squared norm of each column of (I - B B*) m), for B = ``basis``."""
    coords = basis.T @ m
    # in place: m can be far wider than it is tall
    off = basis @ coords
    off -= m
    off *= off
    return coords, off.sum(axis=0)


def outside(c: float, squares: np.ndarray, tol: ToleranceProfile):
    """The containment rule: None when the columns of m lie in span(B), else the worst column.

    ``squares`` come from ``off_span(m, B)``, and ``c`` is any value between
    ||B* m|| and ||m||. The residual r = ||(I - B B*) m||_F is ``negligible``
    at s = hypot(c, r), and ||m|| <= s <= hypot(||m||, r), with s = ||m|| for
    one column: the decision is the one at ||m|| but in a band of eq_abs
    times at most min(r, r**2 / 2 ||m||).
    """
    residual = float(np.sqrt(squares.sum()))
    inside = negligible(residual, float(np.hypot(c, residual)), tol)
    return None if inside else int(np.argmax(squares))


def outside_column(m: np.ndarray, basis: np.ndarray, tol: ToleranceProfile):
    """``outside`` for the columns of m against span(basis), at c = ||B* m||, a rank-sized norm.

    ``basis`` has orthonormal columns; a full-width basis contains everything.
    """
    if basis.shape[1] == m.shape[0]:
        return None
    coords, squares = off_span(m, basis)
    return outside(spectral_norm(coords), squares, tol)


# c eps of the span rule, c = 64 units of rounding: it picks an algorithm,
# never an answer, so it is not part of the ToleranceProfile
SPAN_ROUNDING = 64 * np.finfo(float).eps


def span_coordinates(m: np.ndarray, coords: np.ndarray, squares: np.ndarray):
    """``coords`` when ``(coords, squares) = off_span(m, Q)`` puts m in span(Q) to c eps ||m||_F."""
    return coords if np.sqrt(squares.sum()) <= SPAN_ROUNDING * np.linalg.norm(m) else None


def residual_matrix(l: np.ndarray, r: np.ndarray, k: np.ndarray) -> np.ndarray:
    """L R - K, or R_L R - Q* K (same norm to rounding) when L = Q R_L is tall and K in span(Q)."""
    if l.shape[0] > l.shape[1]:
        q, r_l = np.linalg.qr(l)
        coords = span_coordinates(k, *off_span(k, q))
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
        """The factors ``keeps_rank`` keeps; their width is the numerical rank.

        Dropped columns are not kept alive: the kept ones are copied out.
        """
        s = self.singular_values
        rank = int(np.count_nonzero(keeps_rank(s, self.top, tol)))
        if rank == s.size:
            return self
        return Svd(self.u[:, :rank].copy(), s[:rank].copy(), self.v[:, :rank].copy())

    def pinv(self) -> np.ndarray:
        """V diag(1/s) U*, the pseudo-inverse of truncated factors; a subnormal s is zeroed.

        Its reciprocal can overflow however the matrix is scaled.
        """
        s = self.singular_values
        rank = int(np.count_nonzero(s >= np.finfo(float).tiny))
        return (self.v[:, :rank] / s[:rank]) @ self.u[:, :rank].T


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


def singular_values(m) -> np.ndarray:
    """Singular values, sorted nonincreasing, without the factors."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def keeps_rank(low, top, tol: ToleranceProfile):
    """The rank cutoff: ``low`` is kept beside the largest value ``top`` when low > rank_rel top.

    A negative ``top`` counts as 0. Elementwise on arrays; a bool for scalars.
    """
    kept = np.greater(low, tol.rank_rel * np.maximum(top, 0.0))
    return kept if isinstance(kept, np.ndarray) else bool(kept)


def numerical_rank(m, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Number of singular values ``keeps_rank`` keeps beside the largest one.

    The zero matrix (and any empty matrix) has rank 0.
    """
    s = singular_values(m)
    return int(np.count_nonzero(keeps_rank(s, s.max(initial=0.0), tol)))


def pinv(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD truncated at the numerical rank.

    Parameters
    ----------
    m : array_like
        Real matrix.
    tol : ToleranceProfile
        Supplies the ``keeps_rank`` cutoff; singular values it drops are
        zeroed, not inverted, and so are subnormal ones (``Svd.pinv``).

    Returns
    -------
    numpy.ndarray
        Matrix satisfying all four Penrose identities to working precision.
    """
    return svd(m).truncated(tol).pinv()


def symmetric_eigenvalues(m) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric part ``(m + m.T) / 2`` of a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def spectral_norm(m) -> float:
    """Largest singular value; zero for empty and zero matrices.

    Computed without an SVD. The input is first scaled by its largest
    absolute entry, so nothing below can overflow or underflow. The norm
    is the square root of the top eigenvalue of the Gram matrix of the
    shorter side, accurate to a few ulps relative. Rank decisions do not
    come from here: a Gram squares the small singular values they read,
    so they keep the SVD.
    """
    m = as_matrix(m)
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        return 0.0
    m = m / scale
    rows, cols = m.shape
    gram = m.T @ m if cols <= rows else m @ m.T
    return scale * max(float(symmetric_eigenvalues(gram)[-1]), 0.0) ** 0.5


def orthonormal_range(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, as columns.

    One SVD, one rank decision; downstream code never re-thresholds.
    """
    return svd(m).truncated(tol).u


@dataclass(frozen=True, eq=False)
class Pencil:
    """The pencil (m m*, g g*) on the eigenpairs (E, Lambda) of g g* that the rank cutoff keeps.

    ``vecs`` (E) has orthonormal columns and ``vals`` (Lambda) is ascending.
    ``value`` is the supremum of <m m* f, f> / <g g* f, f> over f outside
    the kernel of g g*: inf when the columns of m fail ``outside_column``
    against E, else ``top``; 0.0 in the vacuous case m = g = 0. The
    containment, ``m_scale`` and ``maximizer`` are computed on first read.
    """

    m: np.ndarray
    vecs: np.ndarray
    vals: np.ndarray
    tol: ToleranceProfile

    @cached_property
    def scaled(self) -> np.ndarray:
        """m* E Lambda^-1/2: on span(E) the pencil is the ordinary one of its Gram."""
        return self.m.T @ self.vecs / np.sqrt(self.vals)

    @cached_property
    def top(self) -> float:
        """Top generalized eigenvalue on span(E): ||m* E Lambda^-1/2||**2, m's part off it aside."""
        return spectral_norm(self.scaled) ** 2

    @cached_property
    def _step(self):
        """``outside_column``'s step on E: (||E* m||, squares), or None; kept for ``m_scale``."""
        if self.vecs.shape[1] == self.m.shape[0]:
            return None
        coords, squares = off_span(self.m, self.vecs)
        return spectral_norm(coords), squares

    @cached_property
    def m_scale(self) -> float:
        """hypot(||E* m||, ||(I - E E*) m||_F) >= ||m||, the ``outside`` scale; ||m|| if E = I."""
        if self._step is None:
            return spectral_norm(self.m)
        return float(np.hypot(self._step[0], np.sqrt(self._step[1].sum())))

    @cached_property
    def _off(self):
        """None when the columns of m lie in span(E), else the unit off-span part of the worst."""
        j = None if self._step is None else outside(*self._step, self.tol)
        if j is None:
            return None
        off = self.m[:, j] - self.vecs @ (self.vecs.T @ self.m[:, j])
        return off / np.linalg.norm(off)

    @property
    def value(self) -> float:
        return np.inf if self._off is not None else self.top

    @cached_property
    def maximizer(self) -> np.ndarray:
        """A unit f attaining ``value``: the off-span part when it is inf, zero when E is empty."""
        if self._off is not None:
            return self._off
        if not self.vals.size:
            return np.zeros(self.m.shape[0])
        top = np.linalg.eigh(self.scaled.T @ self.scaled)[1][:, -1]
        top = (self.vecs / np.sqrt(self.vals)) @ top
        return top / np.linalg.norm(top)


def max_rayleigh(m, g, tol: ToleranceProfile = DEFAULT_TOL) -> Pencil:
    """The pencil (a, b) = (m m*, g g*), from the factors of both sides.

    Parameters
    ----------
    m, g : array_like
        The factors of a = m m* and of the PSD b = g g*, with as many rows.
    tol : ToleranceProfile
        Rank cutoff of b's eigenvalues (those above ``rank_rel`` times the
        largest are kept) and the containment of m in their span.

    Returns
    -------
    Pencil
        Its ``value`` is the largest generalized eigenvalue of the pencil
        restricted to ``range(b)``; ``inf`` when the columns of m leave the
        kept eigenvectors; 0.0 in the vacuous case a = b = 0.

    Raises
    ------
    ValueError
        If m and g have different row counts.
    """
    m, g = as_matrix(m), as_matrix(g)
    if g.shape[0] != m.shape[0]:
        raise ValueError("g must have as many rows as m")
    # the Gram of the shorter side: a tall g = Q R has g g* = Q (R R*) Q*
    q = None
    if g.shape[0] > g.shape[1]:
        q, g = np.linalg.qr(g)
    vals, vecs = np.linalg.eigh(g @ g.T)
    keep = keeps_rank(vals, vals.max(initial=0.0), tol)
    vecs = vecs[:, keep] if q is None else q @ vecs[:, keep]
    return Pencil(m, vecs, vals[keep], tol)


def rounding_factor(m) -> np.ndarray:
    """U diag(s) from the SVD m = U diag(s) W*, less s <= c eps s_1: ||X m|| = ||X U diag(s)||."""
    f = svd(m)
    keep = f.singular_values > SPAN_ROUNDING * f.top
    return f.u[:, keep] * f.singular_values[keep]


def row_downdate(q: np.ndarray, rows: slice) -> tuple:
    """(h, s, nu): the right singular pairs of q[rows], and nu_i = ||q_others h_i||.

    nu comes from the other rows, not as sqrt(1 - s**2), so values near zero stay accurate.
    """
    f = svd(q[rows])
    part = q @ f.v
    before, after = (np.linalg.norm(p, axis=0) for p in (part[: rows.start], part[rows.stop :]))
    return f.v, f.singular_values, np.hypot(before, after)


def lost_directions(sigma: np.ndarray, h: np.ndarray, nu: np.ndarray, tol: ToleranceProfile):
    """Q factor N of Sigma^-1 h_L when the rank cutoff on diag(sigma) M provably drops just h_L.

    ``sigma`` holds the r kept singular values of T, ``(h, _, nu)`` come from
    ``row_downdate``, M = I - h h* + h diag(nu) h*, and h_L are the columns
    with nu <= c eps. The truncated SVD of Sigma M then keeps r - len(h_L)
    values, and its left factors span the complement of N, to rounding.
    None when the Weyl and interlacing bounds on those values (README,
    Exactness) do not clear the cutoff by c eps sigma_1.
    """
    lost = nu <= SPAN_ROUNDING
    if not lost.any() or h.shape[1] >= sigma.size:
        return None
    margin = SPAN_ROUNDING * sigma[0]
    small = sigma[0] * float(nu[lost].max())
    large = sigma[-1] * float(nu[~lost].min(initial=1.0)) - small
    # a lost value may reach the cutoff's lower end, rank_rel sigma_(1+k), k the columns of h
    if keeps_rank(small + margin, sigma[h.shape[1]], tol):
        return None
    # a kept value may fall to its upper end, rank_rel sigma_1
    if not keeps_rank(large - margin, sigma[0], tol):
        return None
    return np.linalg.qr(h[:, lost] / sigma[:, None])[0]


def outside_without(coords: np.ndarray, squares: np.ndarray, lost: np.ndarray, c: float, tol):
    """``outside`` for m against span(U Q), Q an orthonormal basis of the complement of ``lost``.

    ``(coords, squares)`` is ``off_span(m, U)``, ``lost`` has orthonormal
    columns, and ``c`` lies between ||U* m|| >= ||(U Q)* m|| and ||m||. The
    residual off span(U Q) adds ||lost* U* m||**2 to each column's squares
    off span(U), so Q is never formed.
    """
    extra = lost.T @ coords
    return outside(c, squares + (extra * extra).sum(axis=0), tol)


def downdated_norm(g: np.ndarray, h: np.ndarray, s: np.ndarray, nu: np.ndarray) -> float:
    """||M^-1 g|| for M = I - h h* + h diag(nu) h*, s**2 + nu**2 = 1: M^-2 = I + h (s/nu)**2 h*."""
    return spectral_norm(np.vstack([g, (s / nu)[:, None] * (h.T @ g)]))
