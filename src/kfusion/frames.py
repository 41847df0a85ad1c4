"""Weighted subspace families and K-fusion frame verification.

Subspaces carry orthonormal bases; fusion systems pair them with positive
weights and expose the synthesis, analysis, and frame operators. Frame
conditions are certified with optimal bounds, and the standard constructions
(pseudo-inverse image, inverse-frame-operator image, invertible transforms,
range weakening, K-image) each return a new system with its certificate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from kfusion.numerics import (
    DEFAULT_TOL,
    SPAN_ROUNDING,
    AgreementError,
    Svd,
    ToleranceProfile,
    agreement,
    as_matrix,
    at_most,
    cross_allowance,
    downdated_norm,
    keeps_rank,
    lost_directions,
    max_rayleigh,
    negligible,
    numerical_rank,
    off_span,
    orthonormal_range,
    outside,
    outside_column,
    outside_without,
    rounding_factor,
    row_downdate,
    singular_values,
    span_coordinates,
    spectral_norm,
    svd,
)


@dataclass(frozen=True)
class Subspace:
    """Subspace of R^n stored as a read-only orthonormal column basis.

    The basis is copied on construction, so later changes to the caller's
    array cannot reach the subspace or anything computed from it.

    Orthonormality is checked under ``DEFAULT_TOL``, whatever profile the
    caller uses: every entry of BᵀB − I must be ``negligible`` at scale 0. A
    subspace carries no profile, and every basis the library builds comes
    from ``orthonormal_range``, so the check guards hand-built bases.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = as_matrix(self.basis)
        if basis.shape[0] != self.ambient_dim:
            raise ValueError("basis rows must equal the ambient dimension")
        gram = basis.T @ basis
        gram.flat[:: gram.shape[0] + 1] -= 1.0
        if gram.size and not negligible(np.abs(gram).max(), 0.0, DEFAULT_TOL):
            raise ValueError("basis columns must be orthonormal")
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


@dataclass(frozen=True)
class FusionSystem:
    """Ordered family of (subspace, positive weight) pairs in one ambient space.

    Systems are immutable; each one keeps the analysis of the last
    (K, tolerance) pair it was asked about (see ``frame_analysis``).
    """

    ambient_dim: int
    members: tuple

    def __post_init__(self) -> None:
        members = tuple((sub, float(weight)) for sub, weight in self.members)
        for idx, (sub, weight) in enumerate(members):
            if sub.ambient_dim != self.ambient_dim:
                raise ValueError("all subspaces must share the ambient dimension")
            if not np.isfinite(weight):
                raise ValueError(f"member {idx} has a non-finite weight {weight}")
            if weight <= 0.0:
                raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_analysis", None)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def subspaces(self) -> tuple:
        return tuple(sub for sub, _ in self.members)

    @property
    def weights(self) -> np.ndarray:
        return np.array([weight for _, weight in self.members])

    def dims(self) -> list:
        return [sub.dim for sub, _ in self.members]

    def block_slices(self) -> list:
        slices, start = [], 0
        for d in self.dims():
            slices.append(slice(start, start + d))
            start += d
        return slices

    def drop(self, j: int) -> "FusionSystem":
        if not 0 <= j < len(self):
            raise ValueError("index out of range")
        kept = self.members[:j] + self.members[j + 1 :]
        return FusionSystem(self.ambient_dim, kept)


@dataclass(frozen=True)
class BlockVector:
    """Element of the direct sum of the member subspaces, in coefficients."""

    blocks: tuple

    def __post_init__(self) -> None:
        blocks = tuple(np.asarray(b, dtype=float).reshape(-1) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)

    @property
    def norm_squared(self) -> float:
        return float(sum(b @ b for b in self.blocks))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared))

    def stacked(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros(0)
        return np.concatenate(self.blocks)

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, dims) -> "BlockVector":
        stacked = np.asarray(stacked, dtype=float).reshape(-1)
        if stacked.size != sum(dims):
            raise ValueError("stacked length must equal the total of block dims")
        out, start = [], 0
        for d in dims:
            out.append(stacked[start : start + d])
            start += d
        return cls(tuple(out))


@dataclass(frozen=True)
class FrameBounds:
    """Frame bound pair.

    The lower bound multiplies ``norm(K* f)**2`` while the upper multiplies
    ``norm(f)**2``, so for contractive K the optimal lower bound may
    legitimately exceed the upper one; only nonnegativity is enforced.
    """

    lower: float
    upper: float
    optimal: bool = False

    def __post_init__(self) -> None:
        if self.lower < 0.0 or self.upper < 0.0:
            raise ValueError("frame bounds must be nonnegative")


@dataclass(frozen=True)
class KFrame:
    """Finite family of ambient vectors."""

    ambient_dim: int
    vectors: tuple

    def __post_init__(self) -> None:
        vectors = tuple(np.asarray(v, dtype=float).reshape(-1) for v in self.vectors)
        for v in vectors:
            if v.size != self.ambient_dim:
                raise ValueError("all vectors must live in the ambient space")
            if not np.all(np.isfinite(v)):
                raise ValueError("vector entries must be finite")
        object.__setattr__(self, "vectors", vectors)

    @property
    def matrix(self) -> np.ndarray:
        if not self.vectors:
            return np.zeros((self.ambient_dim, 0))
        return np.column_stack(self.vectors)


@dataclass
class Certificate:
    """Outcome of a verification: pass flag, bounds when meaningful, witness on failure."""

    passed: bool
    bounds: FrameBounds = None
    witness: np.ndarray = None
    message: str = ""
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExactnessReport:
    """Per-index removability of fusion system members."""

    exact: bool
    removable: tuple
    certificates: tuple


def subspace_from_spanning(vectors, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Subspace spanned by the given ambient vectors.

    The dimension is the numerical rank of the stacked spanning set; an
    all-zero set yields the zero subspace (dim 0, flagged by ``is_zero``).
    """
    vectors = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not vectors:
        raise ValueError("spanning set must be nonempty")
    stacked = np.column_stack(vectors)
    return Subspace(stacked.shape[0], orthonormal_range(stacked, tol))


def subspace_from_columns(m, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Column space of a matrix as a Subspace."""
    m = as_matrix(m)
    return Subspace(m.shape[0], orthonormal_range(m, tol))


def map_subspace(m, sub: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Image of a subspace under a matrix."""
    return subspace_from_columns(as_matrix(m) @ sub.basis, tol)


def subspace_contains(outer: Subspace, inner: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Whether ``inner`` lies in ``outer``: no larger, and its basis passes ``outside_column``.

    Raises ValueError when the ambient dimensions differ.
    """
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimensions must match")
    return inner.dim <= outer.dim and outside_column(inner.basis, outer.basis, tol) is None


def same_subspace(a: Subspace, b: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Whether two subspaces are equal: ``subspace_contains(a, b)`` and the same dimension."""
    return subspace_contains(a, b, tol) and a.dim == b.dim


def subspace_intersection(a: Subspace, b: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Intersection of two subspaces, spanned by the directions of the smaller one of least
    principal sine against the other, as many as ``outside`` accepts at c = ||B* A|| (README,
    "Norms"): all of it exactly when ``subspace_contains`` holds. Raises ValueError when the
    ambient dimensions differ."""
    a, b = (a, b) if a.dim <= b.dim else (b, a)
    if subspace_contains(b, a, tol):
        return a
    coords = b.basis.T @ a.basis
    f = svd(a.basis - b.basis @ coords)
    c, squares = spectral_norm(coords), f.singular_values**2
    # the sines descend: keep the longest tail whose root-sum-square is inside
    first = next(i for i in range(1, a.dim + 1) if outside(c, squares[i:], tol) is None)
    return Subspace(a.ambient_dim, a.basis @ f.v[:, first:])


def range_projector(m, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the column space of a matrix."""
    basis = orthonormal_range(m, tol)
    return basis @ basis.T


def synthesis(w: FusionSystem) -> np.ndarray:
    """Synthesis operator: block column matrix with i-th block ``weight_i * basis_i``.

    Applied to stacked direct-sum coefficients it returns the weighted sum
    of the member components; its transpose is the analysis operator.
    """
    blocks = [weight * sub.basis for sub, weight in w.members]
    if not blocks:
        return np.zeros((w.ambient_dim, 0))
    return np.hstack(blocks)


def analysis(w: FusionSystem, f) -> BlockVector:
    """Analysis coefficients: block i holds ``weight_i * basis_i.T @ f``."""
    f = np.asarray(f, dtype=float).reshape(-1)
    return BlockVector(tuple(weight * (sub.basis.T @ f) for sub, weight in w.members))


def frame_operator(w: FusionSystem) -> np.ndarray:
    """Frame operator: weighted sum of member projectors, symmetric PSD."""
    t = synthesis(w)
    return t @ t.T


def _read_only(m):
    """``m`` (an array, or the arrays an Svd or a Pencil holds) made read-only in place."""
    for a in (m,) if isinstance(m, np.ndarray) else vars(m).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return m


def _verdict(k, tol, zero_members, j, ratio=None, pinv_norm=None, upper=None) -> Certificate:
    """The certificate of the frame condition, for every analysis and every drop.

    ``j`` is the range check's column of K, None when K lies in range(T);
    only then are the pencil's ratio, ||pinv(T) K|| and the upper bound read,
    and the two lower bounds must agree by ``numerics.agreement``.
    """
    if zero_members:
        warnings.warn("zero-dimensional members contribute nothing and are skipped")
    if j is not None:
        message = f"range obstruction: column {j} of K leaves the span of the system"
        return Certificate(passed=False, witness=k[:, j].copy(), message=message)
    if np.isinf(ratio):
        return Certificate(passed=False, message="no positive lower bound: the pencil is unbounded")
    lower_pencil = np.inf if ratio == 0.0 else 1.0 / ratio
    lower_pinv = np.inf if pinv_norm == 0.0 else pinv_norm**-2
    gap, allowed = agreement(lower_pencil, lower_pinv, tol)
    if gap > allowed:
        raise AgreementError(
            f"optimal lower bound mismatch: pencil {lower_pencil} vs pinv {lower_pinv},"
            f" gap {gap} exceeds tolerance {allowed}"
        )
    return Certificate(
        passed=True,
        bounds=FrameBounds(lower=lower_pencil, upper=upper, optimal=True),
        details={"lower_via_pencil": lower_pencil, "lower_via_pinv": lower_pinv},
    )


def _ratio(pencil, rank: int) -> float:
    """The pencil's top value for K in range(T); inf if it keeps fewer than ``rank`` directions."""
    return np.inf if pencil.vals.size < rank else pencil.top


class FrameAnalysis:
    """One factorization of a pair (T, K) under tol, shared by every question about it.

    T synthesizes a fusion system, the vectors of a K-frame, or the L2 of a
    Douglas factorization, and K is the operator whose range it must hold.
    The thin SVD of T, truncated at the rank cutoff, gives the range of T,
    the upper bound ``sigma_1**2`` and the pseudo-inverse route to the lower
    bound, ``1 / ||Sigma^-1 U* K||**2``. The pencil ``max_rayleigh(K, T)``
    gives the independent route: the eigenpairs (E, Lambda) of S = T T*
    that its rank cutoff keeps, from the Gram of T's shorter side, and the
    largest generalized eigenvalue of (K K*, S) on their span. Each
    ``AgreementError`` compares those two decompositions. The other pieces
    (the SVD of K, the inverse frame operator on the image of range(K)) are
    computed when first needed. Every piece is a fixed function of
    (T, K, tol), so answers do not depend on which question came first.

    Obtain it through ``of_pair``, or for a system through
    ``frame_analysis``; the arrays it holds are read-only. Neither T nor S
    is kept (``synthesis`` rebuilds T cheaply), which keeps the memoised
    entry small.
    """

    def __init__(
        self, k: np.ndarray, tol: ToleranceProfile, pencil, factors: Svd, cut: float, zero_members
    ):
        # no reference back to the system: the system holds its analysis, and
        # a cycle would keep both alive until the cyclic garbage collector runs
        self.zero_members = zero_members
        self.k = k
        self.tol = tol
        self.pencil = pencil
        self.factors = factors
        # sigma_(r+1), the largest singular value of T the cutoff dropped (0.0 if none)
        self._cut = cut

    @classmethod
    def of_pair(cls, t: np.ndarray, k: np.ndarray, tol: ToleranceProfile, zero_members=0):
        """The analysis of (T, K, tol): T's SVD truncated at the rank cutoff, and the pencil.

        Its certificates warn about ``zero_members``, the empty members of T's system.
        """
        if k.shape[0] != t.shape[0]:
            raise ValueError("K must have as many rows as T: the ambient dimension")
        k = _read_only(k.copy())
        full = svd(t)
        factors, pencil = _read_only(full.truncated(tol)), _read_only(max_rayleigh(k, t, tol))
        cut = float(full.singular_values[factors.singular_values.size :].max(initial=0.0))
        return cls(k, tol, pencil, factors, cut, zero_members)

    @property
    def upper(self) -> float:
        """The optimal upper bound: the largest eigenvalue of S."""
        return self.factors.top**2

    @property
    def lower(self) -> float:
        """The optimal lower bound of a verified pair, the certificate's: 1 / ``pencil_ratio``."""
        return np.inf if self.pencil_ratio == 0.0 else 1.0 / self.pencil_ratio

    @cached_property
    def pencil_ratio(self) -> float:
        """Largest generalized eigenvalue of (K K*, S) on the pencil's span, for K in range(T).

        ``range_obstruction`` decides K's containment; the pencil is unbounded
        only when it keeps fewer directions than the SVD route's rank.
        """
        return _ratio(self.pencil, self.factors.singular_values.size)

    @cached_property
    def _k_span(self):
        """U* K from ``_off_span`` when U is n x r, r < n, and K is in span(U) by the span rule."""
        u = self.factors.u
        return span_coordinates(self.k, *self._off_span) if u.shape[1] < u.shape[0] else None

    @cached_property
    def k_norm(self) -> float:
        return spectral_norm(self.k) if self._k_span is None else self.k_factors.top

    @cached_property
    def k_factors(self):
        """Truncated thin SVD of K (via U* K when ``_k_span``); ``u`` spans range(K)."""
        if self._k_span is None:
            return _read_only(svd(self.k).truncated(self.tol))
        f = svd(self._k_span).truncated(self.tol)
        return _read_only(Svd(self.factors.u @ f.u, f.singular_values, f.v))

    @cached_property
    def image_factors(self):
        """Truncated SVD of S P with P the range projector of K; ``u`` spans S(range K).

        With U_K the basis of range(K), S P = (S U_K) U_K*, so the factors
        come from the thin SVD of the n x rank(K) matrix S U_K = U Sigma W*,
        with v = U_K W; S U_K is read as E Lambda E* U_K from the pencil's
        kept eigenpairs, so neither S nor S P is formed.
        """
        basis, vecs = self.k_factors.u, self.pencil.vecs
        f = svd(vecs @ (self.pencil.vals[:, None] * (vecs.T @ basis))).truncated(self.tol)
        return _read_only(Svd(f.u, f.singular_values, basis @ f.v))

    @cached_property
    def inverse_on_image(self) -> np.ndarray:
        """Pseudo-inverse of S P: the inverse frame operator on the image of range(K)."""
        return _read_only(self.image_factors.pinv())

    @cached_property
    def range_obstruction(self):
        """The range check: the column of K off the span of T, or None, by ``outside``."""
        return outside(self.k_norm, self._off_span[1], self.tol)

    @property
    def pinv_matrix(self) -> np.ndarray:
        """Sigma^-1 U* K, r x cols(K), formed on each read; pinv(T) K = V Sigma^-1 U* K."""
        return self.factors.u.T @ self.k / self.factors.singular_values[:, None]

    @cached_property
    def pinv_norm(self) -> float:
        """||pinv(T) K||, the norm of ``pinv_matrix``."""
        return spectral_norm(self.pinv_matrix)

    @cached_property
    def _lower_factors(self) -> tuple:
        """``rounding_factor`` of Sigma^-1 U* K and of Lambda^-1/2 E* K, for the drops' updates."""
        return rounding_factor(self.pinv_matrix), rounding_factor(self.pencil.scaled.T)

    @cached_property
    def _off_span(self) -> tuple:
        """``off_span(K, U)``: U* K and the squares of each column of K off span(U)."""
        return tuple(_read_only(a) for a in off_span(self.k, self.factors.u))

    def _decision(self) -> tuple:
        """``_verdict``'s (j, ratio, ||pinv(T) K||, upper), or (j,) when K leaves range(T)."""
        j = self.range_obstruction
        return (j,) if j is not None else (None, self.pencil_ratio, self.pinv_norm, self.upper)

    def certificate(self) -> Certificate:
        """A new certificate of the frame condition; callers may write into its details."""
        return _verdict(self.k, self.tol, self.zero_members, *self._decision())

    def require(self) -> "FrameAnalysis":
        """This analysis, or ValueError when the system is not a K-fusion frame."""
        cert = self.certificate()
        if not cert.passed:
            raise ValueError(f"system must be a K-fusion frame: {cert.message}")
        return self

    def drop_certificates(self, t: np.ndarray, slices: list):
        """The certificate of this verified system without each member in turn.

        ``t`` is the synthesis matrix and ``slices`` the members' columns. Each
        equals ``verify_k_fusion`` of the system without that member (``_drop``).
        """
        rows_c = t.T @ (self.pencil.vecs / np.sqrt(self.pencil.vals))
        for rows in slices:
            zeros = self.zero_members - (rows.start == rows.stop)
            yield _verdict(self.k, self.tol, zeros, *self._drop(t, rows_c, rows))

    def _drop(self, t: np.ndarray, rows_c: np.ndarray, rows: slice) -> tuple:
        """``_verdict``'s (j, ratio, ||pinv(T) K||, upper) without the member at ``rows``.

        The member's rows prove lost directions that put K out of range; or
        the rank-d updates of both routes decide, where each provably keeps
        its rank and the parent's pencil floor c eps (sigma_1 / sigma_r)**2
        is within the cross-check allowance; or the drop's own ``of_pair``
        decides, as verifying it would (README, Exactness).
        """
        f, tol = self.factors, self.tol
        h, s, nu = row_downdate(f.v, rows)
        sigma_m = f.singular_values[:, None] * (np.eye(h.shape[0]) + (h * (nu - 1.0)) @ h.T)
        # the drop's sigma_(r+1) is at most the parent's, and its sigma_1 at least ||sigma_m||
        cut_edge = self._cut and keeps_rank(self._cut, spectral_norm(sigma_m), tol)
        lost = None if cut_edge else lost_directions(f.singular_values, h, nu, tol)
        if lost is not None:
            # K is shared, and so is its norm
            j = outside_without(*self._off_span, lost, self.k_norm, tol)
            if j is not None:
                return (j,)
        rank, vals = h.shape[0], self.pencil.vals
        fits = 0 < rank and max(rank, vals.size) <= t.shape[1] - (rows.stop - rows.start)
        floor = SPAN_ROUNDING * (f.top * f.pinv_norm) ** 2
        if fits and not cut_edge and lost is None and floor <= cross_allowance(1.0, tol):
            kept = singular_values(sigma_m)
            if keeps_rank(kept[-1], kept[0], tol):
                hc, sc, nuc = row_downdate(rows_c, rows)
                if keeps_rank(vals[0] * nuc.min(initial=1.0) ** 2, vals[-1], tol):
                    pinv_norm = downdated_norm(self._lower_factors[0], h, s, nu)
                    ratio = downdated_norm(self._lower_factors[1], hc, sc, nuc) ** 2
                    return None, ratio, pinv_norm, float(kept[0]) ** 2
        return FrameAnalysis.of_pair(np.delete(t, rows, axis=1), self.k, tol)._decision()


def frame_analysis(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> FrameAnalysis:
    """The shared analysis of (W, K, tol), memoised on the system: ``of_pair`` of its synthesis.

    A system keeps a single entry, found again by the tolerance and the
    value of K; asking about another pair replaces it.
    """
    k = as_matrix(k)
    analysis = w._analysis
    if analysis is None or analysis.tol != tol or not np.array_equal(analysis.k, k):
        zeros = sum(sub.is_zero for sub, _ in w.members)
        analysis = FrameAnalysis.of_pair(synthesis(w), k, tol, zeros)
        object.__setattr__(w, "_analysis", analysis)
    return analysis


def verify_k_fusion(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> Certificate:
    """Certify the K-fusion frame condition with optimal bounds.

    Parameters
    ----------
    w : FusionSystem
        Candidate system.
    k : array_like
        Matrix with ``w.ambient_dim`` rows.
    tol : ToleranceProfile
        Tolerance policy.

    Returns
    -------
    Certificate
        A new certificate on every call. On success, optimal bounds: upper
        is the frame operator norm, lower is the reciprocal of the largest
        Rayleigh quotient of K K* against the frame operator, cross-checked
        against the reciprocal squared norm of ``pinv(T_W) @ K``. On a
        range obstruction, a witness vector in the range of K that leaves
        the span of the system; an unbounded pencil has no witness. The
        lower bound is ``inf`` when K = 0 (every positive constant works
        vacuously).

    Raises
    ------
    AgreementError
        If the two lower-bound computations disagree by ``numerics.agreement``.
    """
    return frame_analysis(w, k, tol).certificate()


def is_minimal(w: FusionSystem, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True when each member meets the span of the others only at zero.

    That holds exactly when the sum of the members is direct: when the
    bases side by side have rank sum(d_i).
    """
    bases = [sub.basis for sub, _ in w.members]
    return not bases or numerical_rank(np.hstack(bases), tol) == sum(w.dims())


def is_exact(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> ExactnessReport:
    """Removability of each member, given that the full system verifies.

    Member j's certificate is that of ``verify_k_fusion(w.drop(j), k, tol)``,
    zero-member warnings included. The shared analysis decides it where that
    provably gives the same answer: a range obstruction the member's rows
    prove, or the rank-d update of T's SVD and pencil where both keep their
    rank and the parent's pencil is accurate to the cross-check allowance.
    The drop's own analysis decides the rest (README, Exactness).
    """
    analysis = frame_analysis(w, k, tol).require()
    certificates = tuple(analysis.drop_certificates(synthesis(w), w.block_slices()))
    removable = tuple(cert.passed for cert in certificates)
    return ExactnessReport(exact=not any(removable), removable=removable, certificates=certificates)


def transform_kdag(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL):
    """Image system under the pseudo-inverse of K, certified on the row space of K.

    Members are the pseudo-inverse images of the originals with unchanged
    weights, so they lie in the row space of K. Their fusion frame bounds
    there are the K-fusion bounds against B, the orthonormal basis of that
    row space from K's truncated SVD: the certificate is
    ``verify_k_fusion(image, B)``, whose range obstruction names a column
    of B (finite families are automatically Bessel, so no separate
    hypothesis check is needed).
    """
    k = as_matrix(k)
    if k.shape[0] != w.ambient_dim:
        raise ValueError("K must have ambient_dim rows")
    f = svd(k).truncated(tol)
    if not f.singular_values.size:
        raise ValueError("K must be nonzero")
    kd = f.pinv()
    members = tuple((map_subspace(kd, sub, tol), weight) for sub, weight in w.members)
    image = FusionSystem(kd.shape[0], members)
    return image, verify_k_fusion(image, f.v, tol)


def transform_sinv(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL):
    """Image system under the inverse frame operator composed with projection.

    Applies ``pinv(S_W @ P)`` to each member, where P projects onto the
    range of K; this is the matrix realization of inverting the frame
    operator on the image of that range. The members then lie in the range
    of K, and the certificate is ``verify_k_fusion(image, B)`` with B the
    basis ``k_factors.u`` of that range from W's analysis; its range
    obstruction names a column of B.
    """
    analysis = frame_analysis(w, k, tol).require()
    inv_on_image = analysis.inverse_on_image
    members = tuple((map_subspace(inv_on_image, sub, tol), weight) for sub, weight in w.members)
    image = FusionSystem(w.ambient_dim, members)
    return image, verify_k_fusion(image, analysis.k_factors.u, tol)


def transform_q(w: FusionSystem, q, k, tol: ToleranceProfile = DEFAULT_TOL):
    """Image system under an invertible matrix, certified against Q K.

    When Q commutes with K (the commutator is ``negligible`` at scale 0) the
    certificate also carries a K-fusion verification of the transformed
    system under ``k_fusion`` in its details.
    """
    q = as_matrix(q)
    k = as_matrix(k)
    n = w.ambient_dim
    if q.shape != (n, n):
        raise ValueError("Q must be square of the ambient dimension")
    if numerical_rank(q, tol) < n:
        raise ValueError("Q must be invertible")
    members = tuple((map_subspace(q, sub, tol), weight) for sub, weight in w.members)
    image = FusionSystem(n, members)
    cert = verify_k_fusion(image, q @ k, tol)
    if negligible(spectral_norm(k @ q - q @ k), 0.0, tol):
        cert.details["k_fusion"] = verify_k_fusion(image, k, tol)
    return image, cert


def weaken_to_q(w: FusionSystem, k, q, tol: ToleranceProfile = DEFAULT_TOL) -> Certificate:
    """Certify the system against a weaker operator with included range.

    Requires the range of Q inside the range of K; the certified lower
    bound must dominate ``A / lambda**2`` where A is the optimal K-fusion
    lower bound and lambda**2 the largest Rayleigh quotient of Q Q*
    against K K*, the ``pencil_ratio`` of the pair (K, Q) after its range check.
    """
    k = as_matrix(k)
    q = as_matrix(q)
    if k.shape[0] != w.ambient_dim or q.shape[0] != w.ambient_dim:
        raise ValueError("K and Q must have ambient_dim rows")
    pair = FrameAnalysis.of_pair(k, q, tol)
    j = pair.range_obstruction
    if j is not None:
        return Certificate(
            passed=False,
            witness=q[:, j].copy(),
            message=f"range obstruction: column {j} of Q leaves the range of K",
        )
    base = verify_k_fusion(w, k, tol)
    if not base.passed:
        return Certificate(passed=False, message=f"not a K-fusion frame: {base.message}")
    lam_sq = pair.pencil_ratio
    guaranteed = np.inf if lam_sq == 0.0 else base.bounds.lower / lam_sq
    qcert = verify_k_fusion(w, q, tol)
    if not qcert.passed:
        return Certificate(passed=False, witness=qcert.witness, message=qcert.message)
    return Certificate(
        passed=at_most(guaranteed, qcert.bounds.lower, tol),
        bounds=qcert.bounds,
        details={"lambda_squared": lam_sq, "guaranteed_lower": guaranteed},
    )


def k_image_frame(
    wrel: FusionSystem,
    k,
    tol: ToleranceProfile = DEFAULT_TOL,
    intersect_first: bool = False,
):
    """K-image of a fusion frame of the row space of K, with K-fusion certificate.

    With ``intersect_first`` the members are first replaced by their
    intersections with the row space, so any fusion frame of the whole
    space can be fed in. The input is a fusion frame of the row space when
    it passes ``verify_k_fusion`` against B, the row space's orthonormal
    basis; that certificate's bounds are the details' ``input_bounds``.
    """
    k = as_matrix(k)
    if k.shape[0] != wrel.ambient_dim:
        raise ValueError("K must have ambient_dim rows")
    row_space = subspace_from_columns(k.T, tol)
    if intersect_first:
        members = tuple(
            (subspace_intersection(sub, row_space, tol), weight) for sub, weight in wrel.members
        )
        base = FusionSystem(wrel.ambient_dim, members)
    else:
        base = wrel
        for idx, (sub, _) in enumerate(base.members):
            if outside_column(sub.basis, row_space.basis, tol) is not None:
                raise ValueError(f"member {idx} leaves the row space of K")
    base_cert = verify_k_fusion(base, row_space.basis, tol)
    if not base_cert.passed:
        raise ValueError("input system is not a fusion frame for the row space of K")
    members = tuple((map_subspace(k, sub, tol), weight) for sub, weight in base.members)
    image = FusionSystem(k.shape[0], members)
    cert = verify_k_fusion(image, k, tol)
    cert.details["input_bounds"] = base_cert.bounds
    return image, cert


def verify_k_frame(f: KFrame, k, tol: ToleranceProfile = DEFAULT_TOL) -> Certificate:
    """Certify the discrete K-frame condition with optimal bounds: the pair (family matrix, K)."""
    return FrameAnalysis.of_pair(f.matrix, as_matrix(k), tol).certificate()
