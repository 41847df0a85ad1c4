"""Dual systems for K-fusion frames.

Covers coefficient-operator duals (an operator Q between direct-sum
coefficient spaces making synthesis-analysis composition reproduce K),
projection-composed K-duals, the canonical K-dual and its enlargements, the
characterization theorems that pin duals down, and the discrete local-frame
correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from kfusion.factorization import DouglasSolution, solution_matrix, x_w
from kfusion.frames import (
    BlockVector,
    Certificate,
    FusionSystem,
    KFrame,
    Subspace,
    frame_analysis,
    frame_operator,
    is_minimal,
    orthogonal_complement,
    range_projector,
    same_subspace,
    subspace_contains,
    subspace_from_columns,
    subspace_intersection,
    synthesis,
    verify_k_frame,
    verify_k_fusion,
)
from kfusion.numerics import (
    DEFAULT_TOL,
    AgreementError,
    ToleranceProfile,
    as_matrix,
    at_most,
    negligible,
    numerical_rank,
    outside_column,
    pinv,
    residual_matrix,
    spectral_norm,
    symmetric_eigenvalues,
)


def _block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of 2-D blocks; a block with no rows or no columns keeps its place."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


@dataclass(frozen=True)
class PhiOperator:
    """Block-diagonal map from dual-system coefficients to base-system coefficients.

    Block i carries the i-th dual component through the adjoint of the
    inverse frame operator composed with K, then projects into member i.
    """

    blocks: tuple

    def matrix(self) -> np.ndarray:
        return _block_diag(self.blocks)

    def apply(self, bv: BlockVector) -> BlockVector:
        return BlockVector(tuple(b @ c for b, c in zip(self.blocks, bv.blocks)))


@dataclass
class DualCertificate:
    """Reconstruction certificate for a candidate dual system.

    ``kind`` is one of "QK", "K", "approximate"; exact kinds pass when the
    residual is ``negligible`` at the scale of K, the approximate kind
    passes strictly below one.
    """

    kind: str
    residual: float
    passed: bool
    operator_q: np.ndarray = None
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LocalFrameSystem:
    """Fusion system with a finite spanning frame inside each member."""

    fusion: FusionSystem
    local_frames: tuple
    local_bounds: tuple


def local_frame_system(
    fusion: FusionSystem, families, tol: ToleranceProfile = DEFAULT_TOL
) -> LocalFrameSystem:
    """Bundle per-member local frames, validating membership and spanning."""
    if len(families) != len(fusion):
        raise ValueError("one local frame per member is required")
    frames, bounds = [], []
    for idx, ((sub, _), vectors) in enumerate(zip(fusion.members, families)):
        if sub.is_zero:
            raise ValueError(f"member {idx} is zero-dimensional and has no local frame")
        frame = KFrame(fusion.ambient_dim, tuple(vectors))
        mat = frame.matrix
        if mat.shape[1] == 0 or outside_column(mat, sub.basis, tol) is not None:
            raise ValueError(f"local frame {idx} does not lie inside its subspace")
        if numerical_rank(mat, tol) < sub.dim:
            raise ValueError(f"local frame {idx} fails to span its subspace")
        gram = sub.basis.T @ (mat @ mat.T) @ sub.basis
        vals = symmetric_eigenvalues(gram)
        frames.append(frame)
        bounds.append((max(float(vals[0]), 0.0), max(float(vals[-1]), 0.0)))
    return LocalFrameSystem(fusion=fusion, local_frames=tuple(frames), local_bounds=tuple(bounds))


def _canonical_local_duals(frame_matrix: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    # dual of each column inside the span: invert the local frame operator there
    s_local = frame_matrix @ frame_matrix.T
    return pinv(s_local, tol) @ frame_matrix


def inverse_on_image(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Matrix realization of the inverse frame operator on the image of range(K).

    The frame operator maps range(K) bijectively onto its image; the
    pseudo-inverse of the operator restricted there (zero elsewhere) is the
    pseudo-inverse of ``S_W @ P`` with P the range projector of K. The
    matrix is a copy of the one cached in the shared analysis of (W, K, tol).
    """
    return frame_analysis(w, k, tol).inverse_on_image.copy()


def phi_operator(
    w: FusionSystem, v: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL
) -> PhiOperator:
    """Coefficient realization of the member-wise dual-to-base transfer map."""
    if len(v) != len(w):
        raise ValueError("systems must have the same member count")
    k = as_matrix(k)
    carrier = frame_analysis(w, k, tol).inverse_on_image.T @ k
    blocks = tuple(
        w_sub.basis.T @ carrier @ v_sub.basis
        for (w_sub, _), (v_sub, _) in zip(w.members, v.members)
    )
    return PhiOperator(blocks=blocks)


def is_qk_dual(
    w: FusionSystem, v: FusionSystem, q, k, tol: ToleranceProfile = DEFAULT_TOL
) -> DualCertificate:
    """Certify that V with coefficient operator Q reproduces K through W.

    Parameters
    ----------
    w, v : FusionSystem
        Base system and candidate dual.
    q : array_like
        Matrix from the direct-sum coefficients of W to those of V.
    k : array_like
        Target operator.

    Returns
    -------
    DualCertificate
        Residual of ``T_W @ Q.T @ T_V.T - K``. On a passing certificate the
        details report the optimal bounds of V against the adjoint of K
        together with the two lower-bound inequalities those must satisfy.
    """
    q = as_matrix(q)
    k = as_matrix(k)
    return _qk_certificate(w, v, q, k, spectral_norm(k), q, tol)


def _qk_certificate(w, v, q, k, k_norm, q_like, tol) -> DualCertificate:
    """``is_qk_dual`` given ||K||, and ``q_like`` with the norm of Q, taken only on a pass."""
    t_w = synthesis(w)
    t_v = synthesis(v)
    if q.shape != (t_v.shape[1], t_w.shape[1]):
        raise ValueError("Q must map W coefficients to V coefficients")
    residual = spectral_norm(residual_matrix(t_w @ q.T, t_v.T, k))
    cert = DualCertificate(
        kind="QK",
        residual=residual,
        passed=negligible(residual, k_norm, tol),
        operator_q=q,
    )
    if not cert.passed:
        return cert
    adjoint_cert = verify_k_fusion(v, k.T, tol)
    cert.details["adjoint_frame"] = adjoint_cert
    base = verify_k_fusion(w, k, tol)
    q_norm = spectral_norm(q_like)
    if adjoint_cert.passed and base.passed and q_norm > 0.0:
        inv_qn = q_norm**-2
        c_floor = inv_qn / base.bounds.upper if base.bounds.upper > 0.0 else np.inf
        d_floor = 0.0 if np.isinf(base.bounds.lower) else inv_qn / base.bounds.lower
        cert.details["lower_bound_floor"] = c_floor
        cert.details["upper_bound_floor"] = d_floor
        cert.details["lower_bound_ok"] = at_most(c_floor, adjoint_cert.bounds.lower, tol)
        cert.details["upper_bound_ok"] = at_most(d_floor, adjoint_cert.bounds.upper, tol)
    return cert


def qk_dual_from_x(
    w: FusionSystem, k, x: DouglasSolution, tol: ToleranceProfile = DEFAULT_TOL
):
    """Dual system generated by a solution of ``T_W @ x = K``.

    Member i of the dual is the row space of the i-th coefficient block of
    the solution (the ambient image of member i under the adjoint of the
    i-th component map). The coefficient operator extends the solution
    through the dual's analysis by zero on the orthogonal complement.

    Returns (dual system, Q, certificate).
    """
    k = as_matrix(k)
    x_mat = solution_matrix(w, k, x, tol)
    members = tuple(
        (subspace_from_columns(x_mat[sl, :].T, tol), weight)
        for (_, weight), sl in zip(w.members, w.block_slices())
    )
    dual = FusionSystem(w.ambient_dim, members)
    # pinv(T_V*) = U Sigma^-1 V* from the analysis the adjoint certificate reads
    f = frame_analysis(dual, k.T, tol).factors
    x_scaled = x_mat @ (f.u / f.singular_values)
    q = (x_scaled @ f.v.T).T
    # ||K|| from the analysis solution_matrix read; ||Q|| = ||X U Sigma^-1||,
    # since V has orthonormal columns
    k_norm = frame_analysis(w, k, tol).k_norm
    cert = _qk_certificate(w, dual, q, k, k_norm, x_scaled, tol)
    return dual, q, cert


def _k_dual_factors(w: FusionSystem, v: FusionSystem, k: np.ndarray, tol: ToleranceProfile):
    """(U_K, M, phi) with U_K M = P_K T_W phi T_V*, the reconstruction operator of the pair."""
    phi = phi_operator(w, v, k, tol)
    u_k = frame_analysis(w, k, tol).k_factors.u
    # U_K* T_W @ phi.matrix() @ T_V.T, one diagonal block at a time
    m = sum(
        (
            (w_weight * (u_k.T @ w_sub.basis)) @ block @ (v_weight * v_sub.basis).T
            for (w_sub, w_weight), (v_sub, v_weight), block in zip(w.members, v.members, phi.blocks)
        ),
        np.zeros((u_k.shape[1], v.ambient_dim)),
    )
    return u_k, m, phi


def k_dual_reconstruction(
    w: FusionSystem, v: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL
):
    """Reconstruction operator of a candidate K-dual pair, with its transfer map."""
    u_k, m, phi = _k_dual_factors(w, v, as_matrix(k), tol)
    return u_k @ m, phi


def is_k_dual(
    w: FusionSystem, v: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL
) -> DualCertificate:
    """Certify the projection-composed duality of V against W for K.

    V's weights are its own free data; nothing ties them to W's weights.
    """
    if len(v) != len(w):
        raise ValueError("systems must have the same member count")
    k = as_matrix(k)
    u_k, m, phi = _k_dual_factors(w, v, k, tol)
    residual = spectral_norm(residual_matrix(u_k, m, k))
    return DualCertificate(
        kind="K",
        residual=residual,
        # the reconstruction read the analysis of (W, K, tol), which holds ||K||
        passed=negligible(residual, frame_analysis(w, k, tol).k_norm, tol),
        details={"phi": phi},
    )


def canonical_k_dual(w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL):
    """Canonical K-dual with certificate and Bessel bound report.

    Member i is the image of member i under the adjoint of K composed with
    the inverse frame operator on the image of range(K); weights are
    inherited. The report compares the dual's Bessel bound against the
    product estimate built from the projected family's Bessel bound and the
    norms of K, its pseudo-inverse, the frame operator, and its inverse on
    the image.
    """
    k = as_matrix(k)
    analysis = frame_analysis(w, k, tol).require()
    inv_img = analysis.inverse_on_image
    carrier = k.T @ inv_img
    members = tuple(
        (subspace_from_columns(carrier @ sub.basis, tol), weight)
        for sub, weight in w.members
    )
    dual = FusionSystem(w.ambient_dim, members)
    cert = is_k_dual(w, dual, k, tol)
    image = analysis.image_factors
    u = image.u
    if u.shape[1] == u.shape[0]:
        # S(range K) is all of R^n, so P = u u* = I: the projected family is W
        projected_bessel = analysis.upper
    else:
        projected = tuple(
            (subspace_from_columns(u @ (u.T @ sub.basis), tol), weight) for sub, weight in w.members
        )
        projected_bessel = spectral_norm(synthesis(FusionSystem(w.ambient_dim, projected))) ** 2
    # ||T T*|| = ||T||**2, and spectral_norm decomposes the Gram of T's shorter side
    bessel = spectral_norm(synthesis(dual)) ** 2
    estimate = (
        projected_bessel
        * analysis.k_norm**2
        * analysis.k_factors.pinv_norm**2
        * analysis.upper**2
        * image.pinv_norm**2
    )
    report = {
        "bessel_bound": bessel,
        "bessel_estimate": estimate,
        "within_estimate": at_most(bessel, estimate, tol),
    }
    return dual, cert, report


def enlarge_dual(
    w: FusionSystem,
    k,
    base: FusionSystem,
    j: int,
    u_j: Subspace,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Extend member j of a canonical dual by an orthogonal summand.

    The reconstruction residual is preserved exactly: the added directions
    are orthogonal to the canonical member, so the extra projection terms
    cancel in the telescoping sum.
    """
    k = as_matrix(k)
    if not 0 <= j < len(base):
        raise ValueError("index out of range")
    tilde_j = base.members[j][0]
    if u_j.ambient_dim != base.ambient_dim:
        raise ValueError("summand must live in the ambient space")
    if not u_j.is_zero:
        overlap = spectral_norm(tilde_j.basis.T @ u_j.basis)
        if not negligible(overlap, 0.0, tol):
            raise ValueError("summand must be orthogonal to the member it extends")
    enlarged = subspace_from_columns(np.hstack([tilde_j.basis, u_j.basis]), tol)
    members = list(base.members)
    members[j] = (enlarged, base.members[j][1])
    v = FusionSystem(base.ambient_dim, tuple(members))
    cert = is_k_dual(w, v, k, tol)
    return v, cert


@dataclass(frozen=True)
class SwsReport:
    """Both sides of the canonical-dual / solution-component equivalence."""

    range_condition: bool
    operator_equality: bool
    families_equal: bool
    member_equal: tuple


def check_sws_range_condition(
    w: FusionSystem, k, tol: ToleranceProfile = DEFAULT_TOL
) -> SwsReport:
    """Test whether twice applying the frame operator keeps range(K) inside itself.

    The condition holds exactly when the distinguished solution coincides,
    component by component, with the analysis of the adjoint inverse frame
    operator composed with K; that equality is computed independently and
    the biconditional asserted. The member-wise subspace comparison between
    the canonical dual and the solution row spaces is also reported. It
    follows from operator equality, but it can hold on its own for
    degenerate targets (a rank-one K collapses every member into a single
    line), so only the implied direction is asserted.
    """
    k = as_matrix(k)
    s_w = frame_operator(w)
    k_range = subspace_from_columns(k, tol)
    doubled = s_w @ (s_w @ k_range.basis)
    condition = bool(
        numerical_rank(np.hstack([k, doubled]), tol) == numerical_rank(k, tol)
    )
    sol = x_w(w, k, tol)
    candidate = synthesis(w).T @ inverse_on_image(w, k, tol).T @ k
    gap = spectral_norm(candidate - sol.x)
    operator_equality = negligible(gap, spectral_norm(sol.x), tol)
    if condition != operator_equality:
        raise AgreementError(
            "range condition and solution comparison disagree: "
            f"{condition} vs {operator_equality}"
        )
    dual, _, _ = canonical_k_dual(w, k, tol)
    member_equal = tuple(
        same_subspace(d_sub, subspace_from_columns(sol.x[sl, :].T, tol), tol)
        for (d_sub, _), sl in zip(dual.members, w.block_slices())
    )
    families_equal = all(member_equal)
    if operator_equality and not families_equal:
        raise AgreementError("equal solution components produced unequal members")
    return SwsReport(
        range_condition=condition,
        operator_equality=operator_equality,
        families_equal=families_equal,
        member_equal=member_equal,
    )


@dataclass(frozen=True)
class MinimalDualReport:
    """Containment characterization of K-duals of a minimal system."""

    skipped: bool
    violations: tuple
    is_dual: bool
    containment: tuple
    agree: bool


def minimal_dual_test(
    w: FusionSystem, k, v: FusionSystem, tol: ToleranceProfile = DEFAULT_TOL
) -> MinimalDualReport:
    """Check duality against member-wise containment of the canonical dual.

    For a minimal system whose span meets the orthogonal complement of
    range(K) only at zero, V is a K-dual exactly when every canonical dual
    member sits inside the matching member of V. Hypothesis violations are
    reported and the biconditional is then not asserted.
    """
    k = as_matrix(k)
    violations = []
    if not is_minimal(w, tol):
        violations.append("system is not minimal")
    span_all = subspace_from_columns(
        np.hstack([sub.basis for sub, _ in w.members]), tol
    )
    k_perp = orthogonal_complement(subspace_from_columns(k, tol), tol)
    if subspace_intersection(span_all, k_perp, tol).dim > 0:
        violations.append(
            "span of the members meets the orthogonal complement of range(K)"
        )
    dual, _, _ = canonical_k_dual(w, k, tol)
    containment = tuple(
        subspace_contains(v_sub, d_sub, tol)
        for (v_sub, _), (d_sub, _) in zip(v.members, dual.members)
    )
    is_dual = is_k_dual(w, v, k, tol).passed
    contained = all(containment)
    skipped = bool(violations)
    if not skipped and is_dual != contained:
        raise AgreementError(
            f"duality {is_dual} and containment {contained} disagree"
        )
    return MinimalDualReport(
        skipped=skipped,
        violations=tuple(violations),
        is_dual=is_dual,
        containment=containment,
        agree=(is_dual == contained),
    )


def component_preserving_duals(
    w: FusionSystem, psi, tol: ToleranceProfile = DEFAULT_TOL, k=None
):
    """Dual system whose coefficient operator acts block by block.

    ``psi`` must satisfy ``psi @ T_W.T = K.T``; when K is not supplied it is
    taken to be the operator that equation defines. Member i of the dual is
    the span of the i-th column block of ``psi``, and the block-diagonal
    coefficient operator reproduces K exactly.
    """
    psi = as_matrix(psi)
    t_w = synthesis(w)
    if psi.shape != (w.ambient_dim, t_w.shape[1]):
        raise ValueError("psi must map W coefficients into the ambient space")
    implied = (psi @ t_w.T).T
    if k is None:
        k = implied
    else:
        k = as_matrix(k)
        gap = spectral_norm(implied - k)
        if not negligible(gap, spectral_norm(k), tol):
            raise ValueError(f"psi equation residual {gap} exceeds tolerance")
    members = tuple(
        (subspace_from_columns(psi[:, sl], tol), 1.0) for sl in w.block_slices()
    )
    v = FusionSystem(w.ambient_dim, members)
    blocks = [
        sub.basis.T @ psi[:, sl]
        for (sub, _), sl in zip(v.members, w.block_slices())
    ]
    q = _block_diag(blocks)
    cert = is_qk_dual(w, v, q, k, tol)
    cert.details["block_diagonal"] = True
    return v, cert


def kframe_projection_dual(f: KFrame, k, tol: ToleranceProfile = DEFAULT_TOL):
    """Project a K-frame onto range(K) and build its companion dual family.

    Returns (projected frame, dual frame, certificate); the certificate
    records the operator residual and a pointwise reconstruction check of
    ``K f`` over 50 seeded random vectors.
    """
    k = as_matrix(k)
    base = verify_k_frame(f, k, tol)
    if not base.passed:
        raise ValueError(f"family must be a K-frame: {base.message}")
    mat = f.matrix
    p_r = range_projector(k, tol)
    s_f = mat @ mat.T
    dual_map = k.T @ pinv(s_f @ p_r, tol)
    projected = KFrame(f.ambient_dim, tuple((p_r @ mat).T))
    dual = KFrame(f.ambient_dim, tuple((dual_map @ mat).T))
    recon = projected.matrix @ dual.matrix.T
    residual = spectral_norm(recon - k)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        vec = rng.standard_normal(f.ambient_dim)
        worst = max(worst, float(np.linalg.norm(k @ vec - recon @ vec)))
    cert = Certificate(
        passed=negligible(residual, spectral_norm(k), tol),
        message="reconstruction of K through the projected family",
        details={"residual": residual, "worst_pointwise": worst},
    )
    return projected, dual, cert


@dataclass(frozen=True)
class LocalEquivalenceReport:
    """Continuous duality versus its discrete local-frame counterpart."""

    continuous_pass: bool
    discrete_pass: bool
    continuous_residual: float
    discrete_residual: float
    operators_match: bool
    frames_f: KFrame
    frames_g: KFrame


def local_duality_equiv(
    w: FusionSystem,
    v: FusionSystem,
    local: LocalFrameSystem,
    k,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> LocalEquivalenceReport:
    """Equivalence of subspace duality with duality of induced discrete frames.

    From local frames of the candidate dual's members, builds the discrete
    pair: one family carries the canonical local duals through the base
    system's transfer map, the other is the weighted local frames
    themselves. Their synthesis-analysis composite must coincide with the
    subspace reconstruction operator, making the two dualities pass or fail
    together.
    """
    if local.fusion is not v and len(local.fusion) != len(v):
        raise ValueError("local frames must be indexed like the candidate dual")
    k = as_matrix(k)
    recon, _ = k_dual_reconstruction(w, v, k, tol)
    continuous_residual = spectral_norm(recon - k)
    p_r = range_projector(k, tol)
    carrier = p_r @ inverse_on_image(w, k, tol).T @ k
    f_vectors, g_vectors = [], []
    for (w_sub, w_weight), (v_sub, v_weight), frame in zip(
        w.members, local.fusion.members, local.local_frames
    ):
        mat = frame.matrix
        duals = _canonical_local_duals(mat, tol)
        lifted = w_weight * (w_sub.projector() @ (carrier @ duals))
        f_vectors.extend(lifted.T)
        g_vectors.extend((v_weight * mat).T)
    frames_f = KFrame(w.ambient_dim, tuple(f_vectors))
    frames_g = KFrame(w.ambient_dim, tuple(g_vectors))
    discrete = frames_f.matrix @ frames_g.matrix.T
    discrete_residual = spectral_norm(discrete - k)
    k_norm = spectral_norm(k)
    operators_match = negligible(spectral_norm(discrete - recon), k_norm, tol)
    continuous_pass = negligible(continuous_residual, k_norm, tol)
    discrete_pass = negligible(discrete_residual, k_norm, tol)
    if continuous_pass != discrete_pass:
        raise AgreementError(
            f"subspace duality {continuous_pass} and discrete duality "
            f"{discrete_pass} disagree"
        )
    return LocalEquivalenceReport(
        continuous_pass=continuous_pass,
        discrete_pass=discrete_pass,
        continuous_residual=continuous_residual,
        discrete_residual=discrete_residual,
        operators_match=operators_match,
        frames_f=frames_f,
        frames_g=frames_g,
    )


def kframe_from_local(
    w: FusionSystem,
    local: LocalFrameSystem,
    x: DouglasSolution,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Discrete K-frame pair induced by local frames of the base system.

    One family is the weighted local vectors; the companion carries the
    canonical local duals through the adjoints of the solution's component
    maps. Returns (F, G, certificate) where the certificate checks the
    reconstruction of K and reports the K-frame bounds of F.
    """
    if len(local.fusion) != len(w):
        raise ValueError("local frames must be indexed like the base system")
    x_mat = as_matrix(x.x)
    k = synthesis(w) @ x_mat
    f_vectors, g_vectors = [], []
    for (sub, weight), frame, sl in zip(
        w.members, local.local_frames, w.block_slices()
    ):
        mat = frame.matrix
        duals = _canonical_local_duals(mat, tol)
        f_vectors.extend((weight * mat).T)
        g_vectors.extend((x_mat[sl, :].T @ (sub.basis.T @ duals)).T)
    frames_f = KFrame(w.ambient_dim, tuple(f_vectors))
    frames_g = KFrame(w.ambient_dim, tuple(g_vectors))
    recon = frames_f.matrix @ frames_g.matrix.T
    residual = spectral_norm(recon - k)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(25):
        vec = rng.standard_normal(w.ambient_dim)
        worst = max(worst, float(np.linalg.norm(k @ vec - recon @ vec)))
    cert = Certificate(
        passed=negligible(residual, spectral_norm(k), tol),
        message="reconstruction of K through weighted local frames",
        details={
            "residual": residual,
            "worst_pointwise": worst,
            "frame_bounds": verify_k_frame(frames_f, k, tol),
        },
    )
    return frames_f, frames_g, cert
