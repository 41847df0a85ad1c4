import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kfusion import numerics
from kfusion.numerics import (
    DEFAULT_TOL,
    ToleranceProfile,
    max_rayleigh,
    max_rayleigh_gram,
    null_basis,
    numerical_rank,
    orthonormal_range,
    pinv,
    rayleigh_maximizer,
    spectral_norm,
    svd,
    symmetric_eigenvalues,
)

MATRIX_DIMENSION = 4
ABS_TOLERANCE = 1e-9
REL_TOLERANCE = 1e-8

finite_entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
square_matrices = arrays(
    np.float64, (MATRIX_DIMENSION, MATRIX_DIMENSION), elements=finite_entries
)


def rank_is_well_separated(m):
    # keep generated spectra away from the rank cutoff, where inversion is ill posed
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return True
    return bool(np.all((s <= 1e-12 * s[0]) | (s >= 1e-6 * s[0])))


def elimination_rank(m, tol=1e-8):
    # independent oracle: Gaussian elimination with partial pivoting
    a = np.array(m, dtype=float)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] / a[rank, col]
        others = np.arange(rows) != rank
        a[others] -= np.outer(a[others, col], a[rank])
        rank += 1
    return rank


def test_svd_identity_singular_values():
    result = svd(np.eye(3))
    np.testing.assert_allclose(result.singular_values, [1.0, 1.0, 1.0], atol=ABS_TOLERANCE)


def test_svd_rank_one_symmetric():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    result = svd(m)
    np.testing.assert_allclose(result.singular_values, [2.0, 0.0], atol=ABS_TOLERANCE)
    reconstructed = result.u @ np.diag(result.singular_values) @ result.v.T
    np.testing.assert_allclose(reconstructed, m, atol=ABS_TOLERANCE)


def test_svd_block_diagonal_frame_operator():
    m = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    result = svd(m)
    np.testing.assert_allclose(result.singular_values, [2.0, 2.0, 0.0], atol=ABS_TOLERANCE)


def test_svd_rejects_nan():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.zeros((0, 5))) == 0


def test_numerical_rank_two_nonzero_columns():
    k = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert numerical_rank(k) == 2


def test_numerical_rank_low_rank_product_matches_elimination():
    rng = np.random.default_rng(7)
    left = rng.standard_normal((5, 2))
    right = rng.standard_normal((2, 5))
    product = left @ right
    assert numerical_rank(product) == 2
    assert numerical_rank(product) == elimination_rank(product)


def test_pinv_diagonal():
    np.testing.assert_allclose(
        pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=ABS_TOLERANCE
    )


def test_pinv_projected_frame_operator():
    m = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    expected = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.5]])
    np.testing.assert_allclose(pinv(m), expected, atol=ABS_TOLERANCE)


def test_pinv_perturbed_frame_operator():
    m = np.array([[1.5, 1.5, 0.0], [1.5, 1.5, 0.0], [0.0, 0.0, 2.0]])
    expected = np.array(
        [[1.0 / 6.0, 1.0 / 6.0, 0.0], [1.0 / 6.0, 1.0 / 6.0, 0.0], [0.0, 0.0, 0.5]]
    )
    np.testing.assert_allclose(pinv(m), expected, atol=ABS_TOLERANCE)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=ABS_TOLERANCE)


def test_spectral_norm_single_row_composite():
    # norm sits on the lone nonzero row (1/6, 1/6, 0)
    m = np.array([[1.0 / 6.0, 1.0 / 6.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert spectral_norm(m) == pytest.approx(np.sqrt(2.0) / 6.0, abs=ABS_TOLERANCE)


def test_spectral_norm_orthogonal_columns_composite():
    # orthogonal columns, so the norm is the larger column norm: max(sqrt(2)/3, 1/2)
    m = np.array([[1.0 / 3.0, 0.0, 0.0], [1.0 / 3.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    assert spectral_norm(m) == pytest.approx(0.5, abs=ABS_TOLERANCE)


def test_orthonormal_range_and_null_basis_partition():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
    ran = orthonormal_range(m)
    nul = null_basis(m)
    assert ran.shape[1] == 3
    assert nul.shape[1] == 2
    np.testing.assert_allclose(ran.T @ ran, np.eye(3), atol=ABS_TOLERANCE)
    np.testing.assert_allclose(m @ nul, np.zeros((6, 2)), atol=ABS_TOLERANCE)


def test_max_rayleigh_identity_pencil():
    assert max_rayleigh(np.eye(3), np.eye(3)) == pytest.approx(1.0, abs=ABS_TOLERANCE)


def test_max_rayleigh_synthesis_pencil():
    root = 1.0 / np.sqrt(2.0)
    k = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    t = np.array(
        [
            [root, 0.0, 0.0, root],
            [root, 0.0, 0.0, root],
            [0.0, 1.0, 1.0, 0.0],
        ]
    )
    assert max_rayleigh(k, t @ t.T) == pytest.approx(1.0, abs=ABS_TOLERANCE)


def test_max_rayleigh_commuting_diagonal_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alpha = rng.uniform(0.0, 4.0, size=MATRIX_DIMENSION)
        beta = rng.uniform(0.5, 4.0, size=MATRIX_DIMENSION)
        beta[rng.integers(0, MATRIX_DIMENSION)] = 0.0
        alpha[beta == 0.0] = 0.0
        expected = np.max(alpha[beta > 0.0] / beta[beta > 0.0])
        got = max_rayleigh(np.diag(np.sqrt(alpha)), np.diag(beta))
        assert got == pytest.approx(expected, rel=REL_TOLERANCE, abs=ABS_TOLERANCE)


def test_max_rayleigh_unbounded_direction():
    assert max_rayleigh(np.diag([1.0, 1.0]), np.diag([1.0, 0.0])) == np.inf


def test_max_rayleigh_zero_pencil():
    assert max_rayleigh(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


@seed(1)
@settings(deadline=None)
@given(square_matrices, square_matrices)
def test_rayleigh_maximizer_attains_max_rayleigh(g, h):
    a = g @ g.T
    b = h @ h.T + 1e-3 * np.eye(MATRIX_DIMENSION)
    value, f = rayleigh_maximizer(g, b)
    assert value == pytest.approx(max_rayleigh(g, b), rel=REL_TOLERANCE, abs=ABS_TOLERANCE)
    assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)
    assert f @ a @ f == pytest.approx(value * (f @ b @ f), rel=REL_TOLERANCE, abs=ABS_TOLERANCE)


def test_rayleigh_maximizer_unbounded_and_vacuous_pencils():
    value, f = rayleigh_maximizer(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    assert value == np.inf
    np.testing.assert_allclose(np.abs(f), [0.0, 1.0], atol=1e-15)
    value, f = rayleigh_maximizer(np.zeros((2, 2)), np.zeros((2, 2)))
    assert value == 0.0
    assert not f.any()


def test_max_rayleigh_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        max_rayleigh(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def _one_step_unbounded(m, b, tol):
    """The containment rule decided once, at ||m||, in plain numpy: True when m leaves range(b)."""
    vals, vecs = np.linalg.eigh(b)
    kept = vecs[:, vals > tol.rank_rel * vals[-1]]
    off = np.linalg.norm(m - kept @ (kept.T @ m))
    return bool(off > tol.eq_abs * (1.0 + np.linalg.norm(m, 2)))


@st.composite
def pencils_near_the_containment_threshold(draw):
    """(m, b, tol): a rank-deficient PSD b and an m whose part off range(b) is drawn or bisected.

    With ``place`` "inside" or "outside", the off-range part is scaled to
    one part in a million below or above the threshold of the one-step
    rule, found by bisection; large ``eq_abs`` makes ||m|| clearly exceed
    the norm of its part in range(b), so the first step fails there.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 7))
    rank = draw(st.integers(1, n - 1))
    cols = draw(st.integers(1, 7))
    tol = ToleranceProfile(eq_abs=draw(st.sampled_from([1e-9, 1e-3, 0.5])))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    b = (q[:, :rank] * rng.uniform(0.1, 3.0, rank)) @ q[:, :rank].T
    b = 0.5 * (b + b.T)
    inside = q[:, :rank] @ rng.standard_normal((rank, cols)) * 10.0 ** draw(st.integers(-3, 3))
    away = q[:, rank:] @ rng.standard_normal((n - rank, cols))
    place = draw(st.sampled_from(["drawn", "inside", "outside"]))
    if place == "drawn":
        return inside + 10.0 ** draw(st.integers(-14, 1)) * away, b, tol
    low, high = 0.0, 1.0
    while not _one_step_unbounded(inside + high * away, b, tol):
        high *= 2.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        low, high = (low, mid) if _one_step_unbounded(inside + mid * away, b, tol) else (mid, high)
    t = low * (1.0 - 1e-6) if place == "inside" else high * (1.0 + 1e-6)
    return inside + t * away, b, tol


@seed(2)
@settings(max_examples=200, deadline=None)
@given(pencils_near_the_containment_threshold())
def test_two_step_containment_decides_like_the_one_step_rule(case):
    m, b, tol = case
    assert np.isinf(max_rayleigh(m, b, tol)) == _one_step_unbounded(m, b, tol)


def test_containment_failed_at_the_range_part_is_decided_again_at_the_full_norm():
    # ||P m|| = 1 gives the threshold 0.5 * 2 = 1 < 1.1; ||m|| = sqrt(2.21) gives 1.24 > 1.1
    tol = ToleranceProfile(eq_abs=0.5)
    m = np.array([[1.0], [1.1]])
    b = np.diag([1.0, 0.0])
    assert not _one_step_unbounded(m, b, tol)
    assert max_rayleigh(m, b, tol) == pytest.approx(1.0)


def test_a_contained_pencil_takes_no_n_by_n_norm(monkeypatch):
    """With b rank-deficient and m inside range(b), containment reads only a rank-sized norm."""
    rng = np.random.default_rng(12)
    n, rank = 40, 6
    q = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    b = (q * rng.uniform(0.5, 2.0, rank)) @ q.T
    b = 0.5 * (b + b.T)
    m = q @ rng.standard_normal((rank, n))
    shapes = []
    real = numerics.spectral_norm

    def recording(x):
        shapes.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(numerics, "spectral_norm", recording)
    assert np.isfinite(max_rayleigh(m, b))
    assert shapes == [(rank, n)]


@st.composite
def wide_factors_around_the_cutoff(draw):
    """(m, g): a g wider than tall whose squared singular values straddle ``rank_rel``.

    Each singular value of g is 1 or in [0.3, 1] ("big"), has its square
    2 to 10 times the cutoff ``rank_rel * sigma_1**2`` ("kept"), 0.1 to 0.5
    times it ("dropped"), or is zero. m lies in the span of the big
    directions, plus a part of drawn size along the kept, the dropped, or
    the kernel directions of g* g. Along kept directions that part stays
    below 1e-7: the eigenvectors that ``eigh`` returns for eigenvalues
    within a factor 10 of the cutoff are only accurate to about
    eps / 1e-9 = 1e-7, so a larger part makes the dense route itself wrong
    (see ``test_the_factored_pencil_keeps_a_near_cutoff_direction_eigh_blurs``).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 12))
    rows = draw(st.integers(1, n - 1))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    kinds = np.array([draw(st.sampled_from(["big", "kept", "dropped", "zero"])) for _ in range(rows)])
    kinds[0] = "big"
    cutoff = DEFAULT_TOL.rank_rel
    s = np.select(
        [kinds == "big", kinds == "kept", kinds == "dropped"],
        [
            rng.uniform(0.3, 1.0, rows),
            np.sqrt(cutoff * rng.uniform(2.0, 10.0, rows)),
            np.sqrt(cutoff * rng.uniform(0.1, 0.5, rows)),
        ],
        0.0,
    )
    s[0] = 1.0
    left = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    g = 10.0 ** draw(st.integers(-3, 3)) * (left * s) @ q[:, :rows].T
    cols = draw(st.integers(1, 5))
    big = q[:, :rows][:, kinds == "big"]
    m = big @ rng.standard_normal((big.shape[1], cols))
    place = draw(st.sampled_from(["inside", "kept", "dropped", "kernel"]))
    if place == "kept":
        extra, size = q[:, :rows][:, kinds == "kept"], 10.0 ** draw(st.integers(-14, -7))
    elif place == "dropped":
        extra, size = q[:, :rows][:, kinds == "dropped"], 10.0 ** draw(st.integers(-14, 1))
    else:
        extra, size = q[:, rows:], 10.0 ** draw(st.integers(-14, 1))
    if place != "inside":
        m = m + size * extra @ rng.standard_normal((extra.shape[1], cols))
    return m * 10.0 ** draw(st.integers(-3, 3)), g


@seed(3)
@settings(max_examples=300, deadline=None)
@given(wide_factors_around_the_cutoff())
def test_the_factored_pencil_matches_the_dense_one(case):
    m, g = case
    b = g.T @ g
    dense = max_rayleigh(m, 0.5 * (b + b.T))
    factored = max_rayleigh_gram(m, g)
    assert np.isinf(factored) == np.isinf(dense)
    if np.isfinite(dense):
        assert abs(factored - dense) <= 1e-10 * dense


def test_the_factored_pencil_keeps_a_near_cutoff_direction_eigh_blurs():
    """m along g's direction with squared singular value 5 rank_rel: the pencil is 1 / (5 rank_rel).

    ``eigh`` of g* g returns that eigenvector with an error near eps / 5e-10,
    so m seems to leave the kept span and the dense route reports an
    unbounded pencil; the SVD of g* resolves the direction and the value.
    """
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
    s = np.array([1.0, np.sqrt(5.0 * DEFAULT_TOL.rank_rel)])
    g = s[:, None] * q[:, :2].T
    m = q[:, 1:2]
    b = g.T @ g
    assert max_rayleigh(m, 0.5 * (b + b.T)) == np.inf
    assert max_rayleigh_gram(m, g) == pytest.approx(1.0 / s[1] ** 2, rel=1e-12)


def test_a_tall_factor_takes_the_dense_route():
    g = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    m = np.array([[1.0], [1.0]])
    assert max_rayleigh_gram(m, g) == max_rayleigh(m, g.T @ g) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        max_rayleigh_gram(m, g.T)


def test_tolerance_profile_validation():
    with pytest.raises(ValueError):
        ToleranceProfile(rank_rel=1.5)
    with pytest.raises(ValueError):
        ToleranceProfile(eq_abs=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ToleranceProfile(eq_abs=bad)
        with pytest.raises(ValueError):
            ToleranceProfile(eq_rel=bad)
        with pytest.raises(ValueError):
            ToleranceProfile(rank_rel=bad)
    assert DEFAULT_TOL.rank_rel == 1e-10


# entries 6.08e-129 and 0 at [0, 0]: the pseudo-inverse has entries near 1.6e128
TINY_WITH_A_ZERO_CORNER = np.full((MATRIX_DIMENSION, MATRIX_DIMENSION), 6.08e-129)
TINY_WITH_A_ZERO_CORNER[0, 0] = 0.0
# a subnormal singular value: its reciprocal overflows, so pinv treats it as zero
SUBNORMAL_DIAGONAL = np.diag([2.2250738585e-309, 0.0, 0.0, 0.0])


@seed(1)
@given(square_matrices)
@example(TINY_WITH_A_ZERO_CORNER)
@example(SUBNORMAL_DIAGONAL)
def test_pinv_satisfies_penrose_identities(m):
    assume(rank_is_well_separated(m))
    p = pinv(m)
    scale = max(spectral_norm(m), 1.0)
    assert np.allclose(m @ p @ m, m, atol=REL_TOLERANCE * scale)
    # p @ m @ p is in p's units: a tiny m has a huge pseudo-inverse
    assert np.allclose(p @ m @ p, p, atol=REL_TOLERANCE * max(spectral_norm(p), 1.0))
    assert np.allclose(m @ p, (m @ p).T, atol=REL_TOLERANCE * scale)
    assert np.allclose(p @ m, (p @ m).T, atol=REL_TOLERANCE * scale)


@seed(1)
@given(square_matrices)
@example(SUBNORMAL_DIAGONAL)
def test_pinv_is_an_involution(m):
    assume(rank_is_well_separated(m))
    scale = max(spectral_norm(m), 1.0)
    assert np.allclose(pinv(pinv(m)), m, atol=REL_TOLERANCE * scale)


@seed(1)
@given(square_matrices)
def test_spectral_norm_transpose_invariant(m):
    assert spectral_norm(m) == pytest.approx(
        spectral_norm(m.T), rel=REL_TOLERANCE, abs=ABS_TOLERANCE
    )


@seed(1)
@settings(deadline=None)
@given(square_matrices, square_matrices, st.floats(min_value=0.1, max_value=10.0))
def test_max_rayleigh_scale_covariance(g, h, c):
    b = h @ h.T + 1e-3 * np.eye(MATRIX_DIMENSION)
    base = max_rayleigh(g, b)
    scaled = max_rayleigh(np.sqrt(c) * g, b)
    assert scaled == pytest.approx(c * base, rel=REL_TOLERANCE, abs=ABS_TOLERANCE)


@st.composite
def scaled_matrices(draw):
    """Matrices of 1..40 rows or columns, scaled by 10**-200 .. 10**150.

    Row, column, square and general shapes; exactly symmetric indefinite
    matrices whose most negative eigenvalue dominates; rank-deficient
    products; and zero matrices.
    """
    kinds = ["row", "column", "square", "general", "symmetric", "low_rank", "zero"]
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "row":
        m = rng.standard_normal((1, n))
    elif kind == "column":
        m = rng.standard_normal((n, 1))
    elif kind == "square":
        m = rng.standard_normal((n, n))
    elif kind == "general":
        m = rng.standard_normal((n, p))
    elif kind == "symmetric":
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        eigenvalues = rng.uniform(-1.0, 1.0, n)
        eigenvalues[0] = -2.0
        a = (q * eigenvalues) @ q.T
        m = 0.5 * (a + a.T)
    elif kind == "low_rank":
        r = draw(st.integers(1, max(1, min(n, p) - 1)))
        m = rng.standard_normal((n, r)) @ rng.standard_normal((r, p))
    else:
        m = np.zeros((n, p))
    return m * 10.0 ** draw(st.integers(-200, 150))


@seed(1)
@settings(max_examples=300, deadline=None)
@given(scaled_matrices())
def test_spectral_norm_matches_the_top_singular_value(m):
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    got = spectral_norm(m)
    if want == 0.0:
        assert got == 0.0
    else:
        assert abs(got - want) <= 1e-13 * want


def test_spectral_norm_of_a_symmetric_matrix_reads_the_negative_eigenvalue():
    m = np.diag([-3.0, 1.0, 2.0])
    assert spectral_norm(m) == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_spectral_norm_of_an_empty_matrix_is_zero(shape):
    assert spectral_norm(np.zeros(shape)) == 0.0


def test_spectral_norm_makes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("spectral_norm called the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6))
    for m in (a, a + a.T, a[:, :3], a[:2, :]):
        assert spectral_norm(m) > 0.0


def test_symmetric_eigenvalues_read_the_symmetric_part():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_allclose(symmetric_eigenvalues(m), [0.0, 2.0], atol=1e-15)
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))


# Decompositions outside numerics would escape the rank policy and the
# benchmark tracer, which counts them at the numerics boundary.
DECOMPOSITION_CALLS = {
    "svd", "eigh", "eigvalsh", "eig", "eigvals", "qr", "pinv", "inv", "lstsq",
    "matrix_rank", "solve",
}
# The seeded generator draws random orthogonal matrices from the caller's
# seed; it makes no rank decision and is not part of any analysis.
EXEMPT = {("instances", "random_instance")}


def _calls(tree):
    """(enclosing top-level function or None, node) of every call in a module."""
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                yield owner, call


def _linalg_calls(tree):
    """(enclosing top-level function or None, name) of every np.linalg.<name>(...) call."""
    found = []
    for owner, call in _calls(tree):
        if not isinstance(call.func, ast.Attribute):
            continue
        parent = call.func.value
        if (
            isinstance(parent, ast.Attribute)
            and parent.attr == "linalg"
            and isinstance(parent.value, ast.Name)
            and parent.value.id in {"np", "numpy"}
        ):
            found.append((owner, call.func.attr))
    return found


def test_every_decomposition_goes_through_numerics():
    package = Path(__file__).resolve().parents[1] / "src" / "kfusion"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "numerics":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in {"numpy.linalg", "numpy"}:
                assert all(alias.name != "linalg" for alias in node.names), path.name
                assert node.module != "numpy.linalg", path.name
        for owner, name in _linalg_calls(tree):
            if name in DECOMPOSITION_CALLS and (path.stem, owner) not in EXEMPT:
                offenders.append(f"{path.stem}.{owner}: np.linalg.{name}")
    assert not offenders, offenders


def _generator_seeds(tree):
    """(enclosing top-level function or None, arguments) of every ``default_rng(...)`` call."""
    return [
        (owner, call.args + [kw.value for kw in call.keywords])
        for owner, call in _calls(tree)
        if "default_rng" in {getattr(call.func, "attr", None), getattr(call.func, "id", None)}
    ]


def test_every_generator_takes_a_literal_seed():
    """No answer outside the instance generator can depend on a seed that a caller passes."""
    package = Path(__file__).resolve().parents[1] / "src" / "kfusion"
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, args in _generator_seeds(tree):
            literal = len(args) == 1 and isinstance(args[0], ast.Constant)
            if not literal and (path.stem, owner) not in EXEMPT:
                offenders.append(f"{path.stem}.{owner}: default_rng with a non-literal seed")
    assert not offenders, offenders


def test_the_decomposition_scan_sees_the_exempt_generator():
    path = Path(__file__).resolve().parents[1] / "src" / "kfusion" / "instances.py"
    calls = _linalg_calls(ast.parse(path.read_text()))
    assert ("random_instance", "qr") in calls


def test_the_seed_scan_sees_the_exempt_generator_and_the_literal_ones():
    package = Path(__file__).resolve().parents[1] / "src" / "kfusion"
    instances = _generator_seeds(ast.parse((package / "instances.py").read_text()))
    assert [(owner, type(args[0])) for owner, args in instances] == [("random_instance", ast.Name)]
    duality = _generator_seeds(ast.parse((package / "duality.py").read_text()))
    assert duality and all(isinstance(args[0], ast.Constant) for _, args in duality)


# The tolerance policy lives in numerics: every other module compares with
# the tolerance through its rules, never by reading a profile field.
TOLERANCE_FIELDS = {"eq_abs", "eq_rel", "rank_rel"}


def _tolerance_reads(tree):
    """(enclosing top-level function or None, field) of every attribute read of a profile field."""
    found = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for attr in ast.walk(node):
            if isinstance(attr, ast.Attribute) and attr.attr in TOLERANCE_FIELDS:
                found.append((owner, attr.attr))
    return found


def test_only_numerics_reads_the_tolerance_fields():
    package = Path(__file__).resolve().parents[1] / "src" / "kfusion"
    offenders = [
        f"{path.stem}.{owner}: .{name}"
        for path in sorted(package.glob("*.py"))
        if path.stem != "numerics"
        for owner, name in _tolerance_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offenders, offenders


def test_the_tolerance_scan_sees_the_reads_in_numerics():
    path = Path(__file__).resolve().parents[1] / "src" / "kfusion" / "numerics.py"
    reads = _tolerance_reads(ast.parse(path.read_text()))
    assert {("negligible", "eq_abs"), ("cross_allowance", "eq_rel")} <= set(reads)
    assert {name for _, name in reads} == TOLERANCE_FIELDS
