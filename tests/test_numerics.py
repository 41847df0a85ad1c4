import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kfusion.numerics import (
    DEFAULT_TOL,
    ToleranceProfile,
    max_rayleigh,
    null_basis,
    numerical_rank,
    orthonormal_range,
    pinv,
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
    assert max_rayleigh(k @ k.T, t @ t.T) == pytest.approx(1.0, abs=ABS_TOLERANCE)


def test_max_rayleigh_commuting_diagonal_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alpha = rng.uniform(0.0, 4.0, size=MATRIX_DIMENSION)
        beta = rng.uniform(0.5, 4.0, size=MATRIX_DIMENSION)
        beta[rng.integers(0, MATRIX_DIMENSION)] = 0.0
        alpha[beta == 0.0] = 0.0
        expected = np.max(alpha[beta > 0.0] / beta[beta > 0.0])
        got = max_rayleigh(np.diag(alpha), np.diag(beta))
        assert got == pytest.approx(expected, rel=REL_TOLERANCE, abs=ABS_TOLERANCE)


def test_max_rayleigh_unbounded_direction():
    assert max_rayleigh(np.diag([1.0, 1.0]), np.diag([1.0, 0.0])) == np.inf


def test_max_rayleigh_zero_pencil():
    assert max_rayleigh(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def test_max_rayleigh_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        max_rayleigh(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_tolerance_profile_validation():
    with pytest.raises(ValueError):
        ToleranceProfile(rank_rel=1.5)
    with pytest.raises(ValueError):
        ToleranceProfile(eq_abs=0.0)
    assert DEFAULT_TOL.rank_rel == 1e-10


@seed(1)
@given(square_matrices)
def test_pinv_satisfies_penrose_identities(m):
    assume(rank_is_well_separated(m))
    p = pinv(m)
    scale = max(spectral_norm(m), 1.0)
    assert np.allclose(m @ p @ m, m, atol=REL_TOLERANCE * scale)
    assert np.allclose(p @ m @ p, p, atol=REL_TOLERANCE * scale)
    assert np.allclose(m @ p, (m @ p).T, atol=REL_TOLERANCE * scale)
    assert np.allclose(p @ m, (p @ m).T, atol=REL_TOLERANCE * scale)


@seed(1)
@given(square_matrices)
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
    a = g @ g.T
    b = h @ h.T + 1e-3 * np.eye(MATRIX_DIMENSION)
    base = max_rayleigh(a, b)
    scaled = max_rayleigh(c * a, b)
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
# The seeded generator draws random orthogonal matrices; it makes no rank
# decision and is not part of any analysis.
EXEMPT = {("instances", "random_instance")}


def _linalg_calls(tree):
    """(enclosing top-level function or None, name) of every np.linalg.<name>(...) call."""
    found = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for call in ast.walk(node):
            if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
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


def test_the_decomposition_scan_sees_the_exempt_generator():
    path = Path(__file__).resolve().parents[1] / "src" / "kfusion" / "instances.py"
    calls = _linalg_calls(ast.parse(path.read_text()))
    assert ("random_instance", "qr") in calls
