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
    numerical_rank,
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


def test_svd_pinv_zeroes_a_subnormal_singular_value():
    # 1 / 1e-310 overflows, so that value is zeroed, not inverted
    f = numerics.Svd(u=np.eye(3)[:, :2], singular_values=np.array([2.0, 1e-310]), v=np.eye(2))
    np.testing.assert_array_equal(f.pinv(), [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])


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


def test_max_rayleigh_identity_pencil():
    assert max_rayleigh(np.eye(3), np.eye(3)).value == pytest.approx(1.0, abs=ABS_TOLERANCE)


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
    assert max_rayleigh(k, t).value == pytest.approx(1.0, abs=ABS_TOLERANCE)


def test_max_rayleigh_commuting_diagonal_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alpha = rng.uniform(0.0, 4.0, size=MATRIX_DIMENSION)
        beta = rng.uniform(0.5, 4.0, size=MATRIX_DIMENSION)
        beta[rng.integers(0, MATRIX_DIMENSION)] = 0.0
        alpha[beta == 0.0] = 0.0
        expected = np.max(alpha[beta > 0.0] / beta[beta > 0.0])
        got = max_rayleigh(np.diag(np.sqrt(alpha)), np.diag(np.sqrt(beta))).value
        assert got == pytest.approx(expected, rel=REL_TOLERANCE, abs=ABS_TOLERANCE)


def test_max_rayleigh_unbounded_direction():
    assert max_rayleigh(np.diag([1.0, 1.0]), np.diag([1.0, 0.0])).value == np.inf


def test_max_rayleigh_zero_pencil():
    assert max_rayleigh(np.zeros((2, 2)), np.zeros((2, 2))).value == 0.0


def _definite_factor(h):
    """[h, c I], a factor of the positive definite h h* + c**2 I, c**2 = 1e-3."""
    return np.hstack([h, np.sqrt(1e-3) * np.eye(h.shape[0])])


@seed(1)
@settings(deadline=None)
@given(square_matrices, square_matrices)
def test_rayleigh_maximizer_attains_max_rayleigh(g, h):
    a = g @ g.T
    factor = _definite_factor(h)
    b = factor @ factor.T
    pencil = max_rayleigh(g, factor)
    value, f = pencil.value, pencil.maximizer
    # the top eigenvalue of b^-1 a, in plain numpy
    want = float(np.linalg.eigvals(np.linalg.solve(b, a)).real.max())
    assert value == pytest.approx(want, rel=REL_TOLERANCE, abs=ABS_TOLERANCE)
    assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)
    assert f @ a @ f == pytest.approx(value * (f @ b @ f), rel=REL_TOLERANCE, abs=ABS_TOLERANCE)


def test_rayleigh_maximizer_unbounded_and_vacuous_pencils():
    pencil = max_rayleigh(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    assert pencil.value == np.inf
    np.testing.assert_allclose(np.abs(pencil.maximizer), [0.0, 1.0], atol=1e-15)
    pencil = max_rayleigh(np.zeros((2, 2)), np.zeros((2, 2)))
    assert pencil.value == 0.0
    assert not pencil.maximizer.any()


def _containment_terms(m, b, tol):
    """(r, ||E* m||, ||m||) in plain numpy: E spans b's kept eigenvectors, r = ||(I - E E*) m||_F."""
    vals, vecs = np.linalg.eigh(b)
    kept = vecs[:, vals > tol.rank_rel * vals[-1]]
    off = np.linalg.norm(m - kept @ (kept.T @ m))
    return off, np.linalg.norm(kept.T @ m, 2), np.linalg.norm(m, 2)


def _one_step_unbounded(m, b, tol):
    """The containment rule judged at ||m||, in plain numpy: True when m leaves range(b)."""
    off, _, m_norm = _containment_terms(m, b, tol)
    return bool(off > tol.eq_abs * (1.0 + m_norm))


def _hypot_unbounded(m, b, tol):
    """``numerics.outside`` in plain numpy: r judged at s = hypot(||E* m||, r)."""
    off, c, _ = _containment_terms(m, b, tol)
    return bool(off > tol.eq_abs * (1.0 + np.hypot(c, off)))


@st.composite
def pencils_near_the_containment_threshold(draw, unbounded):
    """(m, g, tol): g factors a rank-deficient b = g g*; m's part off range(b) is drawn or bisected.

    With ``place`` "inside" or "outside", the off-range part is scaled to
    one part in a million below or above the threshold of the rule
    ``unbounded``, found by bisection; large ``eq_abs`` makes ||m|| clearly
    exceed the norm of its part in range(b), so the scales of the rules part.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 7))
    rank = draw(st.integers(1, n - 1))
    cols = draw(st.integers(1, 7))
    tol = ToleranceProfile(eq_abs=draw(st.sampled_from([1e-9, 1e-3, 0.5])))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    g = q[:, :rank] * np.sqrt(rng.uniform(0.1, 3.0, rank))
    b = g @ g.T
    inside = q[:, :rank] @ rng.standard_normal((rank, cols)) * 10.0 ** draw(st.integers(-3, 3))
    away = q[:, rank:] @ rng.standard_normal((n - rank, cols))
    place = draw(st.sampled_from(["drawn", "inside", "outside"]))
    if place == "drawn":
        return inside + 10.0 ** draw(st.integers(-14, 1)) * away, g, tol
    low, high = 0.0, 1.0
    while not unbounded(inside + high * away, b, tol):
        high *= 2.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        low, high = (low, mid) if unbounded(inside + mid * away, b, tol) else (mid, high)
    t = low * (1.0 - 1e-6) if place == "inside" else high * (1.0 + 1e-6)
    return inside + t * away, g, tol


@seed(2)
@settings(max_examples=200, deadline=None)
@given(pencils_near_the_containment_threshold(_hypot_unbounded))
def test_containment_decides_at_the_hypot_of_its_own_terms(case):
    m, g, tol = case
    assert np.isinf(max_rayleigh(m, g, tol).value) == _hypot_unbounded(m, g @ g.T, tol)


@seed(3)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([_one_step_unbounded, _hypot_unbounded]).flatmap(
        pencils_near_the_containment_threshold
    )
)
def test_containment_decides_like_the_norm_rule_outside_its_band(case):
    """One column, or r outside [eq_abs (1 + ||m||), eq_abs (1 + s)]: the scales cannot part the rules."""
    m, g, tol = case
    b = g @ g.T
    off, c, m_norm = _containment_terms(m, b, tol)
    band = tol.eq_abs * (1.0 + m_norm), tol.eq_abs * (1.0 + np.hypot(c, off))
    # 1e-9 relative: the bisected cases sit 1e-6 from one end or the other
    between = band[0] * (1.0 - 1e-9) <= off <= band[1] * (1.0 + 1e-9)
    if m.shape[1] == 1 or not between:
        assert np.isinf(max_rayleigh(m, g, tol).value) == _one_step_unbounded(m, b, tol)


@seed(4)
@settings(max_examples=100, deadline=None)
@given(pencils_near_the_containment_threshold(_hypot_unbounded))
def test_the_pencil_scale_lies_between_the_norm_and_its_hypot_with_the_residual(case):
    m, g, tol = case
    off, _, m_norm = _containment_terms(m, g @ g.T, tol)
    scale = max_rayleigh(m, g, tol).m_scale
    assert m_norm * (1.0 - 1e-12) <= scale <= np.hypot(m_norm, off) * (1.0 + 1e-12)
    if m.shape[1] == 1:
        assert scale == pytest.approx(m_norm, rel=1e-12)
    # a pencil that keeps every direction has no off-span step: its scale is ||m||
    assert max_rayleigh(m, np.eye(m.shape[0]), tol).m_scale == spectral_norm(m)


def test_containment_failed_at_the_range_part_is_decided_again_at_the_full_norm():
    # ||P m|| = 1 gives the threshold 0.5 * 2 = 1 < 1.1; ||m|| = sqrt(2.21) gives 1.24 > 1.1
    tol = ToleranceProfile(eq_abs=0.5)
    m = np.array([[1.0], [1.1]])
    g = np.array([[1.0], [0.0]])
    assert not _one_step_unbounded(m, g @ g.T, tol)
    assert max_rayleigh(m, g, tol).value == pytest.approx(1.0)


def test_a_contained_pencil_takes_no_n_by_n_norm(monkeypatch):
    """With b = g g* rank-deficient and m inside range(b), the pencil reads only rank-sized norms."""
    rng = np.random.default_rng(12)
    n, rank = 40, 6
    q = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    g = q * np.sqrt(rng.uniform(0.5, 2.0, rank))
    m = q @ rng.standard_normal((rank, n))
    shapes = []
    real = numerics.spectral_norm

    def recording(x):
        shapes.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(numerics, "spectral_norm", recording)
    assert np.isfinite(max_rayleigh(m, g).value)
    # the containment's first step at ||E* m|| and the value ||m* E Lambda^-1/2||
    assert shapes == [(rank, n), (n, rank)]


@st.composite
def tall_factors_around_the_cutoff(draw):
    """(m, g): a g taller than wide whose squared singular values straddle ``rank_rel``.

    Each singular value of g is 1 or in [0.3, 1] ("big"), has its square
    2 to 10 times the cutoff ``rank_rel * sigma_1**2`` ("kept"), 0.1 to 0.5
    times it ("dropped"), or is zero. m lies in the span of the big
    directions, plus a part of drawn size along the kept, the dropped, or
    the kernel directions of g g*. Along kept directions that part stays
    below 1e-7: the eigenvectors that ``eigh`` returns for eigenvalues
    within a factor 10 of the cutoff are only accurate to about
    eps / 1e-9 = 1e-7, so a larger part makes the dense route itself wrong
    (see ``test_the_factored_pencil_keeps_a_near_cutoff_direction_eigh_blurs``).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 12))
    width = draw(st.integers(1, n - 1))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    kinds = np.array([draw(st.sampled_from(["big", "kept", "dropped", "zero"])) for _ in range(width)])
    kinds[0] = "big"
    cutoff = DEFAULT_TOL.rank_rel
    s = np.select(
        [kinds == "big", kinds == "kept", kinds == "dropped"],
        [
            rng.uniform(0.3, 1.0, width),
            np.sqrt(cutoff * rng.uniform(2.0, 10.0, width)),
            np.sqrt(cutoff * rng.uniform(0.1, 0.5, width)),
        ],
        0.0,
    )
    s[0] = 1.0
    left = np.linalg.qr(rng.standard_normal((width, width)))[0]
    g = 10.0 ** draw(st.integers(-3, 3)) * q[:, :width] @ (left * s).T
    cols = draw(st.integers(1, 5))
    big = q[:, :width][:, kinds == "big"]
    m = big @ rng.standard_normal((big.shape[1], cols))
    place = draw(st.sampled_from(["inside", "kept", "dropped", "kernel"]))
    if place == "kept":
        extra, size = q[:, :width][:, kinds == "kept"], 10.0 ** draw(st.integers(-14, -7))
    elif place == "dropped":
        extra, size = q[:, :width][:, kinds == "dropped"], 10.0 ** draw(st.integers(-14, 1))
    else:
        extra, size = q[:, width:], 10.0 ** draw(st.integers(-14, 1))
    if place != "inside":
        m = m + size * extra @ rng.standard_normal((extra.shape[1], cols))
    return m * 10.0 ** draw(st.integers(-3, 3)), g


def _square(g):
    """g padded with zero columns to a square factor of the same g g*, so the pencil forms it."""
    return np.hstack([g, np.zeros((g.shape[0], g.shape[0] - g.shape[1]))])


@seed(3)
@settings(max_examples=300, deadline=None)
@given(tall_factors_around_the_cutoff())
def test_the_factored_pencil_matches_the_dense_one(case):
    m, g = case
    dense = max_rayleigh(m, _square(g)).value
    factored = max_rayleigh(m, g).value
    assert np.isinf(factored) == np.isinf(dense)
    if np.isfinite(dense):
        assert abs(factored - dense) <= 1e-10 * dense


def test_the_factored_pencil_keeps_a_near_cutoff_direction_eigh_blurs():
    """m along g's direction with squared singular value 5 rank_rel: the pencil is 1 / (5 rank_rel).

    ``eigh`` of the n x n g g* returns that eigenvector with an error near
    eps / 5e-10, so m seems to leave the kept span and the dense route
    reports an unbounded pencil. The tall g = Q R keeps both directions of
    R R*, so the kept span is range(Q) itself, and m lies in it.
    """
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
    s = np.array([1.0, np.sqrt(5.0 * DEFAULT_TOL.rank_rel)])
    g = q[:, :2] * s
    m = q[:, 1:2]
    assert max_rayleigh(m, _square(g)).value == np.inf
    assert max_rayleigh(m, g).value == pytest.approx(1.0 / s[1] ** 2, rel=1e-12)


def test_the_pencil_decomposes_the_gram_of_the_shorter_side(monkeypatch):
    """A wide g takes eigh of g g*, a tall one = Q R of R R*; both give the same pencil."""
    g = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    m = np.array([[1.0], [1.0]])
    shapes = []
    real = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    assert max_rayleigh(m, g).value == pytest.approx(0.75)
    assert max_rayleigh(np.vstack([m, m]), np.vstack([g, g])).value == pytest.approx(0.75)
    assert shapes == [(2, 2), (3, 3)]
    with pytest.raises(ValueError):
        max_rayleigh(m, g.T)


CUTOFF, MARGIN = DEFAULT_TOL.rank_rel, numerics.SPAN_ROUNDING


def _lost_case(sigma, nu):
    """(h, Sigma M) for hand-built nu: h has orthonormal columns, M = I - h h* + h diag(nu) h*."""
    rng = np.random.default_rng(0)
    sigma, nu = np.array(sigma), np.array(nu)
    h = np.linalg.qr(rng.standard_normal((sigma.size, nu.size)))[0]
    return h, sigma[:, None] * (np.eye(sigma.size) - h @ h.T + (h * nu) @ h.T)


def _loss_gate_case(where, factor):
    """(sigma, nu) with the lost or the kept side ``where`` ``factor`` margins off the cutoff.

    Two of the four nu are lost. With sigma_1 = 3, the cutoff's lower end
    ``rank_rel`` sigma_5 sits at sigma_1 max nu_L + factor c eps sigma_1, or
    the kept side's lower end sigma_6 min(nu_kept, 1) - sigma_1 max nu_L at
    ``rank_rel`` sigma_1 + factor c eps sigma_1.
    """
    top, margin = 3.0, MARGIN * 3.0
    if where == "lost":
        nu = [1e-14, 0.0, 0.6, 0.9]
        fifth = (top * 1e-14 + factor * margin) / CUTOFF
        return [top, 2.0, 1.5, 1.0, fifth, 0.8 * fifth], nu
    nu = [0.0, 0.0, 1.0, 1.0]
    return [top, 2.0, 1.5, 1.0, 0.5, CUTOFF * top + factor * margin], nu


@pytest.mark.parametrize("where", ["lost", "kept"])
@pytest.mark.parametrize("factor, accepted", [(0.5, False), (1.5, True), (1e3, True)])
def test_the_loss_gate_falls_back_within_the_margin_of_the_cutoff(where, factor, accepted):
    sigma, nu = _loss_gate_case(where, factor)
    h, sigma_m = _lost_case(sigma, nu)
    lost = numerics.lost_directions(np.array(sigma), h, np.array(nu), DEFAULT_TOL)
    assert (lost is not None) == accepted
    if accepted:
        # N spans the left singular vectors that the truncated SVD drops, to
        # within the sin-theta bound: the lost part of M and the rounding of
        # Sigma M, over the gap below the kept values
        f = svd(sigma_m)
        rank = f.truncated(DEFAULT_TOL).singular_values.size
        assert rank == len(sigma) - 2
        dropped = f.u[:, rank:]
        small = sigma[0] * max(nu[:2])
        gap = sigma[-1] * min(min(nu[2:]), 1.0) - small
        angle = spectral_norm(lost @ lost.T - dropped @ dropped.T)
        assert angle <= (small + MARGIN * sigma[0]) / gap


def test_the_loss_gate_needs_a_lost_direction_and_a_value_left_to_interlace():
    sigma = np.array([2.0, 1.0, 0.5])
    h, _ = _lost_case(sigma, [0.5, 0.9])
    assert numerics.lost_directions(sigma, h, np.array([0.5, 0.9]), DEFAULT_TOL) is None
    h, _ = _lost_case(sigma, [0.0, 0.0, 0.0])
    assert numerics.lost_directions(sigma, h, np.zeros(3), DEFAULT_TOL) is None


@pytest.mark.parametrize("scale", [0.0, 1e-12, 1e-6, 1.0])
def test_containment_without_lost_directions_matches_the_rule_on_their_complement(scale):
    rng = np.random.default_rng(7)
    n, r = 9, 5
    u = np.linalg.qr(rng.standard_normal((n, r)))[0]
    lost = np.linalg.qr(rng.standard_normal((r, 2)))[0]
    rest = np.linalg.svd(lost.T)[2][2:].T  # the complement of span(lost) in R^r
    m = u @ rest @ rng.standard_normal((r - 2, 4))
    normal = np.linalg.qr(np.column_stack([u, rng.standard_normal(n)]))[0][:, r]
    m[:, 2] += scale * (u @ lost[:, 0] + normal)
    # a value between ||U* m|| and ||m||, so also above ||(U Q)* m||
    c = spectral_norm(u.T @ m)
    got = numerics.outside_without(*numerics.off_span(m, u), lost, c, DEFAULT_TOL)
    assert got == numerics.outside(c, numerics.off_span(m, u @ rest)[1], DEFAULT_TOL)
    assert got == (None if scale <= 1e-12 else 2)


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
    factor = _definite_factor(h)
    base = max_rayleigh(g, factor).value
    scaled = max_rayleigh(np.sqrt(c) * g, factor).value
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


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_rank_pinv_and_range_of_an_empty_matrix_take_no_special_case(shape):
    m = np.zeros(shape)
    assert numerical_rank(m) == 0
    assert pinv(m).shape == shape[::-1]
    assert numerics.orthonormal_range(m).shape == (shape[0], 0)


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


def _owned(tree, kind=ast.Call):
    """(enclosing top-level function, class or None, node) of every ``kind`` node in a module."""
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, kind):
                yield owner, sub


def _linalg_calls(tree):
    """(enclosing top-level function or None, name) of every np.linalg.<name>(...) call."""
    found = []
    for owner, call in _owned(tree):
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


def test_only_keeps_rank_reads_the_rank_cutoff():
    """The cutoff rank_rel * top has one spelling: the profile stores it, ``keeps_rank`` reads it."""
    package = Path(__file__).resolve().parents[1] / "src" / "kfusion"
    readers = {
        (path.stem, owner)
        for path in sorted(package.glob("*.py"))
        for owner, node in _owned(ast.parse(path.read_text(), filename=str(path)), ast.Attribute)
        if node.attr == "rank_rel"
    }
    assert readers == {("numerics", "ToleranceProfile"), ("numerics", "keeps_rank")}


def _generator_seeds(tree):
    """(enclosing top-level function or None, arguments) of every ``default_rng(...)`` call."""
    return [
        (owner, call.args + [kw.value for kw in call.keywords])
        for owner, call in _owned(tree)
        if "default_rng" in {getattr(call.func, "attr", None), getattr(call.func, "id", None)}
    ]


def test_only_the_instance_generator_draws_random_numbers():
    """Every answer is a closed form: no check in the package samples random vectors."""
    package = Path(__file__).resolve().parents[1] / "src" / "kfusion"
    found = [
        (path.stem, owner)
        for path in sorted(package.glob("*.py"))
        for owner, _ in _generator_seeds(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [("instances", "random_instance")]


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
    # The package holds no literal-seeded generator any more, so the scan is
    # shown one in each call form.
    literal = _generator_seeds(ast.parse(
        "def f():\n    return np.random.default_rng(7)\n"
        "def g():\n    return default_rng(seed=11)\n"
    ))
    assert [(owner, args[0].value) for owner, args in literal] == [("f", 7), ("g", 11)]


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


def _lambdas_passed_to_numerics(tree, is_numerics=False):
    """(enclosing top-level function or None, callee) of every lambda passed to a numerics function.

    Numerics functions are those imported from ``kfusion.numerics``, called as
    ``numerics.<name>``, or, in numerics itself, defined at its top level.
    """
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "kfusion.numerics"
        for alias in node.names
    }
    if is_numerics:
        names |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = []
    for owner, call in _owned(tree):
        func = call.func
        if isinstance(func, ast.Name) and func.id in names:
            callee = func.id
        elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "numerics":
            callee = func.attr
        else:
            continue
        args = call.args + [kw.value for kw in call.keywords]
        found += [(owner, callee) for arg in args if isinstance(arg, ast.Lambda)]
    return found


def test_no_module_passes_a_lambda_to_numerics():
    """Every scale the tolerance rules read is a value, never a callable evaluated on demand."""
    package = Path(__file__).resolve().parents[1] / "src" / "kfusion"
    offenders = [
        f"{path.stem}.{owner}: lambda passed to {callee}"
        for path in sorted(package.glob("*.py"))
        for owner, callee in _lambdas_passed_to_numerics(
            ast.parse(path.read_text(), filename=str(path)), path.stem == "numerics"
        )
    ]
    assert not offenders, offenders


def test_the_lambda_scan_sees_each_form_of_call():
    source = (
        "from kfusion.numerics import negligible as zero\n"
        "from kfusion import numerics\n"
        "def f(r, k, tol):\n"
        "    return zero(r, lambda: 1.0, tol) or numerics.outside_column(k, k, tol=lambda: tol)\n"
        "def own(r, tol):\n"
        "    return own(r, lambda: tol)\n"
    )
    tree = ast.parse(source)
    assert _lambdas_passed_to_numerics(tree) == [("f", "zero"), ("f", "outside_column")]
    assert ("own", "own") in _lambdas_passed_to_numerics(tree, is_numerics=True)
