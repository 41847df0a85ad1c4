"""The stability questions in each member's own subspace: member pencils and downdated exactness."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import random_fusion_system, skewed
from kfusion import frames, numerics, perturbation
from kfusion.frames import (
    FusionSystem,
    Subspace,
    frame_analysis,
    is_exact,
    map_subspace,
    subspace_from_spanning,
    synthesis,
    verify_k_fusion,
)
from kfusion.instances import random_instance
from kfusion.numerics import AgreementError, orthonormal_range
from kfusion.perturbation import certify_perturbation, member_pencils


def _planted(n=64, rank=4, seed=21):
    """Eight unperturbed members and one swapped line pair orthogonal to range(K).

    Member 3 moves from the line of a to the line of b, with a, b and range(K)
    mutually orthogonal, so every violation of its hypothesis lives in the
    six-dimensional span of a, b and range(K).
    """
    rng = np.random.default_rng(seed)
    # the member's pencil has mu = 1 / min(lambda1, lambda2)^2 whatever epsilon is
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
    k_range, a, b = frame[:, :rank], frame[:, rank], frame[:, rank + 1]
    right = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    k = k_range @ np.diag(rng.uniform(0.5, 2.0, rank)) @ right.T
    base = random_fusion_system(rng, n, [8] * 8)
    line_a = (Subspace(n, a[:, None]), 1.0)
    line_b = (Subspace(n, b[:, None]), 1.0)
    w = FusionSystem(n, base.members[:3] + (line_a,) + base.members[3:])
    z = FusionSystem(n, base.members[:3] + (line_b,) + base.members[3:])
    return w, z, k, a, b


def test_pencil_finds_a_planted_low_dimensional_violation():
    w, z, k, a, b = _planted()
    lambda1, lambda2, epsilon = 0.5, 0.5, 1.0
    report = certify_perturbation(w, z, k, lambda1, lambda2, epsilon)
    assert report.decided_by == "falsifier"
    assert not report.certified
    f = report.falsified_witness
    assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)
    # the witness lies in span(a, b, range K) and violates member 3, checked by plain numpy
    span = np.linalg.qr(np.column_stack([a, b, k]))[0][:, : 2 + np.linalg.matrix_rank(k)]
    assert np.linalg.norm(f - span @ (span.T @ f)) <= 1e-12
    assert _violation(f, a, b, k, lambda1, lambda2, epsilon) > 0.0


def _violation(f, a, b, k, lambda1, lambda2, epsilon):
    """lhs - rhs of the planted member's inequality at f, from ambient projectors."""
    p_w, p_z = np.outer(a, a), np.outer(b, b)
    lhs = np.linalg.norm((p_w - p_z) @ f)
    rhs = (
        lambda1 * np.linalg.norm(p_w @ f)
        + lambda2 * np.linalg.norm(p_z @ f)
        + epsilon * np.linalg.norm(k.T @ f)
    )
    return lhs - rhs


def _rotated_pair(n, rank, angle, seed_=8):
    """A system, its copy with member 0 turned by ``angle`` toward a vector, and a rank-``rank`` K."""
    rng = np.random.default_rng(seed_)
    w = random_fusion_system(rng, n, [2] * n, list(rng.uniform(0.5, 2.0, n)))
    k = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
    basis = w.members[0][0].basis
    turned = np.linalg.qr(basis + angle * rng.standard_normal(basis.shape))[0]
    z = FusionSystem(n, ((Subspace(n, turned), w.weights[0]),) + w.members[1:])
    return w, z, k


@pytest.mark.parametrize("margin", [0.99, 1.01])
def test_certificate_decides_at_the_dense_threshold(margin):
    """The member-sized certificate agrees with the n x n norms of the gap, 1% either side."""
    w, z, k = _rotated_pair(6, 6, 1e-2)
    deltas = [
        ww * ws.projector() - zw * zs.projector()
        for (ws, ww), (zs, zw) in zip(w.members, z.members)
    ]
    sigma_min = np.linalg.svd(k, compute_uv=False)[-1]
    ratio = max(np.linalg.norm(d, 2) / (wt * sigma_min) for d, wt in zip(deltas, w.weights))
    report = certify_perturbation(w, z, k, 0.5, 0.5, margin * ratio)
    assert (report.decided_by == "certificate") == (margin > 1.0)


@pytest.mark.parametrize("angle, certified", [(1e-11, True), (1e-6, False)])
def test_certificate_requires_the_gap_to_vanish_off_range_k(angle, certified):
    w, z, k = _rotated_pair(6, 3, angle)
    assert verify_k_fusion(w, k).passed
    report = certify_perturbation(w, z, k, 0.5, 0.5, 10.0)
    assert (report.decided_by == "certificate") is certified


def test_pencils_live_in_each_members_subspace(record_linalg):
    """No member pencil decomposes an n x n matrix or forms a basis of S_i, and the walk that
    ``certify_perturbation`` makes stops at the planted member."""
    w, z, k, _, _ = _planted()
    n, rank = w.ambient_dim, np.linalg.matrix_rank(k)
    # dim S_i <= dim W_i + dim Z_i + rank K < n for every member
    assert max(ws.dim + zs.dim for (ws, _), (zs, _) in zip(w.members, z.members)) + rank < n
    # K's factors belong to the shared analysis, taken before the pencils
    frame_analysis(w, k).k_factors
    calls = record_linalg(("svd", "eigh", "eigvalsh", "qr"))
    violated = [v for _, _, v in member_pencils(w, z, k, 0.5, 0.5, 1.0)]
    assert violated.index(True) == 3
    assert calls and not [c.shape for c in calls if c.shape == (n, n) or c.name == "svd"]
    pencils = record_linalg(("max_rayleigh",), kernel=numerics)
    report = certify_perturbation(w, z, k, 0.5, 0.5, 1.0)
    assert report.decided_by == "falsifier"
    assert [c.caller for c in pencils].count(perturbation.member_pencils.__code__) == 4


def _dense_ratios(w, z, k, lambda1, lambda2, epsilon):
    """Each member's mu from n x n ambient Grams: the gap's Gram against the squared terms.

    The pencil is restricted to the range of the right-hand Gram, S_i, and
    reduced through a Cholesky factor there.
    """
    ratios = []
    for (ws, ww), (zs, zw) in zip(w.members, z.members):
        p_w, p_z = ws.basis @ ws.basis.T, zs.basis @ zs.basis.T
        delta = ww * p_w - zw * p_z
        rhs = (lambda1 * ww) ** 2 * p_w + (lambda2 * zw) ** 2 * p_z + (epsilon * ww) ** 2 * k @ k.T
        vals, vecs = np.linalg.eigh(rhs)
        span = vecs[:, vals > 1e-9 * vals[-1]]
        chol = np.linalg.cholesky(span.T @ rhs @ span)
        half = np.linalg.solve(chol, span.T @ delta.T)
        ratios.append(np.linalg.eigvalsh(half @ half.T)[-1])
    return ratios


def _random_pair(seed_, n, m, rank, angle, unchanged):
    """A K-fusion frame of m members, K of the given rank with singular values in [0.5, 2],
    and a copy whose members are turned by ``angle`` and reweighted, except ``unchanged`` ones."""
    rng = np.random.default_rng(seed_)
    dims = rng.integers(1, n + 1, m)
    weights = list(rng.uniform(0.5, 2.0, m))
    w = random_fusion_system(rng, n, dims, weights)
    left = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    k = left @ np.diag(rng.uniform(0.5, 2.0, rank)) @ right.T
    members = []
    for j, (sub, weight) in enumerate(w.members):
        if j < unchanged:
            members.append((sub, weight))
            continue
        turned = np.linalg.qr(sub.basis + angle * rng.standard_normal(sub.basis.shape))[0]
        members.append((Subspace(n, turned), weight * (1.0 + angle * rng.uniform(-1.0, 1.0))))
    return w, FusionSystem(n, tuple(members)), k


@st.composite
def perturbation_cases(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 4))
    rank = draw(st.sampled_from([n, draw(st.integers(1, n))]))
    angle = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 1e-1, 1.0]))
    pair = _random_pair(draw(st.integers(0, 2**32 - 1)), n, m, rank, angle, draw(st.integers(0, m)))
    lambdas = [draw(st.floats(0.05, 0.95)) for _ in range(2)]
    epsilon = 10.0 ** draw(st.floats(-2.0, 1.0))
    return (*pair, *lambdas, epsilon)


@seed(6)
@settings(deadline=None, max_examples=150)
@given(perturbation_cases())
def test_certificate_and_dense_pencils_agree(case):
    """A passing certificate has every mu <= (1 + eq_rel)^2; any mu > 3 ends "falsifier"."""
    w, z, k, lambda1, lambda2, epsilon = case
    assume(verify_k_fusion(w, k).passed)
    report = certify_perturbation(w, z, k, lambda1, lambda2, epsilon)
    ratios = _dense_ratios(w, z, k, lambda1, lambda2, epsilon)
    if report.decided_by == "certificate":
        assert max(ratios) <= (1.0 + numerics.DEFAULT_TOL.eq_rel) ** 2
    if max(ratios) > 3.0:
        assert report.decided_by == "falsifier"


@pytest.mark.parametrize("seed_", range(6))
def test_member_pencils_match_the_dense_ambient_pencils(seed_):
    n = 6 + seed_
    rank = n if seed_ % 2 else n // 2
    w, z, k = _random_pair(seed_, n, 4, rank, 0.3, 1)
    assert verify_k_fusion(w, k).passed
    got = [mu for mu, _, _ in member_pencils(w, z, k, 0.4, 0.6, 0.5)]
    want = _dense_ratios(w, z, k, 0.4, 0.6, 0.5)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_a_planted_ratio_between_one_and_three_is_undecided_or_witnessed():
    """At lambda = 0.75 the planted member has mu = 1 / 0.75^2, where Q g may or may not violate."""
    w, z, k, a, b = _planted()
    lambda1 = lambda2 = 0.75
    ratios = [mu for mu, _, _ in member_pencils(w, z, k, lambda1, lambda2, 1.0)]
    assert 1.0 < max(ratios) <= 3.0
    assert max(ratios) == pytest.approx(1.0 / 0.75**2, rel=1e-12)
    report = certify_perturbation(w, z, k, lambda1, lambda2, 1.0)
    assert report.decided_by in {"undecided", "falsifier"}
    if report.decided_by == "falsifier":
        assert _violation(report.falsified_witness, a, b, k, lambda1, lambda2, 1.0) > 0.0


def _variant(seed_, n, m, rank, kind, position):
    """A seeded random instance, optionally squeezed into a subspace or given a zero member."""
    inst = random_instance(seed_, n, m, rank)
    w, k = inst.system("W"), inst.k_matrix
    if kind == "deficient":
        # members projected into range(K) plus one direction: T has rank at most rank(K) + 1
        rng = np.random.default_rng(seed_)
        extra = orthonormal_range(np.column_stack([k, rng.standard_normal(n)]))
        squeeze = extra @ extra.T
        w = FusionSystem(n, tuple((map_subspace(squeeze, sub), wt) for sub, wt in w.members))
    elif kind == "zero":
        members = list(w.members)
        members.insert(position % (len(members) + 1), (Subspace(n, np.zeros((n, 0))), 1.0))
        w = FusionSystem(n, tuple(members))
    return w, k


@seed(4)
@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 7),
    st.integers(1, 6),
    st.sampled_from(["plain", "deficient", "zero"]),
    st.integers(0, 6),
    st.data(),
)
def test_is_exact_matches_verifying_each_drop(seed_, n, m, kind, position, data):
    rank = data.draw(st.integers(0, n))
    w, k = _variant(seed_, n, m, rank, kind, position)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assume(verify_k_fusion(w, k).passed)
        report = is_exact(w, k)
        drops = [verify_k_fusion(w.drop(j), k) for j in range(len(w))]
    assert report.removable == tuple(cert.passed for cert in drops)
    assert report.exact == (not any(report.removable))
    for got, want in zip(report.certificates, drops):
        if want.passed:
            assert got.bounds.lower == pytest.approx(want.bounds.lower, rel=1e-10)
            assert got.bounds.upper == pytest.approx(want.bounds.upper, rel=1e-10)
            assert got.bounds.optimal


def _redundant(seed_=5, n=8):
    rng = np.random.default_rng(seed_)
    w = random_fusion_system(rng, n, [3] * 8, list(rng.uniform(0.5, 2.0, 8)))
    return w, rng.standard_normal((n, n))


def _is_exact_with_a_skewed_parent(monkeypatch, name, skew):
    """is_exact after the verified analysis's decomposition ``name`` is replaced by its skew."""
    w, k = _redundant()
    assert verify_k_fusion(w, k).passed  # the base analysis is checked and kept
    analysis = frames.frame_analysis(w, k)
    monkeypatch.setattr(analysis, name, skew(getattr(analysis, name)))
    return is_exact(w, k)


def test_is_exact_drops_are_cross_checked_by_the_pencil_route(monkeypatch):
    with pytest.raises(AgreementError):
        _is_exact_with_a_skewed_parent(monkeypatch, "pencil", skewed)


def test_is_exact_drops_are_cross_checked_by_the_svd_route(monkeypatch):
    def skewed(f):
        return numerics.Svd(u=f.u, singular_values=1.01 * f.singular_values, v=f.v)

    with pytest.raises(AgreementError):
        _is_exact_with_a_skewed_parent(monkeypatch, "factors", skewed)


def test_is_exact_takes_one_synthesis_svd(record_linalg):
    """Redundant: one n x Σd SVD and one n x n eigh per call, r x r singular values per drop."""
    w, k = _redundant(seed_=9, n=8)
    n, total = w.ambient_dim, synthesis(w).shape[1]
    assert total > n
    calls = record_linalg()
    report = is_exact(w, k)
    assert all(report.removable)
    wide = [c.shape for c in calls if c.name == "svd" and max(c.shape) >= total]
    assert wide == [(n, total)]
    assert [c.shape for c in calls if c.name == "eigh"] == [(n, n)]
    square = [c.with_vectors for c in calls if c.name == "svd" and c.shape == (n, n)]
    # the two rank-sized factors of the lower-bound matrices, once per call
    assert square.count(True) == 2 and square.count(False) == len(w)


def _exact_system():
    """Four members of dim 2 in R^8 (Σd = n), and the generator that drew them."""
    rng = np.random.default_rng(3)
    return random_fusion_system(rng, 8, [2] * 4, list(rng.uniform(0.5, 2.0, 4))), rng


def test_is_exact_analyzes_each_drop_of_an_exact_system_that_keeps_k_in_range(record_linalg):
    """Σd = n: every drop loses rank. Drop 0 fails its range check from the member's own rows.

    Each other drop keeps K in range and is decided by its own analysis: the
    n x (n - 2) SVD of the other columns and their pencil, which decomposes
    their (n - 2) x (n - 2) Gram. No drop takes an r x r decomposition.
    """
    w, rng = _exact_system()
    n = w.ambient_dim
    k = w.members[0][0].basis @ rng.standard_normal((2, n))
    calls = record_linalg()
    report = is_exact(w, k)
    assert report.removable == (False, True, True, True)
    assert "range obstruction" in report.certificates[0].message
    # T itself is n x n here: its SVD and the eigh of S, once per call
    assert [(c.name, c.with_vectors) for c in calls if c.shape == (n, n)] == [
        ("svd", True),
        ("eigh", True),
    ]
    tall = [(c.shape, c.with_vectors) for c in calls if c.name == "svd" and c.shape == (n, n - 2)]
    assert tall == [((n, n - 2), True)] * sum(report.removable)
    assert [c.shape for c in calls if c.name == "eigh"][1:] == [(n - 2, n - 2)] * 3


def test_a_drop_that_leaves_k_out_of_range_takes_no_rank_sized_decomposition(record_linalg):
    """Σd = n and K of full rank: every drop fails its range check from the member's rows."""
    w, rng = _exact_system()
    k = rng.standard_normal((w.ambient_dim, w.ambient_dim))
    calls = record_linalg()
    report = is_exact(w, k)
    assert report.removable == (False,) * len(w)
    assert all("range obstruction" in cert.message for cert in report.certificates)
    # the SVD of T and the eigh of S, once per call
    n = w.ambient_dim
    assert [(c.name, c.shape) for c in calls if c.with_vectors and c.shape == (n, n)] == [
        ("svd", (n, n)),
        ("eigh", (n, n)),
    ]


def test_each_drop_warns_about_zero_members_as_verifying_it_would():
    """R^3 with a plane, two zero members and a line: every drop leaves a zero member behind."""
    n = 3
    plane, zero, line = (Subspace(n, np.eye(n)[:, cols]) for cols in ([0, 1], [], [2]))
    w = FusionSystem(n, ((plane, 1.0), (zero, 1.0), (zero, 1.0), (line, 1.0)))
    k = np.diag([1.0, 1.0, 0.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        drops = [verify_k_fusion(w.drop(j), k) for j in range(len(w))]
    assert len(caught) == len(w)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = is_exact(w, k)
    # one warning for the full system, one for each drop
    assert len(caught) == 1 + len(w)
    assert report.removable == tuple(cert.passed for cert in drops) == (False, True, True, True)


def test_is_exact_of_zero_members_only_equals_verifying_each_drop():
    """T = 0 has rank 0, so no update applies: each drop is decided by its own analysis."""
    zero = Subspace(3, np.zeros((3, 0)))
    w = FusionSystem(3, ((zero, 1.0), (zero, 2.0)))
    k = np.zeros((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = is_exact(w, k)
        drops = [verify_k_fusion(w.drop(j), k) for j in range(len(w))]
    assert report.removable == tuple(cert.passed for cert in drops) == (True, True)
    for got, want in zip(report.certificates, drops):
        assert (got.bounds.lower, got.bounds.upper) == (want.bounds.lower, want.bounds.upper)


# the planted member's part off the span of the others; at 3e-2 the planted
# drop's nu sits at the c eps that marks a lost direction, on either side of it
PLANTED_DELTAS = [0.0] + [10.0**-p for p in range(12, 0, -1)] + [3e-2]


def _planted_drop_system(seed_, n, dims, position, delta, k_rank):
    """Members inside a hyperplane, each direction covered twice, plus one member off it by delta.

    The planted member's first column is a direction of the others plus delta
    times the normal of the hyperplane. K has rank ``k_rank``; below n its
    range lies in the hyperplane.
    """
    rng = np.random.default_rng(seed_)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    plane, normal = q[:, :-1], q[:, -1]
    bases = [plane @ rng.standard_normal((n - 1, d)) for d in dims + [n - 1, n - 1]]
    planted = bases[0] @ rng.standard_normal((bases[0].shape[1], 2))
    planted[:, 0] += delta * np.linalg.norm(planted[:, 0]) * normal
    bases.insert(position % (len(bases) + 1), planted)
    weights = rng.uniform(0.5, 2.0, len(bases))
    w = FusionSystem(n, tuple((subspace_from_spanning(b.T), wt) for b, wt in zip(bases, weights)))
    left = q if k_rank == n else plane[:, :k_rank]
    k = left @ rng.standard_normal((k_rank, n))
    return w, k


def _pencil_floor(w):
    """The pencil's accuracy floor on w: c eps times the condition number of S on its kept span."""
    lam = np.linalg.svd(synthesis(w), compute_uv=False) ** 2
    lam = lam[lam > numerics.DEFAULT_TOL.rank_rel * lam[0]]
    return numerics.SPAN_ROUNDING * lam[0] / lam[-1]


DROP_CALLS = ("row_downdate", "max_rayleigh")


def _drop_path(calls):
    """The outcome of one drop, from the ``DROP_CALLS`` it made in order.

    Its own analysis builds its pencil by ``max_rayleigh``; the update takes
    the pencil's rows by a second ``row_downdate``; a drop decided from the
    member's rows does neither.
    """
    if "max_rayleigh" in calls:
        return "own analysis"
    return "update" if calls.count("row_downdate") == 2 else "member rows"


def test_planted_drops_match_verifying_them_on_both_paths():
    """is_exact equals verifying each drop, whichever of the three outcomes decided it."""
    paths = set()

    @seed(12)
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 7),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.integers(0, 5),
        st.sampled_from(PLANTED_DELTAS),
        st.data(),
    )
    def check(seed_, n, dims, position, delta, data):
        k_rank = data.draw(st.sampled_from([n, 1, n // 2]))
        w, k = _planted_drop_system(seed_, n, dims, position, delta, k_rank)
        drops = []
        for j in range(len(w)):
            try:
                drops.append(verify_k_fusion(w.drop(j), k))
            except AgreementError:
                drops.append(None)
        try:
            assume(verify_k_fusion(w, k).passed)
        except AgreementError:
            with pytest.raises(AgreementError):
                is_exact(w, k)
            return
        floors = [_pencil_floor(w.drop(j)) for j in range(len(w))]
        try:
            report = is_exact(w, k)
        except AgreementError:
            # only where verifying some drop raises too
            assert None in drops
            return
        for got, want, floor in zip(report.certificates, drops, floors):
            if want is None:
                continue
            assert got.passed == want.passed
            assert got.message == want.message
            if want.witness is None:
                assert got.witness is None
            else:
                np.testing.assert_array_equal(got.witness, want.witness)
            if want.passed:
                pinv = want.details["lower_via_pinv"]
                assert got.details["lower_via_pinv"] == pytest.approx(pinv, rel=1e-10)
                assert got.bounds.lower == pytest.approx(want.bounds.lower, rel=1e-10 + floor)
                assert got.bounds.upper == pytest.approx(want.bounds.upper, rel=1e-10)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for name in DROP_CALLS:
                real = getattr(frames, name)

                def recording(*args, _real=real, _name=name):
                    calls.append(_name)
                    return _real(*args)

                patch.setattr(frames, name, recording)
            drops = frames.frame_analysis(w, k).drop_certificates(synthesis(w), w.block_slices())
            for _ in w.members:
                calls.clear()
                next(drops)
                paths.add(_drop_path(calls))

    check()
    assert paths == {"update", "member rows", "own analysis"}


def test_is_exact_at_the_pencil_floor_equals_verifying_each_drop():
    """One member off the others' hyperplane by 1e-4, so S has condition number 4e8.

    The parent's pencil floor c eps cond(S) exceeds the cross-check allowance,
    so no update decides: each drop is decided by its own analysis, the
    same as verifying it.
    """
    w, k = _planted_drop_system(5, 4, [2], 0, 1e-4, 2)
    report = is_exact(w, k)
    drops = [verify_k_fusion(w.drop(j), k) for j in range(len(w))]
    assert len(report.certificates) == len(drops) == 4
    for got, want in zip(report.certificates, drops):
        assert (got.passed, got.message) == (want.passed, want.message)
        assert got.bounds.lower == pytest.approx(want.bounds.lower, rel=1e-10)
        assert got.bounds.upper == pytest.approx(want.bounds.upper, rel=1e-10)


def test_a_drop_whose_own_cutoff_keeps_a_direction_the_parent_dropped_is_verified_afresh():
    """sigma_3 / sigma_1 of T is 9.6e-11, so T keeps rank 2; dropping member 1 or 3 lowers sigma_1.

    Those drops have sigma_3 / sigma_1 of 1.13e-10 and 1.14e-10, so their own
    analysis keeps rank 3 and finds the pencil unbounded, a direction that an
    update inside T's rank-2 span cannot see.
    """
    w, k = _planted_drop_system(4046677, 3, [3], 0, 1e-10, 1)
    report = is_exact(w, k)
    drops = [verify_k_fusion(w.drop(j), k) for j in range(len(w))]
    assert [cert.passed for cert in drops] == [True, False, True, False]
    for got, want in zip(report.certificates, drops):
        assert (got.passed, got.message) == (want.passed, want.message)
        if want.passed:
            assert got.bounds.lower == pytest.approx(want.bounds.lower, rel=1e-10)
            assert got.bounds.upper == pytest.approx(want.bounds.upper, rel=1e-10)


def test_hypothesis_draws_no_constants_from_the_package():
    """The examples an @seed fixes depend on the seed alone, not on the literals in src/."""
    from hypothesis.internal.conjecture import providers

    import kfusion.cli  # noqa: F401  (every module of the package)

    assert len(providers._get_local_constants()) == 0
