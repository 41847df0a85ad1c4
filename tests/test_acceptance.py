"""Acceptance gate: the nine package-level criteria, one summary line each.

Criteria 5 and 6 each contain clauses whose quoted target values are not
what the constructions produce; those clauses run as strict expected
failures with the computed value stated next to the quoted one, and the
attainable clauses of the same criterion run normally.
"""

import numpy as np
import pytest

import conftest
from conftest import make_system

from kfusion.duality import (
    canonical_k_dual,
    check_sws_range_condition,
    enlarge_dual,
    k_dual_reconstruction,
    local_duality_equiv,
    local_frame_system,
    minimal_dual_test,
    qk_dual_from_x,
)
from kfusion.factorization import x_w
from kfusion.frames import (
    FusionSystem,
    frame_operator,
    is_exact,
    is_minimal,
    range_projector,
    same_subspace,
    subspace_from_columns,
    subspace_from_spanning,
    synthesis,
    verify_k_fusion,
)
from kfusion.numerics import numerical_rank, pinv, spectral_norm
from kfusion.perturbation import (
    analysis_epsilon,
    approximate_dual_norm,
    epsilon_threshold,
)
from kfusion.resolution import (
    Resolution,
    minimal_norm_check,
    pinv_via_xw,
    resolution_b,
    resolution_c,
    resolution_from_x,
    verify_resolution,
)

E1, E2, E3 = np.eye(3)


def _record(line):
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def _rotated(q, spans):
    return make_system(q.shape[0], [[q @ np.asarray(v, float) for v in s] for s in spans])


def _draw(rng, inside_range, max_rank=None):
    """Verified random instance; K always solvable through the synthesis."""
    while True:
        n = int(rng.integers(3, 9))
        if inside_range:
            r = int(rng.integers(2, n))
            carrier = np.linalg.qr(rng.standard_normal((n, r)))[0]
            spans = [
                (carrier @ rng.standard_normal((r, int(rng.integers(1, r + 1))))).T
                for _ in range(3)
            ]
            k = carrier @ rng.standard_normal((r, n))
        else:
            spans = [
                rng.standard_normal((int(rng.integers(1, n)), n)) for _ in range(3)
            ]
            k = None
        w = make_system(n, spans)
        t_w = synthesis(w)
        if k is None:
            rank = max_rank if max_rank is not None else n
            k = (
                t_w
                @ rng.standard_normal((t_w.shape[1], rank))
                @ rng.standard_normal((rank, n))
            )
        sv = np.linalg.svd(k, compute_uv=False)
        if sv[0] < 1e-3 or sv[sv > 1e-12 * sv[0]].min() < 1e-6 * sv[0]:
            continue
        if verify_k_fusion(w, k).passed:
            return w, k


# --------------------------------------------------------------- criterion 1


def test_criterion_1_r4_golden(r4_system, r4_k):
    cert = verify_k_fusion(r4_system, r4_k)
    assert cert.passed
    assert abs(cert.bounds.lower - 0.5) <= 1e-8
    assert abs(cert.bounds.upper - 1.0) <= 1e-8

    assert is_minimal(r4_system)

    report = is_exact(r4_system, r4_k)
    assert not report.exact
    survivor = verify_k_fusion(r4_system.drop(1), r4_k)
    assert survivor.passed
    assert abs(survivor.bounds.lower - 0.5) <= 1e-8
    assert abs(survivor.bounds.upper - 1.0) <= 1e-8
    _record("criterion 1: pass (R^4 bounds (1/2, 1), minimal, not exact)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_r3_golden(r3_system, r3_k):
    cert = verify_k_fusion(r3_system, r3_k)
    assert cert.passed
    assert abs(cert.bounds.lower - 1.0) <= 1e-8
    assert abs(cert.bounds.upper - 2.0) <= 1e-8

    sol = x_w(r3_system, r3_k)
    assert abs(sol.norm_sq - 1.0) <= 1e-8
    assert sol.nullspace_match
    assert sol.range_containment

    rng = np.random.default_rng(2)
    fs = rng.standard_normal((3, 100))
    a, b, c = fs
    adjoint_sq = np.linalg.norm(r3_k.T @ fs, axis=0) ** 2
    coeff_sq = np.linalg.norm(synthesis(r3_system).T @ fs, axis=0) ** 2
    np.testing.assert_allclose(adjoint_sq, (a + b) ** 2 + c**2, rtol=1e-8)
    np.testing.assert_allclose(coeff_sq, (a + b) ** 2 + 2 * c**2, rtol=1e-8)
    _record(
        "criterion 2: pass (R^3 bounds (1, 2), unit-norm minimal solution, "
        "quadratic forms on 100 random vectors)"
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_matrix_golden(r3_system, r3_k):
    s_on_range = frame_operator(r3_system) @ range_projector(r3_k)
    target = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    inv_target = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.5]])
    assert np.max(np.abs(s_on_range - target)) <= 1e-10
    assert np.max(np.abs(pinv(s_on_range) - inv_target)) <= 1e-10

    dual, cert, _ = canonical_k_dual(r3_system, r3_k)
    assert cert.passed
    expected = [
        subspace_from_spanning([E1, E2]),
        subspace_from_spanning([E2]),
        subspace_from_spanning([E1]),
    ]
    assert dual.dims() == [2, 1, 1]
    for (sub, _), want in zip(dual.members, expected):
        assert same_subspace(sub, want)
    _record(
        "criterion 3: pass (frame operator on range(K), its pseudo-inverse, "
        "canonical dual members)"
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_4_dual_goldens(r3_system, r3_k):
    base, _, _ = canonical_k_dual(r3_system, r3_k)
    enlarged, cert = enlarge_dual(
        r3_system, r3_k, base, 2, subspace_from_spanning([E3])
    )
    assert cert.passed
    assert cert.residual <= 1e-9
    assert same_subspace(enlarged.members[2][0], subspace_from_spanning([E1, E3]))

    sol = x_w(r3_system, r3_k)
    dual, _, qcert = qk_dual_from_x(r3_system, r3_k, sol)
    expected = [
        subspace_from_spanning([E1, E2]),
        subspace_from_spanning([E2]),
        subspace_from_spanning([E1]),
    ]
    for (sub, _), want in zip(dual.members, expected):
        assert same_subspace(sub, want)
    assert qcert.passed
    _record(
        "criterion 4: pass (enlarged dual keeps the reconstruction, "
        "solution row spaces rebuild the dual with a certified Q)"
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_perturbed_operator_displays(r3_system, r3_perturbed, r3_k):
    s_z = frame_operator(r3_perturbed) @ range_projector(r3_k)
    target = np.array([[1.5, 1.5, 0.0], [1.5, 1.5, 0.0], [0.0, 0.0, 2.0]])
    inv_target = np.array(
        [[1 / 6, 1 / 6, 0.0], [1 / 6, 1 / 6, 0.0], [0.0, 0.0, 0.5]]
    )
    assert np.max(np.abs(s_z - target)) <= 1e-10
    assert np.max(np.abs(pinv(s_z) - inv_target)) <= 1e-10
    _record("criterion 5 (perturbed frame operator displays): pass")


@pytest.mark.xfail(
    reason="the merged-member perturbation constant is sqrt(2)/2, not below 1/2",
)
def test_criterion_5_analysis_epsilon_below_half(r3_system, r3_perturbed, r3_k):
    eps = analysis_epsilon(r3_system, r3_perturbed, r3_k)
    _record(
        "criterion 5 (analysis epsilon < 1/2): FAIL expected "
        f"(computed {eps:.6f} = sqrt(2)/2)"
    )
    assert eps < 0.5


@pytest.mark.xfail(
    reason="the deviation norms are sqrt(2)/6 and 1/2, not 1/6 and 1/3",
)
def test_criterion_5_deviation_norms(r3_system, r3_perturbed, r3_k):
    report = epsilon_threshold(r3_system, r3_perturbed, r3_k)
    _record(
        "criterion 5 (deviation norms 1/6 and 1/3): FAIL expected "
        f"(computed {report.deviation:.6f} = sqrt(2)/6 and {report.dual_norm:.6f} = 1/2)"
    )
    assert abs(report.deviation - 1.0 / 6.0) <= 1e-9
    assert abs(report.dual_norm - 1.0 / 3.0) <= 1e-9


@pytest.mark.xfail(
    reason="the stability threshold evaluates to 7/9, not 1",
)
def test_criterion_5_threshold_value(r3_system, r3_perturbed, r3_k):
    report = epsilon_threshold(r3_system, r3_perturbed, r3_k)
    _record(
        "criterion 5 (stability threshold 1.0): FAIL expected "
        f"(computed {report.threshold:.6f} = 7/9)"
    )
    assert abs(report.threshold - 1.0) <= 1e-9


@pytest.mark.xfail(
    reason="the canonical dual sits at distance sqrt(2)/3 from K, not below 1/4",
)
def test_criterion_5_approximate_dual_norm(r3_system, r3_perturbed, r3_k):
    dual, _, _ = canonical_k_dual(r3_system, r3_k)
    cert = approximate_dual_norm(r3_perturbed, dual, r3_k)
    assert cert.passed
    _record(
        "criterion 5 (approximate dual norm < 1/4): FAIL expected "
        f"(computed {cert.residual:.6f} = sqrt(2)/3, still below 1)"
    )
    assert cert.residual < 0.25


# --------------------------------------------------------------- criterion 6


def test_criterion_6_lower_bound_and_factor_certificates():
    rng = np.random.default_rng(6)
    for _ in range(200):
        w, k = _draw(rng, inside_range=bool(rng.integers(0, 2)))
        cert = verify_k_fusion(w, k)
        sol = x_w(w, k)
        assert abs(cert.bounds.lower * sol.norm_sq - 1.0) <= 1e-7
        assert sol.nullspace_match
        assert sol.range_containment
        assert sol.residual <= 1e-8 * (1.0 + spectral_norm(k))
    _record(
        "criterion 6 (pencil lower bound equals the inverse square solution "
        "norm, factorization certificates): pass on 200 instances"
    )


def test_criterion_6_pinv_route_on_range_aligned_instances():
    rng = np.random.default_rng(66)
    for _ in range(200):
        w, k = _draw(rng, inside_range=True)
        f = k @ rng.standard_normal(k.shape[1])
        _, report = pinv_via_xw(w, k, f)
        assert report.matches_plain
        assert not report.projected
    _record(
        "criterion 6 (pseudo-inverse route, members inside range(K)): "
        "pass on 200 instances"
    )


@pytest.mark.xfail(
    reason="the minimal synthesis preimage differs from the pseudo-inverse of "
    "the projected synthesis whenever range(T_W) meets the orthogonal "
    "complement of range(K); an oblique member produces a gap of 1/sqrt(3)",
)
def test_criterion_6_pinv_route_on_general_instances():
    _record(
        "criterion 6 (pseudo-inverse route on unrestricted instances): FAIL "
        "expected (oblique-member witness gap 1/sqrt(3))"
    )
    w = make_system(3, [[list(E1), list(E2)], [list((E2 + E3) / np.sqrt(2.0))]])
    k = np.diag([1.0, 1.0, 0.0])
    _, report = pinv_via_xw(w, k, E2)
    assert report.matches_plain


# --------------------------------------------------------------- criterion 7


def test_criterion_7_reconstruction_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w, k = _draw(rng, inside_range=bool(rng.integers(0, 2)))
        n = w.ambient_dim
        dual, cert, _ = canonical_k_dual(w, k)
        assert cert.passed
        recon, _ = k_dual_reconstruction(w, dual, k)
        fs = rng.standard_normal((n, 100))
        target = k @ fs
        scale = 1.0 + np.linalg.norm(target, axis=0)
        for op in (
            recon,
            resolution_b(w, k).weighted_sum(),
            resolution_c(w, k).weighted_sum(),
        ):
            residual = np.linalg.norm(op @ fs - target, axis=0)
            assert np.all(residual <= 1e-8 * scale)
        res_x = resolution_from_x(w, k, x_w(w, k))
        assert verify_resolution(res_x, k).passed
    _record(
        "criterion 7: pass (canonical dual and both closed-form resolutions "
        "rebuild K f on 100 random vectors per instance)"
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_inequalities():
    rng = np.random.default_rng(8)
    for _ in range(25):
        w, k = _draw(rng, inside_range=bool(rng.integers(0, 2)))
        sol = x_w(w, k)
        t_w = synthesis(w)
        kernel = np.eye(t_w.shape[1]) - pinv(t_w) @ t_w
        shift = kernel @ rng.standard_normal(sol.x.shape)
        for x_mat in (sol.x, sol.x + shift):
            thetas = tuple(
                sub.basis @ x_mat[sl, :]
                for (sub, _), sl in zip(w.members, w.block_slices())
            )
            res = Resolution(
                thetas=thetas, weights=tuple(np.sqrt(wt) for wt in w.weights)
            )
            report = minimal_norm_check(w, k, res)
            assert report.plain_margin[0] >= -1e-9
            assert report.centered_margin[0] >= -1e-9

        _, _, qcert = qk_dual_from_x(w, k, sol)
        assert qcert.passed
        assert qcert.details["lower_bound_ok"]
        assert qcert.details["upper_bound_ok"]

    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, n + 1))
        v = subspace_from_columns(rng.standard_normal((n, d)))
        t = rng.standard_normal((m, n))
        if rng.integers(0, 2):
            t = rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
        moved = range_projector(t @ v.basis)
        gap = spectral_norm(v.projector() @ t.T - v.projector() @ t.T @ moved)
        assert gap <= 1e-10
    _record(
        "criterion 8: pass (pointwise minimality margins, coefficient-operator "
        "bound floors, projector transfer identity)"
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_biconditional_suites(r3_system, r3_dual, r3_k):
    golden = check_sws_range_condition(r3_system, r3_k)
    assert golden.range_condition and golden.operator_equality
    negative = check_sws_range_condition(
        make_system(3, [[list(E1), list(E2)], [[0.0, 1.0, 1.0]]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
    )
    assert not negative.range_condition and not negative.operator_equality

    w4 = make_system(4, [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0]]])
    k4 = np.diag([1.0, 1.0, 1.0, 0.0])
    good = minimal_dual_test(
        w4,
        k4,
        make_system(
            4, [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], [[0, 0, 1, 0]]]
        ),
    )
    assert good.is_dual and good.agree
    bad = minimal_dual_test(w4, k4, make_system(4, [[[1, 0, 0, 0]], [[0, 0, 1, 0]]]))
    assert not bad.is_dual and bad.agree

    local_good = local_frame_system(r3_dual, [[E1, E2], [E2], [E1, E3]])
    assert local_duality_equiv(r3_system, r3_dual, local_good, r3_k).continuous_pass
    corrupted = make_system(3, [[list(E1), list(E3)], [list(E2)], [list(E1), list(E3)]])
    local_bad = local_frame_system(corrupted, [[E1, E3], [E2], [E1, E3]])
    off = local_duality_equiv(r3_system, corrupted, local_bad, r3_k)
    assert not off.continuous_pass and not off.discrete_pass

    rng = np.random.default_rng(9)

    sws_hits = {True: 0, False: 0}
    for i in range(50):
        if i % 2 == 0:
            w, k = _draw(rng, inside_range=True)
        else:
            w, k = _draw(rng, inside_range=False, max_rank=2)
        report = check_sws_range_condition(w, k)
        sws_hits[report.range_condition] += 1
        if report.operator_equality:
            assert report.families_equal
    assert sws_hits[True] >= 5 and sws_hits[False] >= 5

    minimal_hits = {True: 0, False: 0}
    for i in range(50):
        n = int(rng.integers(4, 7))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = FusionSystem(
            n,
            (
                (subspace_from_columns(q[:, :2]), 1.0),
                (subspace_from_columns(q[:, 2:3]), 1.0),
            ),
        )
        k = q[:, :3] @ rng.standard_normal((3, n))
        if numerical_rank(k) < 3:
            continue
        dual, _, _ = canonical_k_dual(w, k)
        if i % 2 == 0:
            grown = subspace_from_columns(
                np.hstack([dual.members[0][0].basis, rng.standard_normal((n, 1))])
            )
            v = FusionSystem(n, ((grown, 1.0), dual.members[1]))
        else:
            stray = subspace_from_columns(rng.standard_normal((n, 1)))
            v = FusionSystem(n, (dual.members[0], (stray, 1.0)))
        report = minimal_dual_test(w, k, v)
        assert not report.skipped
        assert report.agree
        minimal_hits[report.is_dual] += 1
    assert minimal_hits[True] >= 5 and minimal_hits[False] >= 5

    local_hits = {True: 0, False: 0}
    w_spans = [[E1 + E2, E3], [E3], [E1 + E2]]
    good_spans = [[E1, E2], [E2], [E1, E3]]
    bad_spans = [[E1, E3], [E2], [E1, E3]]
    for i in range(50):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        w = _rotated(q, w_spans)
        k = q @ r3_k @ q.T
        spans = good_spans if i % 2 == 0 else bad_spans
        v = _rotated(q, spans)
        local = local_frame_system(v, [[q @ vec for vec in fam] for fam in spans])
        report = local_duality_equiv(w, v, local, k)
        assert report.operators_match
        assert report.continuous_pass == report.discrete_pass
        local_hits[report.continuous_pass] += 1
    assert local_hits[True] >= 5 and local_hits[False] >= 5

    _record(
        "criterion 9: pass (equivalence suites agree on the goldens and 50 "
        "random instances each, both branches exercised)"
    )
