"""The stability questions in each member's own subspace: the projected falsifier and downdated exactness."""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import random_fusion_system
from kfusion import frames, numerics
from kfusion.frames import (
    FusionSystem,
    Subspace,
    is_exact,
    map_subspace,
    synthesis,
    verify_k_fusion,
)
from kfusion.instances import random_instance
from kfusion.numerics import AgreementError, orthonormal_range
from kfusion.perturbation import certify_perturbation

SVD_FAMILY = {"svd", "numerical_rank", "pinv", "spectral_norm", "orthonormal_range", "null_basis"}


def _planted(n=64, rank=4, seed=21):
    """Eight unperturbed members and one swapped line pair orthogonal to range(K).

    Member 3 moves from the line of a to the line of b, with a, b and range(K)
    mutually orthogonal, so every violation of its hypothesis lives in the
    six-dimensional span of a, b and range(K).
    """
    rng = np.random.default_rng(seed)
    # about one uniform direction of that span in a hundred violates at epsilon = 1
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


@pytest.mark.parametrize("seed_", range(5))
def test_projected_sampler_finds_a_planted_low_dimensional_violation(seed_):
    w, z, k, a, b = _planted()
    lambda1, lambda2, epsilon = 0.5, 0.5, 1.0
    report = certify_perturbation(w, z, k, lambda1, lambda2, epsilon, seed=seed_)
    assert report.decided_by == "falsifier"
    assert not report.certified
    f = report.falsified_witness
    assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)
    # the witness lies in span(a, b, range K) and violates member 3, checked by plain numpy
    span = np.linalg.qr(np.column_stack([a, b, k]))[0][:, : 2 + np.linalg.matrix_rank(k)]
    assert np.linalg.norm(f - span @ (span.T @ f)) <= 1e-12
    p_w, p_z = np.outer(a, a), np.outer(b, b)
    lhs = np.linalg.norm((p_w - p_z) @ f)
    rhs = (
        lambda1 * np.linalg.norm(p_w @ f)
        + lambda2 * np.linalg.norm(p_z @ f)
        + epsilon * np.linalg.norm(k.T @ f)
    )
    assert lhs > rhs


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
    report = certify_perturbation(w, z, k, 0.5, 0.5, margin * ratio, samples=100)
    assert (report.decided_by == "certificate") == (margin > 1.0)


@pytest.mark.parametrize("angle, certified", [(1e-11, True), (1e-6, False)])
def test_certificate_requires_the_gap_to_vanish_off_range_k(angle, certified):
    w, z, k = _rotated_pair(6, 3, angle)
    assert verify_k_fusion(w, k).passed
    report = certify_perturbation(w, z, k, 0.5, 0.5, 10.0, samples=100)
    assert (report.decided_by == "certificate") is certified


class _RecordingRng:
    """A numpy Generator that records the shape of each Gaussian draw."""

    def __init__(self, rng, shapes):
        self._rng, self._shapes = rng, shapes

    def standard_normal(self, size):
        self._shapes.append(size)
        return self._rng.standard_normal(size)


def test_sampler_draws_batches_in_each_members_subspace(monkeypatch):
    """Each batch has dim S_i rows, never n, so no n x n matrix meets a batch."""
    w, z, k, _, _ = _planted()
    n = w.ambient_dim
    real = np.random.default_rng
    shapes = []
    monkeypatch.setattr(np.random, "default_rng", lambda s: _RecordingRng(real(s), shapes))
    report = certify_perturbation(w, z, k, 0.5, 0.5, 1.0, samples=2000)
    k_range = orthonormal_range(k)
    dims = [
        orthonormal_range(np.hstack([ws.basis, zs.basis, k_range])).shape[1]
        for (ws, _), (zs, _) in zip(w.members, z.members)
    ]
    # the sampler walks the members in order and stops at the planted one
    assert report.decided_by == "falsifier"
    assert shapes == [(dim, 2000) for dim in dims[:4]]
    assert dims[3] == 6 and max(dims) < n


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


def test_is_exact_drops_are_cross_checked_by_the_pencil_route(monkeypatch):
    w, k = _redundant()
    assert verify_k_fusion(w, k).passed  # the base analysis is checked and kept
    real = frames.max_rayleigh
    monkeypatch.setattr(frames, "max_rayleigh", lambda a, b, tol: 1.01 * real(a, b, tol))
    with pytest.raises(AgreementError):
        is_exact(w, k)


def test_is_exact_drops_are_cross_checked_by_the_svd_route(monkeypatch):
    w, k = _redundant()
    assert verify_k_fusion(w, k).passed
    real = frames.svd

    def skewed(m):
        f = real(m)
        return numerics.Svd(u=f.u, singular_values=1.01 * f.singular_values, v=f.v)

    monkeypatch.setattr(frames, "svd", skewed)
    with pytest.raises(AgreementError):
        is_exact(w, k)


def test_is_exact_takes_one_synthesis_svd(monkeypatch):
    """One n x Σd SVD per call, whatever the member count; one n x n pencil per member."""
    w, k = _redundant(seed_=9, n=8)
    n, total = w.ambient_dim, synthesis(w).shape[1]
    assert total > n
    calls = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, np.shape(args[0])))
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {
        getattr(numerics, name): wrap(name, getattr(numerics, name))
        for name in SVD_FAMILY | {"max_rayleigh"}
    }
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("kfusion"):
            for attr, obj in list(vars(module).items()):
                if callable(obj) and obj in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[obj])

    report = is_exact(w, k)
    assert all(report.removable)
    wide = [shape for name, shape in calls if name in SVD_FAMILY and max(shape) >= total]
    assert wide == [(n, total)]
    pencils = [shape for name, shape in calls if name == "max_rayleigh"]
    assert pencils == [(n, n)] * (len(w) + 1)
