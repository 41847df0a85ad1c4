import numpy as np
import pytest

from kfusion.frames import FusionSystem, subspace_from_spanning, verify_k_fusion
from kfusion.numerics import Pencil

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_system(ambient_dim, spans, weights=None):
    if weights is None:
        weights = [1.0] * len(spans)
    members = tuple(
        (subspace_from_spanning([np.asarray(v, dtype=float) for v in span]), weight)
        for span, weight in zip(spans, weights)
    )
    return FusionSystem(ambient_dim, members)


def random_fusion_system(rng, ambient_dim, member_dims, weights=None):
    spans = [rng.standard_normal((ambient_dim, d)).T for d in member_dims]
    return make_system(ambient_dim, spans, weights)


def skewed(pencil, factor=1.01):
    """``pencil`` with its kept eigenvalues divided by ``factor``, so that its values grow by it."""
    return Pencil(pencil.m, pencil.vecs, pencil.vals / factor, pencil.tol)


def bisected_synthesis_instance(cols=5, seed=0):
    """(W, K, q): K leaves the span of four rotated lines in R^5 by just under the containment threshold.

    W holds the lines spanned by the first four columns of the orthogonal q,
    drawn from ``seed``, and K (5 x cols) is those columns plus d times the
    fifth one in every column. d is bisected so that ``verify_k_fusion``
    still passes, which leaves ``x_w`` a residual just above
    ``eq_abs (1 + ||K||)``, yet within its own allowance. With cols = 4 the
    kernel of K is trivial.
    """
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))
    w = FusionSystem(5, tuple((subspace_from_spanning([q[:, i]]), 1.0) for i in range(4)))

    def k_at(d):
        return q[:, :4] @ np.eye(4, cols) + d * q[:, 4:5] @ np.ones((1, cols))

    inside, outside = 0.0, 1e-8
    for _ in range(60):
        mid = (inside + outside) / 2
        inside, outside = (mid, outside) if verify_k_fusion(w, k_at(mid)).passed else (inside, mid)
    return w, k_at(inside), q


@pytest.fixture
def r4_k():
    return np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


@pytest.fixture
def r4_system():
    return make_system(4, [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0)]])


@pytest.fixture
def r3_k():
    return np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.fixture
def r3_system():
    return make_system(3, [[(1, 1, 0), (0, 0, 1)], [(0, 0, 1)], [(1, 1, 0)]])


@pytest.fixture
def r3_dual():
    return make_system(3, [[(1, 0, 0), (0, 1, 0)], [(0, 1, 0)], [(1, 0, 0), (0, 0, 1)]])


@pytest.fixture
def r3_perturbed():
    return make_system(3, [[(1, 1, 0), (0, 0, 1)], [(0, 0, 1), (1, 1, 0)], [(1, 1, 0)]])
