import sys
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis.internal.conjecture import providers

from kfusion.frames import FusionSystem, subspace_from_spanning, verify_k_fusion
from kfusion.numerics import Pencil

# Hypothesis draws a share of its integers from the literals of local modules,
# so an edit to any literal in src/ would change the examples an @seed fixes.
# An empty pool makes every example a function of its seed alone.
assert hasattr(providers, "_get_local_constants"), "Hypothesis moved its local-constant pool"
providers._get_local_constants = providers.Constants

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def traced_peak(run) -> int:
    """The peak of the memory Python allocates while ``run()`` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


class Call(NamedTuple):
    """One recorded call: the function's name, its arguments and the code object that made it."""

    name: str
    args: tuple
    kwargs: dict
    caller: object

    @property
    def shape(self):
        return np.shape(self.args[0])

    @property
    def with_vectors(self) -> bool:
        return self.kwargs.get("compute_uv", True)


@pytest.fixture
def record_linalg(monkeypatch):
    """``record(names, kernel)``: the list of calls made from then on to each function in ``names``.

    ``kernel`` is ``np.linalg`` (the default) or ``kfusion.numerics``, whose
    functions are wrapped in every ``kfusion`` module that binds them.
    """

    def record(names=("svd", "eigh"), kernel=np.linalg):
        calls = []
        modules = [kernel]
        if kernel is not np.linalg:
            modules = [m for name, m in sys.modules.items() if name.startswith("kfusion")]
        for name in names:
            real = getattr(kernel, name)

            def recording(*args, _real=real, _name=name, **kwargs):
                calls.append(Call(_name, args, kwargs, sys._getframe(1).f_code))
                return _real(*args, **kwargs)

            for module in modules:
                if vars(module).get(name) is real:
                    monkeypatch.setattr(module, name, recording)
        return calls

    return record


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
