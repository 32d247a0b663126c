import hashlib
import tracemalloc

import numpy as np
import pytest

import topiary as tp

ZIGZAG_COORDS = [(-3.0, 1.0), (0.0, 2.0), (2.0, 1.0)]
ZIGZAG_GRAM = np.array([[10.0, 2.0, -5.0], [2.0, 4.0, 2.0], [-5.0, 2.0, 5.0]])


@pytest.fixture
def zigzag():
    """Euclidean kernel of (-3,1),(0,2),(2,1); the worked instance."""
    return tp.euclidean(ZIGZAG_COORDS)


@pytest.fixture
def zigzag_psi(zigzag):
    return tp.PsiSpec.zero(zigzag)


@pytest.fixture
def named_atoms(monkeypatch):
    """The atoms `SolverState._cover` names as lying on the affine hull of
    the atoms bordered before them, in the order it names them."""
    real, named = tp.SolverState._cover, []

    def spy(self, T):
        a = real(self, T)
        if a is not None:
            named.append(a)
        return a

    monkeypatch.setattr(tp.SolverState, "_cover", spy)
    return named


def random_instance(rng, n):
    """Random PSD Gram (Wishart) and psi uniform in [-1, 1]^n."""
    A = rng.normal(size=(n, n + 2))
    G = A @ A.T
    psi = rng.uniform(-1.0, 1.0, size=n)
    return tp.explicit_gram(G), tp.PsiSpec.table(psi)


def peak_bytes(fn):
    """The tracemalloc peak, in bytes, of what fn() allocates while it runs
    (memory held before the call is not counted)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def embedding_gap(kern, mu, nu):
    """||mu - nu|| through the Gram; works on weight vectors too."""
    return tp.embedded_distance(mu, nu, kern)


def numpy_margins(G, psi, measure):
    """(max margin, min support margin) of measure, recomputed from the Gram
    matrix and psi values alone."""
    ids = np.array([i for i, _ in measure.atoms])
    w = np.array([v for _, v in measure.atoms])
    mu = G[:, ids] @ w
    iota = psi - mu - (float(psi[ids] @ w) - float(w @ mu[ids]))
    return float(iota.max()), float(iota[ids].min())


# The maze masks below are 120 x 120 cells of 0.05 centred on the origin.
_CENTRE = (np.arange(120) - 119 / 2.0) * 0.05
_RADIUS = np.hypot(_CENTRE[None, :], _CENTRE[:, None])
_ANGLE = np.degrees(np.arctan2(-_CENTRE[:, None], _CENTRE[None, :]))  # top row: largest y


def _band(r0, r1, gap_deg):
    """Obstacle cells with r0 <= |z| <= r1 outside a 25 degree gap at gap_deg."""
    off = np.abs((_ANGLE - gap_deg + 180.0) % 360.0 - 180.0)
    return (_RADIUS >= r0) & (_RADIUS <= r1) & (off > 12.5)


def seeded_ring_mask(seed):
    """The benchmark's maze-ring mask for seed (perfbench `ring_mask`): the
    ring 0.85-1.15 with its gap angle drawn from a stream keyed by the
    seed and the workload name."""
    key = int.from_bytes(hashlib.sha256(b"maze-ring").digest()[:4], "little")
    gap = np.random.default_rng([int(seed), key]).uniform(0.0, 360.0)
    return _band(0.85, 1.15, gap)


def seeded_two_ring_mask(seed):
    """Rings 0.45-0.6 and 0.95-1.1 with gaps on opposite sides, at g and
    g + 180 degrees for g = default_rng(seed).uniform(0, 360)."""
    gap = np.random.default_rng(seed).uniform(0.0, 360.0)
    return _band(0.45, 0.6, gap) | _band(0.95, 1.1, gap + 180.0)
