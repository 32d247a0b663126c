"""Finitely supported measures on a kernel ground set.

Probability measures carry the candidate solutions; signed measures carry
hedges. Atoms reference ground points by id. Measures are immutable values,
every operation returns a new one.
"""

from dataclasses import dataclass
from typing import Tuple
import warnings

import numpy as np

from .errors import AtomRescueWarning, InvalidInput, TOutOfRange, integer, real, reals

PROBABILITY = "probability"
SIGNED = "signed"

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class AtomicMeasure:
    """Atoms (point id, weight) plus read-only ids and weights arrays in atom
    order, built once; equality and hashing look at atoms and kind only."""

    atoms: Tuple[Tuple[int, float], ...]
    kind: str = PROBABILITY

    def __post_init__(self):
        if self.kind not in (PROBABILITY, SIGNED):
            raise InvalidInput("measure kind must be probability or signed")
        atoms = tuple((integer(i, "atom id"), real(w, "atom weight")) for i, w in self.atoms)
        by_id = dict(atoms)
        if len(by_id) != len(atoms):
            raise InvalidInput("measure atoms repeat a point id")
        ids = np.array([i for i, _ in atoms], dtype=int)
        ws = np.array([w for _, w in atoms], dtype=float)
        if ids.min(initial=0) < 0:
            raise InvalidInput("atom id %d is negative" % ids.min())
        if self.kind == PROBABILITY:
            if not atoms:
                raise InvalidInput("probability measure needs at least one atom")
            if ws.min(initial=0.0) < -_MASS_TOL:
                raise InvalidInput(
                    "probability measure has negative weight %g" % ws.min()
                )
            if abs(ws.sum() - 1.0) > 1e-9:
                raise InvalidInput(
                    "probability weights sum to %.17g, not 1" % ws.sum()
                )
        ids.setflags(write=False)
        ws.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "_by_id", by_id)

    def total_mass(self):
        return float(sum(w for _, w in self.atoms))

    def support(self):
        """Ids carrying nonzero weight, ascending."""
        return tuple(sorted(i for i, w in self.atoms if w != 0.0))

    def weight_of(self, point_id):
        return self._by_id.get(point_id, 0.0)

    def ids_within(self, n):
        """The ids, refusing an atom outside a ground set of n points."""
        if self.ids.size and self.ids.max() >= n:
            raise InvalidInput("atom id %d outside ground set of size %d" % (self.ids.max(), n))
        return self.ids

    def as_vector(self, n):
        v = np.zeros(n)
        v[self.ids_within(n)] = self.weights
        return v


def delta(point_id):
    return AtomicMeasure(((point_id, 1.0),), PROBABILITY)


def probability(ids, weights, weight_tol=0.0):
    """Probability measure from parallel arrays; clamps round-off negatives
    and renormalizes. Atoms at or below weight_tol are dropped."""
    ids = np.asarray(ids)
    w = reals(weights, "weights")
    if w.min(initial=0.0) < -1e-9:
        raise InvalidInput("weight %g too negative for a probability measure" % w.min())
    w = np.maximum(w, 0.0)
    keep = w > weight_tol
    if not keep.any():
        raise InvalidInput("all weights vanished; cannot normalize")
    w = w[keep]
    ids = ids[keep]
    w = w / w.sum()
    order = np.argsort(ids)
    return AtomicMeasure(tuple(zip(ids[order].tolist(), w[order].tolist())), PROBABILITY)


def signed(ids, weights):
    order = np.argsort(ids)
    ids = np.asarray(ids)[order]
    w = np.asarray(weights)[order]
    return AtomicMeasure(tuple(zip(ids.tolist(), w.tolist())), SIGNED)


# -- kernel-dependent arithmetic -------------------------------------------

def mu_eval(measure, kern, x):
    """Embedded function value mu(x) = sum_i w_i k(x_i, x).

    x is a ground id, or raw coordinates for coordinate kernels.
    """
    ids = measure.ids_within(kern.n)
    if isinstance(x, (int, np.integer)):
        return float(np.dot(measure.weights, kern.gram[ids, kern._id(x)]))
    return float(sum(w * kern.eval(i, x) for i, w in measure.atoms))


def norm_sq(measure, kern):
    """||mu||^2 = w' G w, clamped at zero from below."""
    ids = measure.ids_within(kern.n)
    w = measure.weights
    val = float(w @ kern.gram[np.ix_(ids, ids)] @ w)
    return max(0.0, val)


def inner(mu, nu, kern):
    mu_ids, nu_ids = mu.ids_within(kern.n), nu.ids_within(kern.n)
    return float(mu.weights @ kern.gram[np.ix_(mu_ids, nu_ids)] @ nu.weights)


def embedded_distance(mu, nu, kern):
    """||mu - nu|| in the kernel embedding.

    Computed through the difference of weight vectors rather than as
    ||mu||^2 - 2<mu,nu> + ||nu||^2; the latter cancels catastrophically
    for nearby measures and cannot resolve distances below sqrt(eps).
    """
    ids = np.union1d(mu.ids_within(kern.n), nu.ids_within(kern.n))
    if not ids.size:
        return 0.0
    dw = np.zeros(ids.size)
    dw[np.searchsorted(ids, mu.ids)] = mu.weights
    dw[np.searchsorted(ids, nu.ids)] -= nu.weights
    G = kern.gram[np.ix_(ids, ids)]
    return float(np.sqrt(max(0.0, float(dw @ G @ dw))))


def convex_combine(mu, x, t):
    """(1-t) mu + t delta_x, merging x into the support if present."""
    if mu.kind != PROBABILITY:
        raise InvalidInput("convex_combine needs a probability measure")
    if not 0.0 <= t <= 1.0:
        raise TOutOfRange("t = %.17g outside [0, 1]" % t)
    x = integer(x, "point id")
    out = {i: (1.0 - t) * w for i, w in mu.atoms}
    out[x] = out.get(x, 0.0) + t
    atoms = tuple(sorted((i, w) for i, w in out.items() if w != 0.0))
    return AtomicMeasure(atoms, PROBABILITY)


def drop_small_atoms(measure, weight_tol):
    """Remove atoms under weight_tol and rescale the rest to mass one.

    Refuses to empty the measure: if every atom is small the input comes
    back unchanged with a warning.
    """
    if measure.kind != PROBABILITY:
        raise InvalidInput("drop_small_atoms needs a probability measure")
    kept = [(i, w) for i, w in measure.atoms if w >= weight_tol]
    if not kept:
        warnings.warn(
            "every atom is below weight_tol %g; measure left unchanged" % weight_tol,
            AtomRescueWarning,
            stacklevel=2,
        )
        return measure
    if len(kept) == len(measure.atoms):
        return measure
    total = sum(w for _, w in kept)
    atoms = tuple((i, w / total) for i, w in kept)
    return AtomicMeasure(atoms, PROBABILITY)
