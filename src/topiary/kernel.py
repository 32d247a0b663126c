"""Ground sets and reproducing-kernel pairings.

Four kernel variants: an explicit Gram matrix, Euclidean dot products, the
real Fock kernel Re e^{z conj(w)}, and the real Hardy kernel
Re (1 + z conj(w)) / (1 - z conj(w)) on the open unit disk. Each coordinate
variant has one pairing function, vectorized and carrying the variant's
domain guard; the Gram, `Kernel.row` and `Kernel.eval` all call it.

Every Gram or covariance matrix passes one gate, `checked_gram`, with one
tolerance, PSD_TOL: its lowest eigenvalue must be at least -PSD_TOL times
its largest absolute diagonal entry. No silent jitter and no diagonal
loading: a matrix that fails the gate is refused with the offending
eigenvalue. A Kernel owns its finite ground set; its Gram and its duplicate
groups are computed once.

The Fock and Hardy Grams are proved by arithmetic, not by an
eigendecomposition. In exact arithmetic each is PSD (the real part of a PSD
Hermitian matrix), so by Weyl's inequality the computed Gram G has
lambda_min(G) >= -||G - K||_2 for the exact kernel matrix K. Each computed
entry with t = |z||w| lies within ENTRY_ERROR (1 + t) e^t of the exact one
for Fock and within ENTRY_ERROR / (1 - t)^2 for Hardy: the rounding of the
complex product, of exp and cos or of the quotient, and of the
symmetrization, on the premise that the math library's exp, cos and complex
division are within a few ulps. ||G - K||_2 is at most n times the largest
entry error, `fock_error` and `hardy_error`, O(n) in the point radii. When
that bound is at most the gate's floor, the gate's predicate holds and
`eigvalsh` is skipped (for Fock that is any n <= 400 and, at n = 700, any
radius up to 20). A Hardy set too close to |z| = 1, and every explicit,
Euclidean and covariance matrix, goes through `eigvalsh` as before. At
TOPIARY_LOG=debug the gate logs which route it took.
"""

import logging
import math
import numbers
import warnings

import numpy as np

from .errors import DomainError, DuplicatePointsWarning, InvalidInput, NonPSD, integer, reals

# Re z*conj(w) beyond this overflows exp(); sqrt(700) ~ 26.45 is the largest
# admissible point radius for the Fock variant.
FOCK_EXPONENT_GUARD = 700.0

PSD_TOL = 1e-9  # lowest admissible eigenvalue, relative to max|diag|

# Rounding error of one computed Fock or Hardy entry, in units of the
# variant's envelope ((1 + t) e^t or 1 / (1 - t)^2 at t = |z||w|). Against
# long-double references the worst entry uses under a quarter of it (about
# 2 u for Fock and 4 u for Hardy, u = eps / 2).
ENTRY_ERROR = 16 * np.finfo(float).eps

log = logging.getLogger("topiary.kernel")

_ID_TYPES = (int, np.integer)


def _as_complex_array(points):
    """Complex scalars as they are; [re, im] rows need exactly two columns."""
    try:
        return reals(points, "points", 1, numbers.Complex)
    except InvalidInput:
        pairs = reals(points, "points", 2)
    if pairs.shape[1] != 2:
        raise InvalidInput("points need [re, im] rows, got %d columns" % pairs.shape[1])
    return pairs[:, 0] + 1j * pairs[:, 1]


# f(A, B)[i, j] = k(A[i], B[j]); a single point (a vector for euclidean, a
# complex scalar for fock/hardy) as A or B drops that axis.

def euclidean_pairing(A, B):
    return A @ B.T


def fock_pairing(A, B):
    U = np.multiply.outer(A, np.conj(B))
    big = float(np.max(np.abs(U), initial=0.0))
    if big > FOCK_EXPONENT_GUARD:
        raise DomainError(
            "fock kernel overflow: |z*conj(w)| = %g exceeds %g (max admissible "
            "point radius %.4f)" % (big, FOCK_EXPONENT_GUARD, np.sqrt(FOCK_EXPONENT_GUARD))
        )
    return np.exp(U.real) * np.cos(U.imag)


def hardy_pairing(A, B):
    for P in (A, B):
        radius = float(np.max(np.abs(P), initial=0.0))
        if radius >= 1.0:
            raise DomainError("hardy kernel requires |z| < 1, got |z| = %g" % radius)
    U = np.multiply.outer(A, np.conj(B))
    return ((1.0 + U) / (1.0 - U)).real


PAIRINGS = {"euclidean": euclidean_pairing, "fock": fock_pairing, "hardy": hardy_pairing}


# Bounds on ||G - K||_2 for the symmetrized Gram G = pairing(Z, Z) of points
# with these radii |Z| against the exact kernel matrix K: n times the
# largest entry error, which each envelope reaches at t = max radius^2.

def fock_error(radii):
    t = float(np.max(radii)) ** 2
    return len(radii) * ENTRY_ERROR * (1.0 + t) * math.exp(t)


def hardy_error(radii):
    t = float(np.max(radii)) ** 2
    return len(radii) * ENTRY_ERROR / (1.0 - t) ** 2


ERRORS = {"fock": fock_error, "hardy": hardy_error}


def checked_gram(matrix, error=None):
    """The symmetrized matrix, once its entries are finite and
    max|G - G'| <= 1e-12 * max(1, max|G|) (else InvalidInput) and its lowest
    eigenvalue is at least -PSD_TOL * max|diag|, the scale being 1 for a
    zero diagonal (else NonPSD carrying that eigenvalue).

    `error`, when given, bounds ||G - K||_2 for a PSD matrix K; when it is
    at most the floor PSD_TOL * max|diag|, lambda_min(G) >= -error already
    meets the floor and no eigendecomposition is made."""
    G = np.asarray(matrix, dtype=float)
    if not np.isfinite(G).all():
        raise InvalidInput("gram matrix has non-finite entries")
    skew = float(np.max(np.abs(G - G.T), initial=0.0))
    if skew > 1e-12 * max(1.0, float(np.max(np.abs(G), initial=0.0))):
        raise InvalidInput("gram matrix is not symmetric (skew %.3g)" % skew)
    G = (G + G.T) / 2.0
    diag_scale = float(np.max(np.abs(np.diag(G)), initial=0.0)) or 1.0
    floor = PSD_TOL * diag_scale
    if error is not None and error <= floor:
        log.debug("psd gate: rounding bound %.3g <= floor %.3g, no eigvalsh", error, floor)
        return G
    lowest = float(np.linalg.eigvalsh(G).min(initial=np.inf))
    log.debug("psd gate: lowest eigenvalue %.3g, floor -%.3g", lowest, floor)
    if lowest < -floor:
        raise NonPSD(
            "gram matrix is not positive semidefinite: "
            "eigenvalue %g < -%g * %g" % (lowest, PSD_TOL, diag_scale),
            eigenvalue=lowest,
        )
    return G


class Kernel:
    """A kernel variant together with its finite ground set.

    Immutable after construction; the Gram matrix is cached write-once and
    shared. Points are addressed by their integer id (position in the
    ground set); the constructors below check the numbers they are given.
    """

    def __init__(self, variant, gram, labels=None, _coords=None):
        self.variant = variant
        self._coords = _coords
        G = np.asarray(gram, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise InvalidInput("gram matrix must be square, got shape %s" % (G.shape,))
        if G.size == 0:
            raise InvalidInput("ground set is empty")
        self._labels = _check_labels(labels, G.shape[0])
        # a fock or hardy gram is PAIRINGS[variant](_coords, _coords), which
        # the error functions bound
        error = ERRORS[variant](np.abs(_coords)) if variant in ERRORS else None
        G = checked_gram(G, error)
        G.setflags(write=False)
        self._gram = G

        keys = {}
        # an entry too large to scale by 1e12 keeps its own value; -0.0 +
        # 0.0 is 0.0, so entries that round to either zero hash alike
        with np.errstate(over="ignore"):
            Q = np.round(G, 12)
        np.copyto(Q, G, where=np.isinf(Q))
        Q += 0.0
        for i, row in enumerate(Q):
            keys.setdefault(row.tobytes(), []).append(i)
        self._duplicates = [ids for ids in keys.values() if len(ids) > 1]
        if self._duplicates:
            warnings.warn(
                "ground set contains %d group(s) of duplicate points (equal "
                "Gram rows); solvers deduplicate before optimizing" % len(self._duplicates),
                DuplicatePointsWarning,
                stacklevel=2,
            )

    # -- basic queries ----------------------------------------------------

    @property
    def n(self):
        return len(self._labels)

    @property
    def gram(self):
        return self._gram

    @property
    def coords(self):
        """Coordinate array for coordinate-based variants, else None."""
        return self._coords

    def labels(self):
        return list(self._labels)

    def _id(self, x):
        """The integer id x, refusing a non-integer or one outside 0..n-1
        rather than truncating or wrapping it."""
        try:
            i = integer(x, "point id")
        except InvalidInput:
            i = -1
        if not 0 <= i < self.n:
            raise InvalidInput("point id %r outside ground set of size %d" % (x, self.n))
        return i

    def _point(self, x):
        """Coordinates of a ground id, or checked raw coordinates of a point
        that may lie off the ground set; coordinate variants only."""
        if isinstance(x, _ID_TYPES):
            return self._coords[self._id(x)]
        if self.variant == "euclidean":
            return reals(x, "point", 1)
        return _as_complex_array([x]).item()  # a complex scalar or one [re, im] pair

    def eval(self, x, y):
        """k(x, y); x and y are ground ids or, for coordinate variants,
        raw coordinates."""
        if self._coords is None or (isinstance(x, _ID_TYPES) and isinstance(y, _ID_TYPES)):
            return float(self._gram[self._id(x), self._id(y)])
        a, b = self._point(x), self._point(y)
        return float(PAIRINGS[self.variant](a, b))

    def row(self, z):
        """Vector of k(x_i, z) over the ground set; z is a ground id or, for
        coordinate variants, raw coordinates (used for sampling embedded
        functions on a grid)."""
        if self._coords is None or isinstance(z, _ID_TYPES):
            return np.array(self._gram[:, self._id(z)])
        b = self._point(z)
        return PAIRINGS[self.variant](self._coords, b)

    def embed_distance(self, x, y):
        """||k_x - k_y||, the embedded metric. Clamped at zero from below
        to absorb round-off on near-duplicates."""
        kxx = self.eval(x, x)
        kxy = self.eval(x, y)
        kyy = self.eval(y, y)
        return float(np.sqrt(max(0.0, kxx - 2.0 * kxy + kyy)))

    def duplicate_groups(self):
        """Groups of ids whose Gram rows agree within 1e-12 (quantized),
        found once at construction.

        Singleton groups are omitted. Solvers collapse each group to one
        representative before optimizing; equal margins on duplicates
        otherwise cause needless exchange cycles.
        """
        return [list(group) for group in self._duplicates]


# -- constructors ---------------------------------------------------------

def explicit_gram(matrix, labels=None):
    """Kernel from a precomputed Gram (or covariance) matrix."""
    return Kernel("explicit-gram", reals(matrix, "gram", 2), labels)


def euclidean(coords, labels=None):
    """Dot-product kernel on real vectors; coords is an (n, d) array."""
    C = reals(coords, "points", 2)
    return Kernel("euclidean", euclidean_pairing(C, C), labels, _coords=C)


def fock(points, labels=None):
    """Real Fock kernel Re e^{z conj(w)} on complex points.

    Points may be complex scalars or [re, im] pairs. Pairings with
    |z conj(w)| > 700 would overflow the exponential and raise DomainError.
    """
    return _complex_kernel("fock", points, labels)


def hardy(points, labels=None):
    """Real Hardy kernel Re (1 + z conj(w))/(1 - z conj(w)); needs |z| < 1."""
    return _complex_kernel("hardy", points, labels)


def _complex_kernel(variant, points, labels):
    Z = _as_complex_array(points)
    return Kernel(variant, PAIRINGS[variant](Z, Z), labels, _coords=Z)


def _check_labels(labels, n):
    if labels is None:
        return (None,) * n
    if not isinstance(labels, (list, tuple)):
        raise InvalidInput("labels must be a list, got %s" % type(labels).__name__)
    if len(labels) != n:
        raise InvalidInput("got %d labels for %d points" % (len(labels), n))
    return tuple(labels)
