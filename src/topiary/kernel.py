"""Ground sets and reproducing-kernel pairings.

Four kernel variants: an explicit Gram matrix, Euclidean dot products, the
real Fock kernel Re e^{z conj(w)}, and the real Hardy kernel
Re (1 + z conj(w)) / (1 - z conj(w)) on the open unit disk. Each coordinate
variant has one pairing function, vectorized and carrying the variant's
domain guard; the Gram, `Kernel.row` and `Kernel.eval` all call it.

Every Gram or covariance matrix passes one gate, `checked_gram`, which
reports the offending eigenvalue. No silent jitter: callers who want
diagonal loading must ask for it explicitly. A Kernel owns its finite
ground set; its Gram and its duplicate groups are computed once.
"""

from dataclasses import dataclass
from typing import Optional
import warnings

import numpy as np

from .errors import DomainError, DuplicatePointsWarning, InvalidInput, NonPSD

# Re z*conj(w) beyond this overflows exp(); sqrt(700) ~ 26.45 is the largest
# admissible point radius for the Fock variant.
FOCK_EXPONENT_GUARD = 700.0

DEFAULT_PSD_TOL = 1e-9

_ID_TYPES = (int, np.integer)


@dataclass(frozen=True)
class Point:
    id: int
    coords: Optional[object] = None  # complex for fock/hardy, ndarray for euclidean
    label: Optional[str] = None


def _as_complex_array(points):
    pts = np.asarray(points)
    if pts.ndim == 2 and pts.shape[1] == 2 and not np.iscomplexobj(pts):
        pts = pts[:, 0] + 1j * pts[:, 1]
    return pts.astype(complex).reshape(-1)


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


def checked_gram(matrix, psd_tol=DEFAULT_PSD_TOL):
    """The symmetrized matrix, once its entries are finite and
    max|G - G'| <= 1e-12 * max(1, max|G|) (else InvalidInput) and its lowest
    eigenvalue is at least -psd_tol * max|diag|, the scale being 1 for a
    zero diagonal (else NonPSD carrying that eigenvalue)."""
    G = np.asarray(matrix, dtype=float)
    if not np.isfinite(G).all():
        raise InvalidInput("gram matrix has non-finite entries")
    skew = float(np.max(np.abs(G - G.T), initial=0.0))
    if skew > 1e-12 * max(1.0, float(np.max(np.abs(G), initial=0.0))):
        raise InvalidInput("gram matrix is not symmetric (skew %.3g)" % skew)
    G = (G + G.T) / 2.0
    diag_scale = float(np.max(np.abs(np.diag(G)), initial=0.0)) or 1.0
    lowest = float(np.linalg.eigvalsh(G).min(initial=0.0))
    if lowest < -psd_tol * diag_scale:
        raise NonPSD(
            "gram matrix is not positive semidefinite: "
            "eigenvalue %g < -%g * %g" % (lowest, psd_tol, diag_scale),
            eigenvalue=lowest,
        )
    return G


class Kernel:
    """A kernel variant together with its finite ground set.

    Immutable after construction; the Gram matrix is cached write-once and
    shared. Points are addressed by their integer id (position in the
    ground set).
    """

    def __init__(self, variant, points, gram, psd_tol=DEFAULT_PSD_TOL,
                 diagonal_load=0.0, _coords=None):
        self.variant = variant
        self.points = tuple(points)
        self.psd_tol = float(psd_tol)
        self.diagonal_load = float(diagonal_load)
        self._coords = _coords

        G = np.asarray(gram, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise InvalidInput("gram matrix must be square, got shape %s" % (G.shape,))
        if G.shape[0] != len(self.points):
            raise InvalidInput(
                "gram size %d does not match %d points" % (G.shape[0], len(self.points))
            )
        if G.size == 0:
            raise InvalidInput("ground set is empty")
        if self.diagonal_load:
            G = G + self.diagonal_load * np.eye(G.shape[0])
        G = checked_gram(G, self.psd_tol)
        G.setflags(write=False)
        self._gram = G

        keys = {}
        for i, row in enumerate(np.round(G, 12)):
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
        return len(self.points)

    @property
    def gram(self):
        return self._gram

    @property
    def coords(self):
        """Coordinate array for coordinate-based variants, else None."""
        return self._coords

    def labels(self):
        return [p.label for p in self.points]

    def _id(self, x):
        i = int(x)
        if not 0 <= i < self.n:
            raise InvalidInput("point id %d outside ground set of size %d" % (i, self.n))
        return i

    def _point(self, x):
        """Coordinates of a ground id, or raw coordinates of a point that may
        lie off the ground set; coordinate variants only."""
        if self.variant not in PAIRINGS:
            raise InvalidInput("%s kernels only evaluate at ground ids" % self.variant)
        if isinstance(x, _ID_TYPES):
            return self._coords[self._id(x)]
        if self.variant == "euclidean":
            return np.asarray(x, dtype=float)
        return complex(x[0], x[1]) if isinstance(x, (tuple, list)) else complex(x)

    def eval(self, x, y):
        """k(x, y); x and y are ground ids or, for coordinate variants,
        raw coordinates."""
        if isinstance(x, _ID_TYPES) and isinstance(y, _ID_TYPES):
            return float(self._gram[self._id(x), self._id(y)])
        a, b = self._point(x), self._point(y)
        return float(PAIRINGS[self.variant](a, b))

    def row(self, z):
        """Vector of k(x_i, z) over the ground set; z is a ground id or, for
        coordinate variants, raw coordinates (used for sampling embedded
        functions on a grid)."""
        if isinstance(z, _ID_TYPES):
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

def explicit_gram(matrix, labels=None, psd_tol=DEFAULT_PSD_TOL, diagonal_load=0.0):
    """Kernel from a precomputed Gram (or covariance) matrix."""
    G = np.asarray(matrix, dtype=float)
    n = G.shape[0] if G.ndim == 2 else 0
    labels = _check_labels(labels, n)
    points = [Point(i, None, labels[i]) for i in range(n)]
    return Kernel("explicit-gram", points, G, psd_tol, diagonal_load)


def euclidean(coords, labels=None, psd_tol=DEFAULT_PSD_TOL, diagonal_load=0.0):
    """Dot-product kernel on real vectors; coords is an (n, d) array."""
    C = np.atleast_2d(np.asarray(coords, dtype=float))
    labels = _check_labels(labels, C.shape[0])
    points = [Point(i, C[i].copy(), labels[i]) for i in range(C.shape[0])]
    return Kernel("euclidean", points, euclidean_pairing(C, C), psd_tol, diagonal_load,
                  _coords=C)


def fock(points, labels=None, psd_tol=DEFAULT_PSD_TOL, diagonal_load=0.0):
    """Real Fock kernel Re e^{z conj(w)} on complex points.

    Points may be complex scalars or (a, b) pairs. Pairings with
    |z conj(w)| > 700 would overflow the exponential and raise DomainError.
    """
    return _complex_kernel("fock", points, labels, psd_tol, diagonal_load)


def hardy(points, labels=None, psd_tol=DEFAULT_PSD_TOL, diagonal_load=0.0):
    """Real Hardy kernel Re (1 + z conj(w))/(1 - z conj(w)); needs |z| < 1."""
    return _complex_kernel("hardy", points, labels, psd_tol, diagonal_load)


def _complex_kernel(variant, points, labels, psd_tol, diagonal_load):
    Z = _as_complex_array(points)
    labels = _check_labels(labels, Z.size)
    G = PAIRINGS[variant](Z, Z)
    pts = [Point(i, complex(Z[i]), labels[i]) for i in range(Z.size)]
    return Kernel(variant, pts, G, psd_tol, diagonal_load, _coords=Z)


def _check_labels(labels, n):
    if labels is None:
        return [None] * n
    if not isinstance(labels, (list, tuple)):
        raise InvalidInput("labels must be a list, got %s" % type(labels).__name__)
    labels = list(labels)
    if len(labels) != n:
        raise InvalidInput("got %d labels for %d points" % (len(labels), n))
    return labels
