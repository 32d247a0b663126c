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
groups are computed once. The gate runs when a Kernel is built and nowhere
else: a portfolio covariance meets it once, when `optimize_portfolio` or
`reduce_adaptive` builds its kernel, and a `PortfolioSpec` checks only the
gate's first half, `checked_symmetric`.

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

Memory: a Kernel build holds one n x n float array, the Gram it keeps, plus
a fixed scratch tile; a refused build holds none, since the label and domain
checks (the Fock guard reads the point radii) come before the Gram. The
constructor computes a coordinate Gram itself, and `explicit_gram` hands it
an array of its own (a caller's array is copied, never written or frozen);
the gate checks and symmetrizes it in place tile pair by tile pair, and the
duplicate scan rounds a block of rows at a time and keeps one hash per row.
The complex pairings fill the Gram a block of rows at a time (block-sized
temporaries); numpy's `eigvalsh` makes a LAPACK copy tracemalloc cannot see.
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

# Rows and columns of the gate's square scratch tile; the duplicate scan
# rounds _TILE * _TILE entries (whole rows, at least one) at a time.
_TILE = 128

# Past this, two entries of the same sign can overflow when added.
_HALF_MAX = float(np.finfo(float).max) / 2.0

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


def _products(A, B, paired=False):
    """The float output of a complex pairing of A with B, and a generator
    over blocks of its rows: (U, out), U = A_rows x conj(B) and out the rows
    of the output it fills, max(1, _TILE * _TILE // size(B)) rows at a time,
    so no temporary is larger than a block. A single point as A or B makes
    one block. With paired, A and B have one shape and the output pairs them
    entry by entry, f(A, B)[i] = k(A[i], B[i]), in one block, through the
    same complex product as the outer pairing: fock_pairing(Z, Z, True) is
    the diagonal of fock(Z)'s Gram without the Gram (a test checks the
    bits)."""
    A, Bc = np.asarray(A), np.conj(B)
    if paired:
        G = np.empty(A.shape)
        return G, iter([(A * Bc, G)])
    G = np.empty(A.shape + Bc.shape)
    if G.ndim < 2:
        return G, iter([(np.multiply.outer(A, Bc), G)])
    step = max(1, _TILE * _TILE // max(1, Bc.size))
    return G, ((np.multiply.outer(A[s:s + step], Bc), G[s:s + step])
               for s in range(0, len(A), step))


def fock_pairing(A, B, paired=False):
    # max|A| max|B| is the largest |z conj(w)| over all pairs
    big = float(np.max(np.abs(A), initial=0.0) * np.max(np.abs(B), initial=0.0))
    if big > FOCK_EXPONENT_GUARD:
        raise DomainError(
            "fock kernel overflow: |z*conj(w)| = %g exceeds %g (max admissible "
            "point radius %.4f)" % (big, FOCK_EXPONENT_GUARD, np.sqrt(FOCK_EXPONENT_GUARD))
        )
    G, blocks = _products(A, B, paired)
    for U, out in blocks:
        np.exp(U.real, out=out)
        out *= np.cos(U.imag)
    return G


def hardy_pairing(A, B):
    for P in (A, B):
        radius = float(np.max(np.abs(P), initial=0.0))
        if radius >= 1.0:
            raise DomainError("hardy kernel requires |z| < 1, got |z| = %g" % radius)
    G, blocks = _products(A, B)
    for U, out in blocks:
        out[...] = ((1.0 + U) / (1.0 - U)).real
    return G


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


def _symmetric_pass(G, write):
    """Refuse the square float array G unless its entries are finite and
    max|G - G'| <= 1e-12 * max(1, max|G|); with write, G becomes (G + G') / 2
    in place. One pass over the tile pairs I <= J: each takes the skew
    max|G_IJ - G_JI'| and, with write, puts (G_IJ + G_JI') * 0.5 into both
    tiles, so the only scratch is one tile."""
    lo, hi = float(G.min(initial=0.0)), float(G.max(initial=0.0))  # NaN propagates
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInput("gram matrix has non-finite entries")
    scale = max(-lo, hi)
    # a pair whose sum overflows is averaged as a * 0.5 + b * 0.5 instead
    halve = write and scale > _HALF_MAX
    n = len(G)
    tile = np.empty((min(n, _TILE),) * 2)
    skew = 0.0
    with np.errstate(over="ignore"):
        for i in range(0, n, _TILE):
            for j in range(i, n, _TILE):
                a = G[i:i + _TILE, j:j + _TILE]
                b = G[j:j + _TILE, i:i + _TILE].T
                t = tile[:a.shape[0], :a.shape[1]]
                skew = max(skew, float(np.abs(np.subtract(a, b, out=t), out=t).max()))
                if write:
                    np.multiply(np.add(a, b, out=t), 0.5, out=t)
                    if halve:
                        big = np.isinf(t)
                        t[big] = a[big] * 0.5 + b[big] * 0.5
                    a[...] = t
                    b[...] = t
    if skew > 1e-12 * max(1.0, scale):
        raise InvalidInput("gram matrix is not symmetric (skew %.3g)" % skew)


def checked_symmetric(matrix):
    """The matrix as a float array, once its entries are finite and
    max|G - G'| <= 1e-12 * max(1, max|G|) (else InvalidInput). The matrix
    is only read."""
    G = np.asarray(matrix, dtype=float)
    _symmetric_pass(G, write=False)
    return G


def checked_gram(G, error=None):
    """The float array G symmetrized in place, once it passes
    `checked_symmetric` and its lowest eigenvalue is at least
    -PSD_TOL * max|diag|, the scale being 1 for a zero diagonal (else
    NonPSD carrying that eigenvalue). G is written even when refused, so
    the caller passes an array it owns.

    `error`, when given, bounds ||G - K||_2 for a PSD matrix K; when it is
    at most the floor PSD_TOL * max|diag|, lambda_min(G) >= -error already
    meets the floor and no eigendecomposition is made."""
    _symmetric_pass(G, write=True)
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
    A coordinate variant passes its checked points as `_coords` and the
    Kernel computes their Gram, the matrix ERRORS bounds, only after its
    emptiness and label checks. A float array passed as `gram` (by
    `explicit_gram`) becomes the Kernel's own: symmetrized in place, frozen.
    `max_diagonal` is the Gram's largest diagonal entry, its scale.
    """

    def __init__(self, variant, gram=None, labels=None, _coords=None):
        self.variant = variant
        self._coords = _coords
        if _coords is None:
            G = np.asarray(gram, dtype=float)
            if G.ndim != 2 or G.shape[0] != G.shape[1]:
                raise InvalidInput("gram matrix must be square, got shape %s" % (G.shape,))
        n = len(G if _coords is None else _coords)
        if n == 0:
            raise InvalidInput("ground set is empty")
        self._labels = _check_labels(labels, n)
        if _coords is not None:
            G = PAIRINGS[variant](_coords, _coords)
        checked_gram(G, ERRORS[variant](np.abs(_coords)) if variant in ERRORS else None)
        G.setflags(write=False)
        self._gram = G
        # the Gram's scale, which the duplicate rule and the solver's pivot
        # rule each read under their own clamp
        self.max_diagonal = float(np.max(np.diagonal(G)))

        scale = self.max_diagonal if 0.0 < self.max_diagonal < 1.0 else 1.0
        self._duplicates = _duplicate_groups(G, scale)
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
            p, d = reals(x, "point", 1), self._coords.shape[1]
            if len(p) != d:
                raise InvalidInput("point has %d coordinates, the ground set's have %d"
                                   % (len(p), d))
            return p
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
        """Groups of ids whose Gram rows agree within 1e-12 (quantized;
        relative to the largest diagonal entry when that is below 1), found
        once at construction.

        Singleton groups are omitted. Solvers collapse each group to one
        representative before optimizing; equal margins on duplicates
        otherwise cause needless exchange cycles.
        """
        return [list(group) for group in self._duplicates]


def _row_hash(row):
    return hash(row.tobytes())


def _grouped(G, ids, key, out, scale):
    """Groups, of two or more, of the ids whose rows of G, divided by scale,
    have equal key once rounded to 12 decimals, rounded len(out) rows at a
    time in the scratch `out`. An entry too large to round keeps its own
    value; -0.0 + 0.0 is 0.0, so entries that round to either zero have
    equal bytes."""
    groups = {}
    for s in range(0, len(ids), len(out)):
        chunk = ids[s:s + len(out)]
        rows = G[chunk.start:chunk.stop] if isinstance(chunk, range) else G[chunk]
        Q = out[:len(chunk)]
        with np.errstate(over="ignore"):
            np.round(rows if scale == 1.0 else np.divide(rows, scale, out=Q), 12, out=Q)
        np.copyto(Q, rows, where=np.isinf(Q))
        Q += 0.0
        for i, row in zip(chunk, Q):
            groups.setdefault(key(row), []).append(i)
    return [group for group in groups.values() if len(group) > 1]


def _duplicate_groups(G, scale=1.0):
    """Groups (ascending, ordered by first id) of rows of G with equal bytes
    once rounded to 12 decimals of scale. The Kernel passes min(1, s), s its
    largest diagonal entry: absolute decimals on a Gram of unit scale or
    more, and relative to the Gram's scale below it, where absolute decimals
    would join every row of a Gram smaller than 1e-12. Rows are bucketed by
    hash, which keeps n hashes rather than n rows; a bucket of several rows
    is then split by their exact bytes, so a hash collision never joins two
    rows."""
    n = len(G)
    block = np.empty((max(1, min(n, _TILE * _TILE // n)), n))
    groups = []
    for bucket in _grouped(G, range(n), _row_hash, block, scale):
        groups += _grouped(G, bucket, np.ndarray.tobytes, block, scale)
    return sorted(groups)


# -- constructors ---------------------------------------------------------

def explicit_gram(matrix, labels=None):
    """Kernel from a precomputed Gram (or covariance) matrix. An array
    given is copied: the Kernel never writes or freezes the caller's."""
    G = reals(matrix, "gram", 2)
    if isinstance(matrix, np.ndarray) and np.may_share_memory(G, matrix):
        G = G.copy()
    return Kernel("explicit-gram", G, labels)


def euclidean(coords, labels=None):
    """Dot-product kernel on real vectors; coords is an (n, d) array."""
    return Kernel("euclidean", labels=labels, _coords=reals(coords, "points", 2))


def fock(points, labels=None):
    """Real Fock kernel Re e^{z conj(w)} on complex points.

    Points may be complex scalars or [re, im] pairs. Points with
    max|z|^2 > 700 would overflow the exponential and raise DomainError,
    after the labels are checked and before any Gram entry is computed.
    """
    return Kernel("fock", labels=labels, _coords=_as_complex_array(points))


def hardy(points, labels=None):
    """Real Hardy kernel Re (1 + z conj(w))/(1 - z conj(w)); needs |z| < 1."""
    return Kernel("hardy", labels=labels, _coords=_as_complex_array(points))


def _check_labels(labels, n):
    if labels is None:
        return (None,) * n
    if not isinstance(labels, (list, tuple)):
        raise InvalidInput("labels must be a list, got %s" % type(labels).__name__)
    if len(labels) != n:
        raise InvalidInput("got %d labels for %d points" % (len(labels), n))
    return tuple(labels)
