"""Harmonic maze solving on a rasterized obstacle set.

Obstacle cells become Fock-space candidates, the solver finds the measure
whose potential is zero on the blocking frontier and negative inside, and
the gradient of that potential traces a path from the origin to infinity.
That potential is the real part of one analytic function G, whose terms are
built once from the solved atoms and the target; the potential field, the
conjugate field and the path's gradient all read G. The fields form G over
their grid one band of rows at a time, so no complex grid is held.
The solve runs on a working set of cells, first the discrete boundary,
where the paper places an optimal measure's support: the Fock Gram is built
over the working set alone, the margins over every cell come from the
support's columns, and a cell whose margin fails joins the working set until
none does. The result is certified over every cell. A MazeResult keeps what
the solve produced, not a Fock kernel: a maze job never forms the Gram over
every cell, and `MazeResult.kernel` builds it on first access.
Coordinates are rescaled before solving so the kernel stays conditioned;
every exported quantity is mapped back to the input frame.
"""

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from . import measure as msr
from . import objective as obj
from .errors import (
    CycleDetected,
    DomainError,
    EmptyMask,
    InvalidInput,
    MaxIterExceeded,
    MonotonicityError,
    NoProgress,
    StartInsideObstacle,
    integer,
    real,
    reals,
)
from .kernel import fock, fock_pairing
from .solver import SolveConfig, TopiaryResult, solve

MAZE_MARGIN_TOL = 1e-6  # rasterization dominates error well above solver tolerance
FOCK_SAFE_RADIUS = 3.0
ESCAPE_FACTOR = 1.5
_GRAD_FLOOR = 1e-12


@dataclass(frozen=True)
class MazeSpec:
    mask: np.ndarray
    cell_size: float
    origin_offset: complex = 0j
    target: Optional[complex] = None
    escape_radius: object = "auto"

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.size == 0:
            raise EmptyMask("mask must be a non-empty 2-D grid")
        if not mask.any():
            raise EmptyMask("mask has no obstacle cells")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "cell_size", real(self.cell_size, "cell_size", positive=True))
        if self.escape_radius != "auto":
            radius = real(self.escape_radius, "escape_radius (or 'auto')", positive=True)
            object.__setattr__(self, "escape_radius", radius)
        for key in ("origin_offset", "target"):
            if getattr(self, key) is not None:
                z = reals(getattr(self, key), key, 0, numbers.Complex)
                object.__setattr__(self, key, complex(z))


@dataclass(frozen=True)
class PathTrace:
    points: Tuple[complex, ...]
    status: str  # escaped | max-steps | stalled
    clearance: float
    step_size: float


@dataclass(frozen=True)
class Field:
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # ys-major, top row first
    raster: np.ndarray  # uint8 min-max normalized


@dataclass(frozen=True)
class MazeResult:
    """What `solve_maze` produced, in cell ids over every cell; no Fock
    kernel is kept, and `kernel` builds the one over every cell from the
    points and scale on first access."""

    spec: MazeSpec
    points: Tuple[complex, ...]  # cell centers, input frame
    cells: Tuple[Tuple[int, int], ...]  # (row, col) per point id
    scale: float
    escape_radius: float
    psi: object
    result: TopiaryResult
    trichotomy: str  # solved | origin-in-obstacle | target-in-obstacle

    @functools.cached_property
    def kernel(self):
        """The fock kernel over every scaled cell center. The solve never
        forms it: its Gram's block on the solve's working set W,
        kernel.gram[ix_(W, W)], is bit for bit the Gram the solve used."""
        return fock(np.asarray(self.points) * self.scale)


def _cell_centers(spec):
    rows, cols = np.nonzero(spec.mask)
    nrows, ncols = spec.mask.shape
    re = (cols - (ncols - 1) / 2.0) * spec.cell_size
    im = ((nrows - 1) / 2.0 - rows) * spec.cell_size
    pts = spec.origin_offset + re + 1j * im
    return pts, tuple(zip(rows.tolist(), cols.tolist()))


def rasterize(spec):
    """Center of every obstacle cell, grid center at origin_offset, top row
    carrying the largest imaginary part."""
    pts, _ = _cell_centers(spec)
    return pts


def discrete_boundary(mask):
    """Obstacle cells with a free 4-neighbor or a grid edge."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    edge = np.zeros_like(mask)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    return mask & (~interior | edge)


def _containing_cell(spec, z, points):
    half = spec.cell_size / 2.0
    dz = np.asarray(points) - complex(z)
    inside = (np.abs(dz.real) <= half) & (np.abs(dz.imag) <= half)
    hits = np.flatnonzero(inside)
    return int(hits[0]) if hits.size else None


# the solver's failures that carry a partial result
_PARTIAL = (NoProgress, CycleDetected, MaxIterExceeded, MonotonicityError)


def _over_cells(Z, psi, diag, measure, G_S):
    """The margin table of measure over every cell, from the columns of its
    atoms, fock_pairing(Z, Z[ids]) @ w: n x s entries and no n x n array.
    G_S is the Gram over the atoms, giving ||mu||^2 as the full Gram would."""
    ids, w = measure.ids, measure.weights
    mu = fock_pairing(Z, Z[ids]) @ w
    nsq = max(0.0, float(w @ G_S @ w))
    return obj.MarginTable.tabulate(
        psi, mu, float(np.dot(w, psi[ids])), nsq, np.arange(len(Z)), diag
    )


def _in_cells(res, W, Z, psi, diag, G_W, iterations, rows):
    """The result res of a solve on the cells W as a result over every cell:
    its atoms renamed to cell ids and its table built over all cells, with
    the iterations of every round and their trace rows up to it."""
    m = res.measure
    measure = msr.AtomicMeasure(tuple((int(W[i]), w) for i, w in m.atoms), m.kind)
    table = _over_cells(Z, psi, diag, measure, G_W[np.ix_(m.ids, m.ids)])
    if rows is not None:
        rows += tuple(replace(
            row, iteration=row.iteration + iterations - res.iterations,
            added_point=None if row.added_point is None else int(W[row.added_point]),
            dropped_points=tuple(int(W[d]) for d in row.dropped_points),
        ) for row in res.trace)
    result = TopiaryResult.from_table(
        measure, table, res.margin_tol, iterations, res.algorithm, rows
    )
    return result, table


def _solve_cells(Z, psi, diag, cfg, W):
    """(result, final W): the optimal measure over every cell of Z, solved
    on the working set W of cell ids and certified over all of them; diag
    holds k(z, z) over the cells.

    Each round builds the Fock kernel of Z[W] alone and solves on it; the
    margins over every cell then come from the support's columns. Every
    cell outside W whose margin exceeds margin_tol joins W, and the round
    repeats until none does (column generation). The rounds share the
    iteration budget max_iter, and the result's iterations and trace sum
    them. A failure on W re-raises with its partial result over every cell;
    a measure that certifies on W but not over every cell, with no cell
    outside W to add, raises NoProgress.
    """
    n = len(Z)
    seed = cfg.seed_point
    if seed is not None:
        if not 0 <= seed < n:
            raise InvalidInput("seed point %d is not a candidate" % seed)
        W = np.union1d(W, [seed])
    W = np.asarray(W, dtype=int)
    used, rows = 0, () if cfg.trace else None
    while True:
        kern = fock(Z[W])
        local = replace(
            cfg, max_iter=cfg.max_iter - used,
            seed_point=None if seed is None else int(np.searchsorted(W, seed)),
        )
        try:
            res = solve(kern, psi.values[W], local)
        except _PARTIAL as exc:
            exc.result = _in_cells(exc.result, W, Z, psi.values, diag, kern.gram,
                                   used + exc.result.iterations, rows)[0]
            raise
        used += res.iterations
        result, table = _in_cells(res, W, Z, psi.values, diag, kern.gram, used, rows)
        rows = result.trace
        outside = np.ones(n, dtype=bool)
        outside[W] = False
        joins = np.flatnonzero(outside & (table.margins > cfg.margin_tol))
        if joins.size == 0:
            break
        if used >= cfg.max_iter:
            raise MaxIterExceeded("%s hit max_iter %d with score %.3g over every cell"
                                  % (cfg.algorithm, cfg.max_iter, result.score), result=result)
        W = np.union1d(W, joins)
    if not table.certifies(result.measure.ids, cfg.margin_tol):
        exc = NoProgress("the solve on %d of %d cells certifies on them but not over "
                         "every cell (score %.3g)" % (W.size, n, result.score))
        exc.result = result
        raise exc
    return result, W


def solve_maze(spec, config=None):
    """Solve the obstacle topiary; psi = 0, or the target's kernel row.

    The solve runs on a working set W of cells, first the
    `discrete_boundary` cells, where the paper places the support: the Fock
    Gram is built over W alone (about 220 of 700 cells on the benchmark
    ring). A cell outside W whose margin then exceeds margin_tol joins W and
    the solve repeats until none does; `iterations` sums every round. The
    result is certified over every cell, or the solver's error is raised
    with its partial result over every cell.

    Degenerate placements short-circuit: an origin or target lying inside an
    obstacle cell gets a point mass there with zero iterations, evaluated
    from that cell's column, the origin taking precedence (the target is
    then not looked up).
    """
    points, cells = _cell_centers(spec)
    radius = float(np.abs(points).max())
    scale = min(1.0, FOCK_SAFE_RADIUS / radius) if radius > 0 else 1.0
    escape = ESCAPE_FACTOR * radius if spec.escape_radius == "auto" else spec.escape_radius
    Z = points * scale
    cfg = config if config is not None else SolveConfig(
        algorithm="exchange", margin_tol=MAZE_MARGIN_TOL
    )
    if spec.target is not None:
        alpha = complex(spec.target) * scale
        psi = obj.PsiSpec(fock_pairing(Z, alpha),
                          norm=math.sqrt(max(0.0, float(fock_pairing(alpha, alpha)))))
    else:
        psi = obj.PsiSpec(np.zeros(len(Z)), norm=0.0)

    trichotomy, cell = "solved", None
    for name, z in (("origin-in-obstacle", 0j), ("target-in-obstacle", spec.target)):
        cell = None if z is None else _containing_cell(spec, z, points)
        if cell is not None:
            trichotomy = name
            break
    diag = fock_pairing(Z, Z, paired=True)  # bit for bit the full Gram's diagonal
    if cell is None:
        W = np.flatnonzero(discrete_boundary(spec.mask)[spec.mask])
        result, _ = _solve_cells(Z, psi, diag, cfg, W)
    else:
        delta = msr.delta(cell)
        table = _over_cells(Z, psi.values, diag, delta, np.array([[diag[cell]]]))
        result = TopiaryResult.from_table(delta, table, cfg.margin_tol, 0, cfg.algorithm)
    return MazeResult(
        spec=spec,
        points=tuple(complex(p) for p in points),
        cells=cells,
        scale=scale,
        escape_radius=escape,
        psi=psi,
        result=result,
        trichotomy=trichotomy,
    )


def _terms(mres):
    """Coefficients c and conjugated exponents q of the margin's analytic part
    G(z) = sum_j c_j e^{z q_j}, z in the scaled frame, so iota = Re G - r.

    Each nonzero atom p_j enters with c = -w_j and q = conj(p_j * scale); the
    target alpha, when set, with c = +1 and q = conj(alpha * scale). The atoms
    are cell ids over every cell, whatever working set the solve used, and the
    margin is this real part because `solve_maze` solves with the Fock kernel.
    """
    m = mres.result.measure
    held = m.weights != 0.0
    c = -m.weights[held]
    p = np.asarray(mres.points)[m.ids[held]]
    if mres.spec.target is not None:
        c = np.append(c, 1.0)
        p = np.append(p, mres.spec.target)
    return c, np.conj(p * mres.scale)


# grid points per band of G; bands of 16384 lift the 256^2 maze-ring job's
# tracemalloc peak from 1.34 to 1.82 MB
_BAND = 1024


def _bands(nrows, ncols):
    """Row slices over nrows rows of ncols points, about _BAND points each and
    never one row unless the grid has one: numpy multiplies a one-row band
    through gemv, whose round-off is not gemm's, while every band of two or
    more rows gives the whole grid's product bit for bit."""
    edges = list(range(0, max(nrows - 1, 1), max(2, _BAND // max(ncols, 1)))) + [nrows]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _factors(mres, xs, ys):
    """(rows, cols) with G over the grid, ys-major, equal to rows @ cols.

    On a product grid each term factors, e^{(x + iy) s q} = e^{i y s q} e^{x s q}
    (s = mres.scale), because the exponent is linear in z, so
    G[row, col] = sum_j (c_j e^{i ys[row] s q_j}) e^{xs[col] s q_j}: 2 *
    resolution * m exponentials. Term j's factors are rescaled by e^{+t_j}
    and e^{-t_j} so that their largest moduli on the grid are equal; neither
    overflows unless the term itself does somewhere on the grid.
    """
    c, q = _terms(mres)
    sx, sy = xs * mres.scale, ys * mres.scale
    # log of the largest modulus of each term's x factor and y factor
    top_x = np.maximum(sx[0] * q.real, sx[-1] * q.real)
    top_y = np.maximum(-sy[0] * q.imag, -sy[-1] * q.imag)
    t = (top_x - top_y) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.exp(np.multiply.outer(1j * sy, q) + t) * c
        cols = np.exp(np.multiply.outer(sx, q) - t).T
    return rows, cols


def _sample(mres, resolution, bounds):
    """Grid axes (top row first) and the two fields' values over the grid,
    ys-major: Re G - rate and |Im G|. bounds is (x0, x1, y0, y1) with
    x0 <= x1 and y0 <= y1; a zero-width side samples a line or, at
    resolution 1, one point.

    G is formed one band of rows at a time, rows[band] @ cols (see _factors
    and _bands), so beyond the two value arrays only one band of G, about
    _BAND points, is held; the values are bit for bit those of the whole
    product rows @ cols. A band on which G is not finite raises DomainError.
    """
    resolution = integer(resolution, "resolution", positive=True)
    if bounds is None:
        r = mres.escape_radius
        bounds = (-r, r, -r, r)
    box = reals(bounds, "bounds")
    if box.shape != (4,) or box[0] > box[1] or box[2] > box[3]:
        raise InvalidInput("bounds must be four finite numbers x0 <= x1, y0 <= y1, got %r"
                           % (bounds,))
    x0, x1, y0, y1 = box.tolist()
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y1, y0, resolution)
    rows, cols = _factors(mres, xs, ys)
    potential = np.empty((resolution, resolution))
    conjugate = np.empty((resolution, resolution))
    with np.errstate(over="ignore", invalid="ignore"):
        for band in _bands(resolution, resolution):
            g = rows[band] @ cols
            if not np.isfinite(g).all():
                raise DomainError("G overflows on the grid of bounds %r; draw a smaller box"
                                  % ((x0, x1, y0, y1),))
            np.subtract(g.real, mres.result.rate, out=potential[band])
            np.abs(g.imag, out=conjugate[band])
    return xs, ys, potential, conjugate


def _to_raster(values):
    """values min-max scaled to 0..255 and rounded, into a preallocated uint8
    raster one band of float scratch at a time."""
    lo = float(values.min())
    hi = float(values.max())
    raster = np.zeros(values.shape, dtype=np.uint8)
    if hi - lo <= 0:
        return raster
    for band in _bands(*values.shape):
        t = values[band] - lo  # the band's scratch, scaled in place
        t /= hi - lo
        t *= 255.0
        raster[band] = np.round(t, out=t)
    return raster


def potential_field(mres, resolution=256, bounds=None):
    """The margin iota(z) = psi(z) - mu(z) - r = Re G(z) - r over a grid.

    Zero on the blocking frontier, negative behind it, positive where open
    space still improves the objective.
    """
    return fields(mres, resolution, bounds)[0]


def conjugate_field(mres, resolution=256, bounds=None):
    """Harmonic conjugate brightness: |Im G(z) - Im G(0)| normalized, where
    Im G(0) = Im sum_j c_j = 0.

    G is the potential's analytic part, target included, so level curves of
    the conjugate are the gradient flow lines of the potential; the curve
    through the origin is the one the path follows.
    """
    return fields(mres, resolution, bounds)[1]


def fields(mres, resolution=256, bounds=None):
    """(potential_field, conjugate_field) from one banded sample of G over the
    grid: the two value arrays and their rasters are the only grid-sized
    arrays formed. DomainError when G is not finite on it."""
    xs, ys, potential, conjugate = _sample(mres, resolution, bounds)
    return tuple(Field(xs=xs, ys=ys, values=v, raster=_to_raster(v))
                 for v in (potential, conjugate))


def _gradient(q, slope, zs):
    """Ascent direction of the potential at the scaled point zs.

    The plane gradient of Re G is conj G'(zs), G' = sum_j c_j q_j e^{zs q_j}
    with slope = c * q; the scale factor drops out after normalization.
    """
    g = np.exp(zs * q) @ slope
    return complex(g.real, -g.imag)


# path points compared against every cell at once; blocks of 32 lift the
# maze-ring job's peak while tracing from 1.04 to 1.78 MB
_CLEARANCE_BLOCK = 8


def _clearance(spec, points, path):
    """Least L-infinity distance from a path point to an obstacle cell's edge,
    min over points and cells of max(|dx|, |dy|) - half the cell size.

    Blocks of _CLEARANCE_BLOCK path points are compared against every cell
    center at once. Taking the block's min before subtracting the half cell
    gives the per-point values bit for bit, since fl(a - h) is monotone in a.
    """
    half = spec.cell_size / 2.0
    centers = np.asarray(points)
    zs = np.asarray(path, dtype=complex)
    best = math.inf
    for s in range(0, zs.size, _CLEARANCE_BLOCK):
        dz = centers - zs[s:s + _CLEARANCE_BLOCK, None]
        linf = np.maximum(np.abs(dz.real), np.abs(dz.imag))
        best = min(best, float(linf.min()) - half)
    return best


def trace_path(mres, step_size=None, max_steps=10000):
    """Follow the potential's gradient from the origin until escape.

    Fixed-length normalized-gradient steps, each made of four sub-steps with
    midpoint refinement. Terminates on |z| >= escape_radius (escaped), the
    step budget (max-steps), or a vanishing gradient (stalled).
    """
    spec = mres.spec
    if mres.trichotomy == "origin-in-obstacle":
        raise StartInsideObstacle("the origin lies inside an obstacle cell")
    step = spec.cell_size / 4.0 if step_size is None else real(step_size, "step_size", True)
    max_steps = integer(max_steps, "max_steps", positive=True)
    c, q = _terms(mres)
    slope = c * q
    scale = mres.scale
    z = 0j
    path = [z]
    status = "max-steps"
    h = step / 4.0
    for _ in range(max_steps):
        stalled = False
        for _ in range(4):
            g1 = _gradient(q, slope, z * scale)
            if abs(g1) < _GRAD_FLOOR:
                stalled = True
                break
            mid = z + h / 2.0 * g1 / abs(g1)
            g2 = _gradient(q, slope, mid * scale)
            if abs(g2) < _GRAD_FLOOR:
                stalled = True
                break
            z = z + h * g2 / abs(g2)
        path.append(z)
        if stalled:
            status = "stalled"
            break
        if abs(z) >= mres.escape_radius:
            status = "escaped"
            break
    return PathTrace(
        points=tuple(path),
        status=status,
        clearance=_clearance(spec, mres.points, path),
        step_size=step,
    )
