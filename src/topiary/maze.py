"""Harmonic maze solving on a rasterized obstacle set.

Obstacle cells become Fock-space candidates, the solver finds the measure
whose potential is zero on the blocking frontier and negative inside, and
the gradient of that potential traces a path from the origin to infinity.
That potential is the real part of one analytic function G, whose terms are
built once from the solved atoms and the target; the potential field, the
conjugate field and the path's gradient all read G.
Coordinates are rescaled before solving so the kernel stays conditioned;
every exported quantity is mapped back to the input frame.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import measure as msr
from . import objective as obj
from .errors import EmptyMask, KernelNotAnalytic, StartInsideObstacle, integer, real, reals
from .kernel import fock
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
    spec: MazeSpec
    points: Tuple[complex, ...]  # cell centers, input frame
    cells: Tuple[Tuple[int, int], ...]  # (row, col) per point id
    scale: float
    escape_radius: float
    kernel: object  # fock kernel over scaled points
    psi: object
    result: TopiaryResult
    trichotomy: str  # solved | origin-in-obstacle | target-in-obstacle

    def support_points(self):
        return tuple(self.points[i] for i in self.result.support())


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


def solve_maze(spec, config=None):
    """Solve the obstacle topiary; psi = 0, or the target's kernel row.

    Degenerate placements short-circuit: an origin or target lying inside an
    obstacle cell gets a point mass there with zero iterations.
    """
    points, cells = _cell_centers(spec)
    radius = float(np.abs(points).max())
    scale = min(1.0, FOCK_SAFE_RADIUS / radius) if radius > 0 else 1.0
    escape = ESCAPE_FACTOR * radius if spec.escape_radius == "auto" else spec.escape_radius
    kern = fock(points * scale)
    cfg = config if config is not None else SolveConfig(
        algorithm="exchange", margin_tol=MAZE_MARGIN_TOL
    )
    if spec.target is not None:
        psi = obj.PsiSpec.point_kernel(complex(spec.target) * scale, kern)
    else:
        psi = obj.PsiSpec.zero(kern)

    origin_cell = _containing_cell(spec, 0j, points)
    target_cell = (
        _containing_cell(spec, spec.target, points) if spec.target is not None else None
    )
    if origin_cell is not None:
        result = TopiaryResult.evaluate(
            msr.delta(origin_cell), psi, kern, cfg.margin_tol, 0, cfg.algorithm
        )
        trichotomy = "origin-in-obstacle"
    elif target_cell is not None:
        result = TopiaryResult.evaluate(
            msr.delta(target_cell), psi, kern, cfg.margin_tol, 0, cfg.algorithm
        )
        trichotomy = "target-in-obstacle"
    else:
        result = solve(kern, psi, cfg)
        trichotomy = "solved"
    return MazeResult(
        spec=spec,
        points=tuple(complex(p) for p in points),
        cells=cells,
        scale=scale,
        escape_radius=escape,
        kernel=kern,
        psi=psi,
        result=result,
        trichotomy=trichotomy,
    )


def _terms(mres):
    """Coefficients c and conjugated exponents q of the margin's analytic part
    G(z) = sum_j c_j e^{z q_j}, z in the scaled frame, so iota = Re G - r.

    Each nonzero atom p_j enters with c = -w_j and q = conj(p_j * scale); the
    target alpha, when set, with c = +1 and q = conj(alpha * scale). Fock
    kernels only: no other variant makes the margin the real part of one
    analytic function.
    """
    if mres.kernel.variant != "fock":
        raise KernelNotAnalytic(
            "maze fields need the analytic fock kernel, not %r" % mres.kernel.variant
        )
    m = mres.result.measure
    held = m.weights != 0.0
    c = -m.weights[held]
    p = np.asarray(mres.points)[m.ids[held]]
    if mres.spec.target is not None:
        c = np.append(c, 1.0)
        p = np.append(p, mres.spec.target)
    return c, np.conj(p * mres.scale)


def _sample(mres, resolution, bounds):
    """Grid axes (top row first) and G over the grid, ys-major."""
    c, q = _terms(mres)
    resolution = integer(resolution, "resolution", positive=True)
    if bounds is None:
        r = mres.escape_radius
        bounds = (-r, r, -r, r)
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y1, y0, resolution)
    zx, zy = np.meshgrid(xs, ys)
    zs = (zx + 1j * zy) * mres.scale
    return xs, ys, np.exp(np.multiply.outer(zs, q)) @ c


def _to_raster(values):
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 0:
        return np.zeros(values.shape, dtype=np.uint8)
    return np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)


def potential_field(mres, resolution=256, bounds=None):
    """The margin iota(z) = psi(z) - mu(z) - r = Re G(z) - r over a grid.

    Zero on the blocking frontier, negative behind it, positive where open
    space still improves the objective.
    """
    xs, ys, g = _sample(mres, resolution, bounds)
    iota = g.real - mres.result.rate
    return Field(xs=xs, ys=ys, values=iota, raster=_to_raster(iota))


def conjugate_field(mres, resolution=256, bounds=None):
    """Harmonic conjugate brightness: |Im G(z) - Im G(0)| normalized, where
    Im G(0) = Im sum_j c_j = 0.

    G is the potential's analytic part, target included, so level curves of
    the conjugate are the gradient flow lines of the potential; the curve
    through the origin is the one the path follows.
    """
    xs, ys, g = _sample(mres, resolution, bounds)
    centered = np.abs(g.imag)
    return Field(xs=xs, ys=ys, values=centered, raster=_to_raster(centered))


def _gradient(q, slope, zs):
    """Ascent direction of the potential at the scaled point zs.

    The plane gradient of Re G is conj G'(zs), G' = sum_j c_j q_j e^{zs q_j}
    with slope = c * q; the scale factor drops out after normalization.
    """
    return complex(np.conj(np.exp(zs * q) @ slope))


def _clearance(spec, points, path):
    half = spec.cell_size / 2.0
    centers = np.asarray(points)
    best = math.inf
    for z in path:
        dz = centers - complex(z)
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
    if _containing_cell(spec, 0j, mres.points) is not None:
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
