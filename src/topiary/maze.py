"""Harmonic maze solving on a rasterized obstacle set.

Obstacle cells become Fock-space candidates, the solver finds the measure
whose potential is zero on the blocking frontier and negative inside, and
the gradient of that potential traces a path from the origin to infinity.
Coordinates are rescaled before solving so the kernel stays conditioned;
every exported quantity is mapped back to the input frame.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import measure as msr
from . import objective as obj
from .errors import EmptyMask, InvalidInput, KernelNotAnalytic, StartInsideObstacle
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
        if not (self.cell_size > 0):
            raise InvalidInput("cell_size must be positive")
        if self.escape_radius != "auto" and not (float(self.escape_radius) > 0):
            raise InvalidInput("escape_radius must be positive or 'auto'")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "origin_offset", complex(self.origin_offset))
        if self.target is not None:
            object.__setattr__(self, "target", complex(self.target))


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
    escape = (
        ESCAPE_FACTOR * radius if spec.escape_radius == "auto" else float(spec.escape_radius)
    )
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


def _weighted_points(mres):
    """Weights and scaled points of the solved measure's nonzero atoms."""
    m = mres.result.measure
    held = m.weights != 0.0
    return m.weights[held], np.asarray(mres.points)[m.ids[held]] * mres.scale


def _analytic_sum(mres, z_scaled):
    """F(z) = sum_j w_j e^{z conj(p_j)} over the support, complex-valued."""
    w, p = _weighted_points(mres)
    expo = np.multiply.outer(z_scaled, np.conj(p))
    return np.exp(expo) @ w


def _psi_values(mres, z_scaled):
    if mres.spec.target is None:
        return np.zeros(np.shape(z_scaled))
    alpha = complex(mres.spec.target) * mres.scale
    return np.real(np.exp(z_scaled * np.conj(alpha)))


def _grid(mres, resolution, bounds):
    if bounds is None:
        r = mres.escape_radius
        bounds = (-r, r, -r, r)
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y1, y0, resolution)  # top row first
    zx, zy = np.meshgrid(xs, ys)
    return xs, ys, zx + 1j * zy


def _to_raster(values):
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 0:
        return np.zeros(values.shape, dtype=np.uint8)
    return np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)


def potential_field(mres, resolution=256, bounds=None):
    """The margin iota(z) = psi(z) - mu(z) - r sampled over a grid.

    Zero on the blocking frontier, negative behind it, positive where open
    space still improves the objective.
    """
    xs, ys, zz = _grid(mres, resolution, bounds)
    zs = zz * mres.scale
    mu = np.real(_analytic_sum(mres, zs))
    iota = _psi_values(mres, zs) - mu - mres.result.rate
    return Field(xs=xs, ys=ys, values=iota, raster=_to_raster(iota))


def conjugate_field(mres, resolution=256, bounds=None):
    """Harmonic conjugate brightness: |Im F(z) - Im F(0)| normalized.

    Level curves of the conjugate are the gradient flow lines of the
    potential; the curve through the origin is the one the path follows.
    Defined for analytic kernels only.
    """
    if mres.kernel.variant not in ("fock", "hardy"):
        raise KernelNotAnalytic(
            "harmonic conjugate needs an analytic kernel, not %r" % mres.kernel.variant
        )
    xs, ys, zz = _grid(mres, resolution, bounds)
    if mres.kernel.variant == "fock":
        im = np.imag(_analytic_sum(mres, zz * mres.scale))
        at0 = float(np.imag(_analytic_sum(mres, np.array([0j])))[0])
    else:
        w, p = _weighted_points(mres)
        zs = zz * mres.scale
        vals = np.zeros(zs.shape, dtype=complex)
        for wj, pj in zip(w, p):
            vals += wj * (1 + zs * np.conj(pj)) / (1 - zs * np.conj(pj))
        im = np.imag(vals)
        at0 = float(np.imag(np.sum(w * (1 + 0j))))
    centered = np.abs(im - at0)
    return Field(xs=xs, ys=ys, values=centered, raster=_to_raster(centered))


def _gradient(mres, z):
    """Ascent direction of the potential at z (input frame).

    The potential's analytic part is psi_an - mu_an; the plane gradient of
    its real part is the conjugate of the complex derivative. The constant
    scale factor drops out after normalization.
    """
    zs = complex(z) * mres.scale
    m = mres.result.measure
    d = 0j
    for i, w in zip(m.ids.tolist(), m.weights.tolist()):
        if w == 0.0:
            continue
        pj = complex(mres.points[i]) * mres.scale
        d -= w * np.conj(pj) * cmath.exp(zs * np.conj(pj))
    if mres.spec.target is not None:
        alpha = complex(mres.spec.target) * mres.scale
        d += np.conj(alpha) * cmath.exp(zs * np.conj(alpha))
    return complex(np.conj(d))


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
    step = spec.cell_size / 4.0 if step_size is None else float(step_size)
    if step <= 0:
        raise InvalidInput("step_size must be positive")
    z = 0j
    path = [z]
    status = "max-steps"
    h = step / 4.0
    for _ in range(int(max_steps)):
        stalled = False
        for _ in range(4):
            g1 = _gradient(mres, z)
            if abs(g1) < _GRAD_FLOOR:
                stalled = True
                break
            mid = z + h / 2.0 * g1 / abs(g1)
            g2 = _gradient(mres, mid)
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
