# python3
"""
Escaping an annulus: the harmonic maze
======================================

An annular wall with a gap, rasterized to cells. The solver places an
optimal measure on the obstacle; its potential is harmonic off the wall,
and following its gradient walks the origin out through the gap with
real clearance. A second run closes the gap: the potential levels out on
the inner boundary, and the only nominal way out pierces the wall, which
the clearance diagnostic reports as negative.

Writes field.pgm, conjugate.pgm, and path.csv next to this script.
"""
import os

import numpy as np

from topiary import formats, maze
from topiary.solver import SolveConfig

OUT = os.path.dirname(os.path.abspath(__file__))


def annulus(n=64, cell=0.05, r0=0.85, r1=1.15, gap_deg=25.0):
    half = (n - 1) / 2.0
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            x, y = (j - half) * cell, (half - i) * cell
            r = np.hypot(x, y)
            ang = abs(np.degrees(np.arctan2(y, x)))
            mask[i, j] = r0 <= r <= r1 and (gap_deg <= 0 or ang > gap_deg / 2)
    return mask


cfg = SolveConfig(algorithm="exchange", margin_tol=1e-6)

print("-- annulus with a gap ---------------------------------------")
mask = annulus()
m = maze.solve_maze(maze.MazeSpec(mask=mask, cell_size=0.05), cfg)
print("  %d obstacle cells, trichotomy %s, support %d atoms"
      % (len(m.points), m.trichotomy, len(m.result.support())))

trace = maze.trace_path(m)
end = trace.points[-1]
print("  path %s after %d steps, exit at (%+.2f, %+.2f), clearance %.3f"
      % (trace.status, len(trace.points), end.real, end.imag, trace.clearance))

potential, conjugate = maze.fields(m, resolution=256)
formats.write_pgm(os.path.join(OUT, "field.pgm"), potential.raster)
formats.write_pgm(os.path.join(OUT, "conjugate.pgm"), conjugate.raster)
formats.write_path(os.path.join(OUT, "path.csv"), trace)
print("  wrote field.pgm / conjugate.pgm / path.csv")

print("\n-- gap closed ------------------------------------------------")
m2 = maze.solve_maze(maze.MazeSpec(mask=annulus(gap_deg=0.0), cell_size=0.05), cfg)
trace2 = maze.trace_path(m2)
print("  nominal path %s, but clearance %.3f: it pierced the wall"
      % (trace2.status, trace2.clearance))

# the potential is level along the inner wall: no direction is preferred
from topiary import objective

margins = objective.margins(m2.result.measure, m2.psi, m2.kernel)
radii = np.abs(np.asarray(m2.points))
bnd = maze.discrete_boundary(m2.spec.mask)
inner = [i for i in range(len(m2.points)) if bnd[m2.cells[i]] and radii[i] < 1.0]
print("  inner-boundary margin spread %.2e over %d cells"
      % (np.ptp(margins[inner]), len(inner)))
