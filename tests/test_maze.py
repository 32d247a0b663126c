import dataclasses
import math

import numpy as np
import pytest

import topiary as tp
from topiary import maze as mz
from topiary.kernel import fock_pairing

from conftest import numpy_margins, peak_bytes, seeded_ring_mask, seeded_two_ring_mask


def single_cell(offset=1 + 0j, cell=1.0, **kw):
    mask = np.zeros((1, 1), dtype=bool)
    mask[0, 0] = True
    return tp.MazeSpec(mask=mask, cell_size=cell, origin_offset=offset, **kw)


def ring_gap(n=64, cell=0.05, r0=0.85, r1=1.15, gap_deg=25.0):
    """Annulus of obstacle cells with a wedge cut out around the +x axis."""
    centre = (np.arange(n) - (n - 1) / 2.0) * cell
    x, y = centre[None, :], -centre[:, None]
    radius = np.hypot(x, y)
    angle = np.abs(np.degrees(np.arctan2(y, x)))
    return (radius >= r0) & (radius <= r1) & (angle > gap_deg / 2.0)


def ring3():
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    return mask


def test_spec_validation():
    with pytest.raises(tp.EmptyMask):
        tp.MazeSpec(mask=np.zeros((2, 2), dtype=bool), cell_size=1.0)
    with pytest.raises(tp.InvalidInput):
        single_cell(cell=-0.5)


def test_rasterize_single_cell():
    assert tp.rasterize(single_cell()) == (1 + 0j,)


def test_rasterize_ring_boundary():
    spec = tp.MazeSpec(mask=ring3(), cell_size=1.0)
    pts = tp.rasterize(spec)
    assert len(pts) == 8
    # forced geometry: all eight unit-grid neighbors of the center
    assert {(round(z.real), round(z.imag)) for z in pts} == {
        (i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)
    }


def test_rasterize_count_bookkeeping():
    rng = np.random.default_rng(71)
    mask = rng.uniform(size=(12, 9)) < 0.3
    mask[0, 0] = True
    spec = tp.MazeSpec(mask=mask, cell_size=0.5, origin_offset=4 + 0j)
    assert len(tp.rasterize(spec)) == int(mask.sum())


def test_discrete_boundary_ring():
    bnd = tp.discrete_boundary(ring3())
    assert bnd.sum() == 8
    filled = np.ones((3, 3), dtype=bool)
    assert tp.discrete_boundary(filled).sum() == 8  # interior cell is not boundary


def test_solve_single_candidate():
    m = tp.solve_maze(single_cell())
    assert m.trichotomy == "solved"
    assert m.result.measure.atoms == ((0, 1.0),)


def test_trichotomy_origin_in_obstacle():
    m = tp.solve_maze(single_cell(offset=0j))
    assert m.trichotomy == "origin-in-obstacle"
    assert m.result.iterations == 0
    assert m.result.measure.atoms == ((0, 1.0),)
    with pytest.raises(tp.StartInsideObstacle):
        tp.trace_path(m)


def test_trichotomy_target_in_obstacle():
    m = tp.solve_maze(single_cell(offset=2 + 0j, target=2 + 0j))
    assert m.trichotomy == "target-in-obstacle"
    assert m.result.measure.atoms == ((0, 1.0),)


def test_target_sets_point_kernel_psi():
    mask = np.ones((1, 2), dtype=bool)
    spec = tp.MazeSpec(mask=mask, cell_size=1.0, origin_offset=1.5 + 0j, target=-1 + 0j)
    m = tp.solve_maze(spec)
    assert m.trichotomy == "solved"
    values = tp.as_psi(m.psi, m.kernel).values
    assert values == pytest.approx([math.exp(-1), math.exp(-2)], abs=1e-12)


def test_path_escapes_away_from_single_obstacle():
    m = tp.solve_maze(single_cell())
    path = tp.trace_path(m)
    assert path.status == "escaped"
    # gradient of -Re e^{z} at 0 points in the -1 direction
    assert path.points[0] == 0j
    assert path.points[1].real < 0
    assert abs(path.points[1].imag) <= 1e-12
    assert abs(path.points[-1]) >= m.escape_radius - 1e-9
    assert path.clearance == pytest.approx(0.5, abs=1e-9)


def test_path_default_step_is_quarter_cell():
    m = tp.solve_maze(single_cell(cell=0.8))
    path = tp.trace_path(m)
    assert path.step_size == pytest.approx(0.2)
    steps = [abs(b - a) for a, b in zip(path.points, path.points[1:])]
    assert max(steps) <= path.step_size * 1.01


def test_path_symmetric_mask_stays_on_axis():
    mask = np.array([[True], [False], [True]])
    spec = tp.MazeSpec(mask=mask, cell_size=1.0, origin_offset=1 + 0j)
    m = tp.solve_maze(spec)
    assert np.allclose(m.result.measure.weights, 0.5)
    path = tp.trace_path(m)
    assert path.status == "escaped"
    assert all(abs(z.imag) <= 1e-9 for z in path.points)
    assert path.clearance > 0


def test_path_stalls_at_symmetric_center():
    # winding ring: the gradient at the origin vanishes by symmetry
    spec = tp.MazeSpec(mask=ring3(), cell_size=1.0)
    m = tp.solve_maze(spec)
    path = tp.trace_path(m)
    assert path.status == "stalled"
    assert len(path.points) <= 3


def test_max_steps_cuts_path():
    m = tp.solve_maze(single_cell())
    path = tp.trace_path(m, max_steps=2)
    assert path.status == "max-steps"
    assert len(path.points) == 3


def test_fock_rescale_reported():
    m = tp.solve_maze(single_cell(offset=10 + 0j))
    assert m.scale == pytest.approx(0.3)
    assert m.escape_radius == pytest.approx(15.0)
    assert m.points == (10 + 0j,)


def test_winding_ring_margins_level():
    # margins equalize on a set winding around the origin
    spec = tp.MazeSpec(mask=ring3(), cell_size=1.0)
    m = tp.solve_maze(spec)
    table = tp.margin_table(m.result.measure, m.psi, m.kernel)
    inner = [i for i, z in enumerate(m.points)]
    spread = np.ptp(table.margins[inner])
    assert spread <= 1e-5
    assert m.result.measure.support() == tuple(range(8))


def test_potential_field_values_and_raster():
    m = tp.solve_maze(single_cell())
    f = tp.potential_field(m, resolution=48)
    assert f.values.shape == (48, 48)
    assert f.raster.dtype == np.uint8
    assert f.raster.min() == 0 and f.raster.max() == 255
    # near the obstacle atom the margin collapses toward its KKT zero
    ix = int(np.argmin(np.abs(f.xs - 1.0)))
    iy = int(np.argmin(np.abs(f.ys - 0.0)))
    assert f.values[iy, ix] <= 0.05
    # origin sits in the positive region for a non-winding obstacle
    ox = int(np.argmin(np.abs(f.xs)))
    oy = int(np.argmin(np.abs(f.ys)))
    assert f.values[oy, ox] > 0


def test_potential_matches_margin_formula():
    m = tp.solve_maze(single_cell())
    f = tp.potential_field(m, resolution=16)
    r = m.result
    z = complex(f.xs[3], f.ys[10])
    expect = -tp.mu_eval(r.measure, m.kernel, (z.real, z.imag)) - r.rate
    assert f.values[10, 3] == pytest.approx(expect, abs=1e-12)


def test_conjugate_field_vanishes_on_real_axis_for_origin_atom():
    m = tp.solve_maze(single_cell(offset=0j))
    c = tp.conjugate_field(m, resolution=16)
    iy = int(np.argmin(np.abs(c.ys)))
    assert np.max(np.abs(c.values[iy, :])) <= 1e-12


def test_the_result_keeps_no_kernel_and_rebuilds_the_solves_gram():
    """MazeResult has no kernel field; its kernel, built on first access and
    then kept, has the Gram of the scaled cell centers bit for bit."""
    spec = tp.MazeSpec(mask=seeded_ring_mask(301), cell_size=0.05)
    m = tp.solve_maze(spec)
    assert "kernel" not in {f.name for f in dataclasses.fields(m)}
    assert "kernel" not in vars(m)
    expect = tp.fock(tp.rasterize(spec) * m.scale).gram
    assert m.kernel.gram.tobytes() == expect.tobytes()
    assert m.kernel is m.kernel


def _cells(m):
    """The scaled cell centers of a maze result and k(z, z) over them."""
    Z = np.asarray(m.points) * m.scale
    return Z, fock_pairing(Z, Z, paired=True)


MAZE_CONFIG = tp.SolveConfig(algorithm="exchange", margin_tol=mz.MAZE_MARGIN_TOL)


@pytest.mark.parametrize("target", [None, 0.3 + 0.2j])
@pytest.mark.parametrize("start", ["one ring cell", "half the boundary"])
def test_a_cell_outside_the_seed_set_violates_and_joins(target, start):
    """Seeded with one boundary cell, or with every other one, the working
    set grows by violators until the measure certifies over every cell, as
    numpy confirms on the full Gram, and the rounds' trace rows name cells
    and count on. From one cell the support is the full-Gram solve's; from
    half the boundary a neighbouring cell can stand in for an atom, and the
    objective is the full solve's within the certificate's gap bound."""
    spec = tp.MazeSpec(mask=seeded_ring_mask(302), cell_size=0.05, target=target)
    m = tp.solve_maze(spec)
    assert m.trichotomy == "solved"
    boundary = np.flatnonzero(tp.discrete_boundary(spec.mask)[spec.mask])
    seed_cells = boundary[:1] if start == "one ring cell" else boundary[::2]
    cfg = dataclasses.replace(MAZE_CONFIG, trace=True)
    Z, diag = _cells(m)
    result, W = mz._solve_cells(Z, m.psi, diag, cfg, seed_cells)
    assert W.size > seed_cells.size and set(seed_cells) <= set(W.tolist())
    assert not set(result.support()) <= set(seed_cells.tolist())
    full = tp.solve(m.kernel, m.psi, MAZE_CONFIG)
    if start == "one ring cell":
        assert result.support() == full.support()
    assert abs(result.objective - full.objective) <= mz.MAZE_MARGIN_TOL
    top, floor = numpy_margins(m.kernel.gram, m.psi.values, result.measure)
    assert top <= mz.MAZE_MARGIN_TOL and floor >= -mz.MAZE_MARGIN_TOL
    assert [row.iteration for row in result.trace] == list(range(1, result.iterations + 1))
    assert {row.added_point for row in result.trace} - {None} <= set(W.tolist())


@pytest.mark.parametrize("seed", range(301, 313))
def test_the_boundary_solve_is_the_full_gram_solve_on_benchmark_rings(seed):
    """On the benchmark rings the boundary cells are the working set once
    and for all: the support and iteration count are the full-Gram solve's,
    the working-set Gram is the [W, W] block of the full one bit for bit,
    and the certificate holds over every cell of the full Gram."""
    spec = tp.MazeSpec(mask=seeded_ring_mask(seed), cell_size=0.05)
    m = tp.solve_maze(spec)
    full = tp.solve(m.kernel, m.psi, MAZE_CONFIG)
    assert m.result.support() == full.support()
    assert m.result.iterations == full.iterations
    Z, diag = _cells(m)
    boundary = np.flatnonzero(tp.discrete_boundary(spec.mask)[spec.mask])
    result, W = mz._solve_cells(Z, m.psi, diag, MAZE_CONFIG, boundary)
    assert np.array_equal(W, boundary) and result == m.result
    assert m.kernel.gram[np.ix_(W, W)].tobytes() == tp.fock(Z[W]).gram.tobytes()
    assert diag.tobytes() == np.diagonal(m.kernel.gram).tobytes()
    top, floor = numpy_margins(m.kernel.gram, m.psi.values, m.result.measure)
    assert top <= mz.MAZE_MARGIN_TOL and floor >= -mz.MAZE_MARGIN_TOL


@pytest.mark.parametrize("target", [None, 0.3 + 0.2j, 2.0 + 0.5j])
def test_psi_is_the_full_kernels_without_its_gram(target):
    """psi over every cell, values and norm, is the full kernel's zero or
    point-kernel psi bit for bit, though the solve never builds that kernel."""
    m = tp.solve_maze(tp.MazeSpec(mask=seeded_ring_mask(301), cell_size=0.05, target=target))
    if target is None:
        expect = tp.PsiSpec.zero(m.kernel)
    else:
        expect = tp.PsiSpec.point_kernel(complex(target) * m.scale, m.kernel)
    assert m.psi.values.tobytes() == expect.values.tobytes()
    assert m.psi.norm == expect.norm


def test_a_failed_maze_solve_carries_its_partial_over_every_cell():
    """A solve that fails on the working set re-raises with the same exit
    code and a partial result whose ids index MazeResult.points: the full
    solve's partial, tabulated over every cell."""
    spec = tp.MazeSpec(mask=seeded_ring_mask(301), cell_size=0.05)
    cfg = dataclasses.replace(MAZE_CONFIG, max_iter=1)
    with pytest.raises(tp.MaxIterExceeded) as err:
        tp.solve_maze(spec, cfg)
    assert tp.exit_code_for(err.value) == 4
    partial = err.value.result
    m = tp.solve_maze(spec)
    with pytest.raises(tp.MaxIterExceeded) as full:
        tp.solve(m.kernel, m.psi, cfg)
    expect = full.value.result
    assert partial.iterations == expect.iterations == 1
    assert partial.support() == expect.support()
    assert all(0 <= i < len(m.points) for i in partial.measure.ids)
    assert partial.measure.weights == pytest.approx(expect.measure.weights, abs=1e-15)
    table = tp.margin_table(partial.measure, m.psi, m.kernel)
    assert (partial.rate, partial.score) == pytest.approx((table.rate, table.score), abs=1e-12)


def test_an_origin_in_an_obstacle_is_evaluated_from_its_column():
    """The short-circuit's point mass is tabulated over every cell from one
    column, as the full kernel's margin table would."""
    mask = np.ones((5, 5), dtype=bool)
    m = tp.solve_maze(tp.MazeSpec(mask=mask, cell_size=0.4, origin_offset=0.1 + 0j))
    assert m.trichotomy == "origin-in-obstacle"
    table = tp.margin_table(m.result.measure, m.psi, m.kernel)
    assert (m.result.rate, m.result.objective) == (table.rate, table.objective)
    assert m.result.score == pytest.approx(table.score, abs=1e-15)
    assert m.result.index == tp.TopiaryResult.from_table(
        m.result.measure, table, mz.MAZE_MARGIN_TOL, 0, "exchange").index


def test_a_path_from_inside_an_obstacle_is_refused_by_its_trichotomy(monkeypatch):
    """trace_path reads the result's trichotomy, not the cells, and refuses
    the origin-in-obstacle branch with exit 2."""
    inside, outside = tp.solve_maze(single_cell(offset=0j)), tp.solve_maze(single_cell())
    monkeypatch.setattr(mz, "_containing_cell", None)
    with pytest.raises(tp.StartInsideObstacle,
                       match="^the origin lies inside an obstacle cell$") as err:
        tp.trace_path(inside)
    assert tp.exit_code_for(err.value) == 2
    assert tp.trace_path(outside).status == "escaped"


@pytest.mark.parametrize("bounds", [
    (math.nan, 1.0, 0.0, 1.0), (0.0, math.inf, 0.0, 1.0), (0.0, 1.0, 0.0),
    (0.0, 1.0, 0.0, 1.0, 2.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, -1.0),
    (True, 1.0, 0.0, 1.0), ("0", 1.0, 0.0, 1.0), (), "0011",
])
def test_field_bounds_are_checked(bounds):
    m = tp.solve_maze(single_cell())
    for draw in (tp.potential_field, tp.conjugate_field, tp.fields):
        with pytest.raises(tp.InvalidInput, match="bounds"):
            draw(m, resolution=4, bounds=bounds)


def _direct_sum(m, f):
    """G over f's grid, one exponential per grid point and term, and the
    largest sum of the terms' moduli, the scale of G's round-off."""
    from topiary import maze

    c, q = maze._terms(m)
    zs = (f.xs[None, :] + 1j * f.ys[:, None]) * m.scale
    terms = np.exp(np.multiply.outer(zs, q))
    return terms @ c, float((np.abs(terms) @ np.abs(c)).max())


def _assert_fields_match_direct_sum(m, resolution, bounds):
    potential, conjugate = tp.fields(m, resolution=resolution, bounds=bounds)
    g, scale = _direct_sum(m, potential)
    tol = 1e-12 * scale
    assert np.abs(potential.values - (g.real - m.result.rate)).max() <= tol
    assert np.abs(conjugate.values - np.abs(g.imag)).max() <= tol


def _boxes():
    """Five random boxes, two lines and one point."""
    rng = np.random.default_rng(93)
    boxes = [tuple(np.sort(rng.uniform(-3.0, 3.0, 2))) + tuple(np.sort(rng.uniform(-3.0, 3.0, 2)))
             for _ in range(5)]
    return boxes + [(-1.0, 2.0, 0.4, 0.4), (0.7, 0.7, -2.0, 1.0), (-0.3, -0.3, 0.2, 0.2)]


@pytest.mark.parametrize("target", [None, 0.3 + 0.2j])
def test_separable_sample_equals_direct_sum(target):
    m = tp.solve_maze(tp.MazeSpec(mask=ring_gap(), cell_size=0.05, target=target))
    for bounds in _boxes():
        for resolution in (1, 2, 37):
            _assert_fields_match_direct_sum(m, resolution, bounds)


def _whole_raster(values):
    """The raster scaled over the whole grid at once."""
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= 0:
        return np.zeros(values.shape, dtype=np.uint8)
    return np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)


def _assert_bands_are_the_whole_product(m, resolution, bounds=None):
    """fields' values and rasters, bit for bit, against G formed as one
    product rows @ cols over the whole grid."""
    potential, conjugate = tp.fields(m, resolution=resolution, bounds=bounds)
    rows, cols = mz._factors(m, potential.xs, potential.ys)
    g = rows @ cols
    for field, values in ((potential, g.real - m.result.rate), (conjugate, np.abs(g.imag))):
        assert field.values.shape == (resolution, resolution)
        assert np.array_equal(field.values, values)
        assert np.array_equal(field.raster, _whole_raster(values))


@pytest.mark.parametrize("target", [None, 0.3 + 0.2j])
def test_banded_fields_are_the_whole_product_bit_for_bit(target):
    """Resolutions on both sides of one band (1024 points: 31, 32, 33 rows),
    with uneven last bands (37, 300), and 205, whose last band of four-row
    steps would be one row (numpy's gemv path) and joins the band before."""
    m = tp.solve_maze(tp.MazeSpec(mask=ring_gap(), cell_size=0.05, target=target))
    for bounds in _boxes():
        for resolution in (1, 2, 31, 32, 33, 37, 205, 300):
            _assert_bands_are_the_whole_product(m, resolution, bounds)


@pytest.mark.parametrize("seed", range(301, 313))
def test_banded_fields_on_benchmark_rings_are_the_whole_product(seed):
    m = tp.solve_maze(tp.MazeSpec(mask=seeded_ring_mask(seed), cell_size=0.05))
    _assert_bands_are_the_whole_product(m, 256)


def test_bands_cover_the_grid_with_no_lone_row():
    for nrows in (1, 2, 3, 31, 32, 33, 37, 205, 300, 513, 1025):
        bands = mz._bands(nrows, nrows)
        assert bands[0].start == 0 and bands[-1].stop == nrows
        assert all(a.stop == b.start for a, b in zip(bands, bands[1:]))
        sizes = [b.stop - b.start for b in bands]
        assert min(sizes) >= min(2, nrows)
        assert max(sizes) * nrows <= max(mz._BAND + nrows, 3 * nrows)


def _per_point_clearance(spec, points, path):
    half = spec.cell_size / 2.0
    centers = np.asarray(points)
    best = math.inf
    for z in path:
        dz = centers - complex(z)
        best = min(best, float(np.maximum(np.abs(dz.real), np.abs(dz.imag)).min()) - half)
    return best


@pytest.mark.parametrize("length", [1, 7, 8, 9, 141])
def test_block_clearance_is_the_per_point_loop(length):
    spec = tp.MazeSpec(mask=ring_gap(), cell_size=0.05)
    m = tp.solve_maze(spec)
    traced = tp.trace_path(m).points
    assert len(traced) >= 141
    rng = np.random.default_rng(length)
    scattered = rng.uniform(-1.5, 1.5, length) + 1j * rng.uniform(-1.5, 1.5, length)
    for path in (traced[:length], tuple(complex(z) for z in scattered)):
        assert len(path) == length
        assert mz._clearance(spec, m.points, path) == _per_point_clearance(spec, m.points, path)


def test_separable_sample_far_from_the_origin():
    """On this box each term's x and y factors reach e^{+-800} while the term
    itself stays near modulus 1: the factors are balanced, not overflowed."""
    m = tp.solve_maze(single_cell(offset=1 + 1j))
    assert m.scale == 1.0
    _assert_fields_match_direct_sum(m, 9, (800.0, 801.0, -801.0, -800.0))


def test_fields_refuse_a_grid_where_g_overflows():
    """|G| reaches about e^1000 on this box: refused with the bounds named,
    where it once came back as NaN with an all-zero raster."""
    spec = tp.MazeSpec(mask=np.ones((2, 1), dtype=bool), cell_size=1.0, origin_offset=3j)
    m = tp.solve_maze(spec)
    assert m.trichotomy == "solved"
    for draw in (tp.potential_field, tp.conjugate_field, tp.fields):
        with pytest.raises(tp.DomainError, match=r"\(-400.0, 400.0, -400.0, 400.0\)") as info:
            draw(m, resolution=8, bounds=(-400, 400, -400, 400))
        assert tp.exit_code_for(info.value) == 3


def test_fields_memory_is_bounded_by_the_output():
    """G is formed in bands: the peak stays within 1.25 times the two float
    value arrays, with no complex grid and no resolution^2 x terms
    temporary."""
    m = tp.solve_maze(tp.MazeSpec(mask=ring_gap(), cell_size=0.05))
    assert len(mz._terms(m)[0]) >= 15
    assert peak_bytes(lambda: tp.fields(m, resolution=512)) < 1.25 * 2 * 8 * 512 * 512


def _at(field_fn, m, z):
    """A field's value at the single point z."""
    return float(field_fn(m, resolution=1, bounds=(z.real, z.real, z.imag, z.imag)).values[0, 0])


def test_conjugate_is_constant_along_path_with_target():
    """With a target the conjugate still belongs to the full potential, so
    the traced gradient path stays on the conjugate's level through 0."""
    spec = tp.MazeSpec(mask=ring_gap(), cell_size=0.05, target=0.3 + 0.2j)
    m = tp.solve_maze(spec)
    assert m.trichotomy == "solved" and len(m.result.support()) > 1
    path = tp.trace_path(m)
    assert path.status == "escaped"
    assert max(_at(tp.conjugate_field, m, z) for z in path.points) <= 1e-6


@pytest.mark.parametrize("target", [None, 0.3 + 0.2j])
def test_gradient_matches_potential_differences(target):
    """The path's ascent direction is the direction of the potential's
    central-difference gradient. Probed outside the ring: inside it the
    gradient is ~1e-7 and the differences drown in round-off."""
    from topiary import maze

    m = tp.solve_maze(tp.MazeSpec(mask=ring_gap(), cell_size=0.05, target=target))
    c, q = maze._terms(m)
    h = 1e-4
    for z in (1.6 - 0.9j, 2.0 + 1.0j, -1.5 + 0.5j, 0.2 - 1.6j):
        dx = _at(tp.potential_field, m, z + h) - _at(tp.potential_field, m, z - h)
        dy = _at(tp.potential_field, m, z + 1j * h) - _at(tp.potential_field, m, z - 1j * h)
        fd = complex(dx, dy) / (2 * h)
        g = maze._gradient(q, c * q, z * m.scale)
        assert abs(g / abs(g) - fd / abs(fd)) <= 1e-6


def test_boundary_support_on_thick_mask():
    # 5x5 solid block away from the origin: support only on boundary cells
    mask = np.ones((5, 5), dtype=bool)
    spec = tp.MazeSpec(mask=mask, cell_size=0.4, origin_offset=2 + 0j)
    m = tp.solve_maze(spec)
    bnd = tp.discrete_boundary(mask)
    for i in m.result.measure.support():
        row, col = m.cells[i]
        assert bnd[row, col]


def test_harmonic_mean_value_property():
    # mu is harmonic away from its atoms: 5-point Laplacian nearly vanishes
    m = tp.solve_maze(single_cell())
    h = 1e-3
    mu = m.result.measure

    def val(z):
        return tp.mu_eval(mu, m.kernel, (z.real, z.imag))

    z0 = -0.5 + 0.25j
    lap = (
        val(z0 + h) + val(z0 - h) + val(z0 + 1j * h) + val(z0 - 1j * h) - 4 * val(z0)
    ) / h ** 2
    assert abs(lap) <= 1e-5


@pytest.mark.parametrize("mask, seed, radius", [
    (seeded_ring_mask, 25, None),
    (seeded_ring_mask, 309, 3.0),
    (seeded_ring_mask, 305, 2.0),
    (seeded_two_ring_mask, 2, 3.0),
    (seeded_two_ring_mask, 8, 3.0),
])
def test_exchange_certifies_ill_conditioned_fock_rings(mask, seed, radius):
    """Fock Grams of ring mazes, in the maze's own frame (radius None) or
    with the cells scaled out to radius, have cond(G_S) up to ~1e7. The
    certificate holds the support's margins only within +-tol, so a step
    that assumes them level can lose its ascent; heading for the hedge of
    the support plus the new atom certifies at 1e-6, as numpy confirms."""
    spec = tp.MazeSpec(mask=mask(seed), cell_size=0.05)
    if radius is None:
        m = tp.solve_maze(spec)
        assert m.scale == 1.0 and m.trichotomy == "solved"
        kern, result = m.kernel, m.result
    else:
        points = np.asarray(tp.rasterize(spec))
        kern = tp.fock(points * (radius / np.abs(points).max()))
        result = tp.solve(kern, None, tp.SolveConfig(margin_tol=1e-6))
    top, floor = numpy_margins(kern.gram, np.zeros(kern.n), result.measure)
    assert top <= 1e-6 and floor >= -1e-6
