"""Audit reports for a solved instance.

Four views of the same optimum: the pricing table (is any point priced
above the line the portfolio implies?), slope tables between points (do the
difference quotients respect the norm bounds?), market-line scatter data,
and convergence summaries against an oracle objective. Reports are plain
data sorted by point id so repeated runs diff cleanly.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import measure as msr
from . import objective as obj
from .errors import BaseNotInIndex, InvariantViolation, RequiresOracle

_D_FLOOR = 1e-12


@dataclass(frozen=True)
class CapmRow:
    point_id: int
    label: Optional[str]
    psi: float
    mu_value: float
    beta: Optional[float]
    alpha_margin: Optional[float]
    in_index: bool


@dataclass(frozen=True)
class JcRow:
    x: int
    y: int
    d: float
    psi_slope: float
    mu_slope: float


@dataclass(frozen=True)
class SmlPoint:
    point_id: int
    x_coord: float
    y_coord: float
    classification: str


@dataclass(frozen=True)
class SmlReport:
    points: Tuple[SmlPoint, ...]
    slope: float
    intercept: float
    rate: float
    mu_norm: float
    objective: float


@dataclass(frozen=True)
class ConvergenceSummary:
    gaps: Tuple[float, ...]
    n_gap: Tuple[float, ...]
    sup_n_gap: float
    final_gap: float
    violation: bool


def _resolve_measure(result):
    return result if isinstance(result, msr.AtomicMeasure) else result.measure


def _tol_of(result, default=obj.DEFAULT_MARGIN_TOL):
    return getattr(result, "margin_tol", default)


def _evaluate(result, kern, psi, K):
    """(psi spec, margin table, sorted K ids) for a result or bare measure."""
    psi = obj.as_psi(psi, kern)
    table = obj.margin_table(_resolve_measure(result), psi, kern)
    ids = np.array(sorted(int(k) for k in (range(kern.n) if K is None else K)), dtype=int)
    return psi, table, ids


def capm_report(result, kern, psi, K=None):
    """One pricing row per point of K.

    alpha is computed from the regression form psi(x) - r - beta(x) (excess),
    not copied from the margin; the two agreeing is part of what the report
    certifies. A riskless optimum (||mu|| = 0) leaves beta and alpha
    undefined; those rows carry None and in_index falls back to the margin.
    """
    psi, table, ids = _evaluate(result, kern, psi, K)
    tol = _tol_of(result)
    if table.norm_sq <= obj.ZERO_TOL:
        betas = alphas = [None] * ids.size
        member = np.abs(table.margins[ids]) <= tol
    else:
        betas = table.betas()[ids].tolist()
        alphas = table.alphas(psi.values)[ids]
        member = np.abs(alphas) <= tol
        alphas = alphas.tolist()
    return [
        CapmRow(
            point_id=i,
            label=kern.points[i].label,
            psi=float(psi.values[i]),
            mu_value=float(table.mu[i]),
            beta=b,
            alpha_margin=a,
            in_index=bool(f),
        )
        for i, b, a, f in zip(ids.tolist(), betas, alphas, member)
    ]


def jc_report(result, kern, psi, K=None, base_points=None):
    """Difference-quotient rows from index points to the ground set.

    For x in base_points and y in K with d(x,y) > 1e-12, emits
    (psi(y)-psi(x))/d and (mu(y)-mu(x))/d and asserts the slope chain:
    psi_slope <= mu_slope <= ||mu||, both within margin_tol. The lower bound
    -||psi|| is only checkable when psi comes in embedded form with a norm;
    a plain table leaves it unchecked. Violations raise, they do not warn.
    """
    psi, table, ids = _evaluate(result, kern, psi, K)
    tol = _tol_of(result)
    iota = table.margins
    if base_points is None:
        base_points = ids[np.abs(iota[ids]) <= tol].tolist()
    bases = sorted(int(b) for b in base_points)
    for b in bases:
        if not 0 <= b < kern.n:
            raise BaseNotInIndex("base point %d is not one of the %d points" % (b, kern.n))
        if abs(float(iota[b])) > tol:
            raise BaseNotInIndex(
                "point %d has margin %.3g; slope rows start from index points only"
                % (b, float(iota[b]))
            )
    mu_norm = math.sqrt(table.norm_sq)
    G = kern.gram
    diag = np.diag(G)
    rows = []
    for x in bases:
        # Kernel.embed_distance from x to every y at once
        dist = np.sqrt(np.maximum(0.0, G[x, x] - 2.0 * G[x, ids] + diag[ids]))
        far = dist > _D_FLOOR
        ys, dist = ids[far], dist[far]
        psi_slopes = (psi.values[ys] - psi.values[x]) / dist
        mu_slopes = (table.mu[ys] - table.mu[x]) / dist
        for y, d, psi_slope, mu_slope in zip(
            ys.tolist(), dist.tolist(), psi_slopes.tolist(), mu_slopes.tolist()
        ):
            if psi_slope > mu_slope + tol:
                raise InvariantViolation(
                    "slope chain broken at (%d,%d): psi %.17g > mu %.17g"
                    % (x, y, psi_slope, mu_slope)
                )
            if mu_slope > mu_norm + tol:
                raise InvariantViolation(
                    "slope chain broken at (%d,%d): mu %.17g > ||mu|| %.17g"
                    % (x, y, mu_slope, mu_norm)
                )
            if psi.norm is not None and psi_slope < -psi.norm - tol:
                raise InvariantViolation(
                    "slope chain broken at (%d,%d): psi %.17g < -||psi|| %.17g"
                    % (x, y, psi_slope, -psi.norm)
                )
            rows.append(JcRow(x=x, y=y, d=d, psi_slope=psi_slope, mu_slope=mu_slope))
    return rows


def sml_points(result, kern, psi, K=None, extras=()):
    """Scatter data in the (mu(y), psi(y)) plane with the slope-1 line.

    Index points sit on the line psi = mu + r within margin_tol, other
    K-points on or below it, extras wherever they land.
    """
    psi, table, ids = _evaluate(result, kern, psi, K)
    tol = _tol_of(result)
    pts = np.array(sorted(set(ids.tolist()) | {int(e) for e in extras}), dtype=int)
    classes = np.where(
        ~np.isin(pts, ids),
        "outside-K",
        np.where(np.abs(table.margins[pts]) <= tol, "index", "interior-of-K"),
    )
    return SmlReport(
        points=tuple(
            SmlPoint(point_id=i, x_coord=m, y_coord=p, classification=c)
            for i, m, p, c in zip(
                pts.tolist(),
                table.mu[pts].tolist(),
                psi.values[pts].tolist(),
                classes.tolist(),
            )
        ),
        slope=1.0,
        intercept=table.rate,
        rate=table.rate,
        mu_norm=math.sqrt(table.norm_sq),
        objective=table.objective,
    )


def invisible_residual(result1, result2, kern):
    """||mu1 - mu2|| in the embedding."""
    return msr.embedded_distance(_resolve_measure(result1), _resolve_measure(result2), kern)


def convergence_summary(trace, oracle_objective):
    """Per-iteration optimality gaps and the running sup of n * gap_n.

    The violation flag fires when n * gap_n increases monotonically over the
    last half of the trace by more than a factor of two; a trajectory obeying
    an O(1/n) law keeps that product bounded.
    """
    if oracle_objective is None:
        raise RequiresOracle("convergence gaps need a reference objective")
    if not trace:
        raise RequiresOracle("empty trace; run the solver with trace enabled")
    gaps = tuple(float(oracle_objective) - row.objective for row in trace)
    n_gap = tuple(row.iteration * g for row, g in zip(trace, gaps))
    half = len(n_gap) // 2
    tail = n_gap[half:]
    violation = False
    if len(tail) >= 2:
        rising = all(b >= a - 1e-15 * max(1.0, abs(a)) for a, b in zip(tail, tail[1:]))
        violation = rising and tail[-1] > 2.0 * max(tail[0], 0.0) and tail[-1] > 0.0
    return ConvergenceSummary(
        gaps=gaps,
        n_gap=n_gap,
        sup_n_gap=float(max(n_gap)),
        final_gap=float(gaps[-1]),
        violation=violation,
    )
