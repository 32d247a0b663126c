"""Long-only portfolio construction on top of the topiary solver.

The identification is direct: Gram matrix = return covariance, psi = mean
returns, so the objective mean - variance/2 is the growth rate of the mixed
asset and the optimizer's measure is the portfolio. Cash is an asset whose
covariance row is zero; its embedding is the zero element, which is what
pins the topiaric rate to the risk-free rate whenever cash is held.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from . import measure as msr
from . import objective as obj
from .diagnostics import capm_report, sml_points
from .errors import (
    InvalidInput,
    NonNumericCell,
    RaggedRow,
    TooFewRows,
    UnknownReferencePoint,
)
from .kernel import checked_gram, explicit_gram
from .solver import SolveConfig, solve

RISK_FREE_LABEL = "risk-free"

# the go-all-in trigger is boundary-inclusive: an asset whose excess return
# exactly equals its variance still rides the edge the correction targets
_TRIGGER_SLACK = 1e-12


@dataclass(frozen=True)
class ReturnsTable:
    labels: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]


@dataclass(frozen=True)
class PortfolioSpec:
    labels: Tuple[str, ...]
    mean: np.ndarray
    covariance: np.ndarray
    risk_free_rate: Optional[float] = None
    mean_shrink: float = 0.0
    var_inflate: float = 0.0
    annualize_factor: Optional[int] = None
    reference: Optional[msr.AtomicMeasure] = None
    rf_index: Optional[int] = None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        labels = tuple(str(l) for l in self.labels)
        n = len(labels)
        if mean.shape != (n,):
            raise InvalidInput("need one mean per asset, got %s for %d" % (mean.shape, n))
        if cov.shape != (n, n):
            raise InvalidInput("covariance is %s for %d assets" % (cov.shape, n))
        if not (0.0 <= self.mean_shrink <= 1.0):
            raise InvalidInput("mean_shrink must lie in [0, 1]")
        if self.var_inflate < 0.0:
            raise InvalidInput("var_inflate must be nonnegative")
        if self.annualize_factor is not None and int(self.annualize_factor) < 1:
            raise InvalidInput("annualize_factor must be a positive integer")
        if self.rf_index is not None and not (0 <= int(self.rf_index) < n):
            raise InvalidInput("rf_index %s outside the asset list" % (self.rf_index,))
        checked_gram(cov)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def n(self):
        return len(self.labels)


@dataclass(frozen=True)
class PortfolioReport:
    spec: PortfolioSpec
    result: object
    weights: Tuple[Tuple[str, int, float], ...]  # (label, id, weight), weight desc
    rate: float
    variance: float
    flagged: Tuple[int, ...]
    corrections: Tuple[float, float]  # requested (mean_shrink, var_inflate)
    capm: tuple
    sml: object
    adaptive_constant: float


def ingest_returns(table, annualize_factor=None):
    """Sample mean and covariance (denominator rows - 1) per asset.

    Cells may arrive as strings straight from CSV; anything that does not
    parse is an error carrying its row and column, never imputed.
    Annualization, when requested, multiplies both moments by the factor.

    Moments are accumulated in exact rational arithmetic (every float is a
    dyadic rational) and rounded once on exit, so hand-checkable fractions
    like 1/75 come out as exactly that double. Return tables are desk scale;
    exactness is worth more here than vectorized speed.
    """
    labels = table.labels
    ncol = len(labels)
    if len(table.rows) < 2:
        raise TooFewRows("need at least 2 return rows, got %d" % len(table.rows))
    data = np.empty((len(table.rows), ncol))
    for i, row in enumerate(table.rows):
        if len(row) != ncol:
            raise RaggedRow("row %d has %d cells, header has %d" % (i + 1, len(row), ncol))
        for j, cell in enumerate(row):
            if isinstance(cell, numbers.Real):
                data[i, j] = float(cell)
                continue
            try:
                data[i, j] = float(str(cell).strip())
            except ValueError:
                raise NonNumericCell(
                    "cell at row %d, column %d (%s) is not a number: %r"
                    % (i + 1, j + 1, labels[j], cell)
                ) from None
    if not np.isfinite(data).all():
        bad = np.argwhere(~np.isfinite(data))[0]
        raise NonNumericCell(
            "cell at row %d, column %d is not finite" % (bad[0] + 1, bad[1] + 1)
        )
    nrows = data.shape[0]
    factor = 1 if annualize_factor is None else int(annualize_factor)
    cols = [[Fraction(v) for v in data[:, j]] for j in range(ncol)]
    mean_fr = [sum(col) / nrows for col in cols]
    dev = [[v - m for v in col] for col, m in zip(cols, mean_fr)]
    mean = np.array([float(m * factor) for m in mean_fr])
    cov = np.empty((ncol, ncol))
    for j in range(ncol):
        for k in range(j, ncol):
            c = sum(a * b for a, b in zip(dev[j], dev[k])) / (nrows - 1)
            cov[j, k] = cov[k, j] = float(c * factor)
    return mean, cov


def apply_risk_belief(spec):
    """Shrink means toward the risk-free rate and inflate variances.

    mean' = r + (1-s)(mean - r), covariance' = covariance + lambda *
    diag(covariance); adding a nonnegative diagonal keeps the matrix PSD, and
    the corrected spec passes the Gram gate again on construction.
    Returns (corrected spec, flagged asset ids): an asset is flagged when its
    corrected excess return still matches or exceeds its corrected variance,
    the incentive to go all in. The risk-free asset itself is exempt.
    """
    r = spec.risk_free_rate if spec.risk_free_rate is not None else 0.0
    s = float(spec.mean_shrink)
    lam = float(spec.var_inflate)
    mean = r + (1.0 - s) * (spec.mean - r)
    cov = spec.covariance + lam * np.diag(np.diag(spec.covariance))
    corrected = replace(spec, mean=mean, covariance=cov, mean_shrink=0.0, var_inflate=0.0)
    var = np.diag(cov)
    flagged = tuple(
        int(i)
        for i in range(spec.n)
        if i != spec.rf_index and mean[i] - var[i] >= r - _TRIGGER_SLACK
    )
    return corrected, flagged


def add_risk_free(spec):
    """Append cash: mean = risk-free rate, zero covariance row and column."""
    if spec.risk_free_rate is None:
        raise InvalidInput("spec has no risk_free_rate to add an asset for")
    if spec.rf_index is not None:
        raise InvalidInput("spec already carries a risk-free asset")
    n = spec.n
    cov = np.zeros((n + 1, n + 1))
    cov[:n, :n] = spec.covariance
    return replace(
        spec,
        labels=spec.labels + (RISK_FREE_LABEL,),
        mean=np.append(spec.mean, float(spec.risk_free_rate)),
        covariance=cov,
        rf_index=n,
    )


def reduce_adaptive(spec, kern=None):
    """Fold a reference holding into psi.

    Maximizing integral(psi) - ||mu - nu||^2/2 is the standard objective with
    psi'(x) = psi(x) + nu(x), shifted by the constant -||nu||^2/2. Returns
    (psi', kernel, constant); the kernel is unchanged.
    """
    if kern is None:
        kern = explicit_gram(spec.covariance, labels=spec.labels)
    nu = spec.reference
    if nu is None:
        return obj.as_psi(spec.mean, kern), kern, 0.0
    for i in nu.ids:
        if not (0 <= int(i) < kern.n):
            raise UnknownReferencePoint(
                "reference atom %d is not one of the %d assets" % (int(i), kern.n)
            )
    table = obj.margin_table(nu, None, kern)
    return obj.PsiSpec.table(spec.mean + table.mu), kern, -table.norm_sq / 2.0


def optimize_portfolio(spec, config=None):
    """Solve the spec and assemble the report.

    Pipeline: risk-belief correction, optional cash asset, optional adaptive
    reduction, then the solver (second-greedy unless configured otherwise).
    Weights are reported in descending order; rate and variance describe the
    converged portfolio.
    """
    corrected, flagged = apply_risk_belief(spec)
    if corrected.risk_free_rate is not None and corrected.rf_index is None:
        corrected = add_risk_free(corrected)
    kern = explicit_gram(corrected.covariance, labels=corrected.labels)
    psi, kern, constant = reduce_adaptive(corrected, kern)
    cfg = config if config is not None else SolveConfig(algorithm="second-greedy")
    result = solve(kern, psi, cfg)
    weights = tuple(
        sorted(
            ((corrected.labels[i], i, w) for i, w in result.measure.atoms if w != 0.0),
            key=lambda t: (-t[2], t[1]),
        )
    )
    return PortfolioReport(
        spec=corrected,
        result=result,
        weights=weights,
        rate=result.rate,
        variance=msr.norm_sq(result.measure, kern),
        flagged=flagged,
        corrections=(float(spec.mean_shrink), float(spec.var_inflate)),
        capm=tuple(capm_report(result, kern, psi)),
        sml=sml_points(result, kern, psi),
        adaptive_constant=constant,
    )
