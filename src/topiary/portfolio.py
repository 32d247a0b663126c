"""Long-only portfolio construction on top of the topiary solver.

The identification is direct: Gram matrix = return covariance, psi = mean
returns, so the objective mean - variance/2 is the growth rate of the mixed
asset and the optimizer's measure is the portfolio. Cash is an asset whose
covariance row is zero; its embedding is the zero element, which is what
pins the topiaric rate to the risk-free rate whenever cash is held.
"""

import numbers
import operator
from dataclasses import dataclass, replace
from functools import partial
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
    integer,
    real,
    reals,
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
        if not isinstance(self.labels, (list, tuple)):
            raise InvalidInput("labels must be a list, got %r" % (self.labels,))
        keep = partial(object.__setattr__, self)
        keep("labels", tuple(str(l) for l in self.labels))
        keep("mean", reals(self.mean, "mean"))
        keep("covariance", reals(self.covariance, "covariance", 2))
        keep("mean_shrink", real(self.mean_shrink, "mean_shrink"))
        keep("var_inflate", real(self.var_inflate, "var_inflate"))
        for key, check, positive in (("risk_free_rate", real, False),
                                     ("annualize_factor", integer, True),
                                     ("rf_index", integer, False)):
            if getattr(self, key) is not None:
                keep(key, check(getattr(self, key), key, positive))
        n = len(self.labels)
        if self.mean.shape != (n,):
            raise InvalidInput("need one mean per asset, got %s for %d" % (self.mean.shape, n))
        if self.covariance.shape != (n, n):
            raise InvalidInput("covariance is %s for %d assets" % (self.covariance.shape, n))
        if not (0.0 <= self.mean_shrink <= 1.0):
            raise InvalidInput("mean_shrink must lie in [0, 1]")
        if self.var_inflate < 0.0:
            raise InvalidInput("var_inflate must be nonnegative")
        if self.rf_index is not None and not (0 <= self.rf_index < n):
            raise InvalidInput("rf_index %s outside the asset list" % (self.rf_index,))
        checked_gram(self.covariance)

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


def _rounded(num, den, what, *assets):
    """num / den rounded once to a double; a value beyond the double range is
    refused, naming the moment and its asset or asset pair."""
    try:
        return num / den
    except OverflowError:
        raise InvalidInput("%s of %s overflows a double"
                           % (what, " and ".join(map(repr, assets)))) from None


def ingest_returns(table, annualize_factor=None):
    """Sample mean and covariance (denominator rows - 1) per asset.

    Cells may arrive as strings straight from CSV; anything that does not
    parse is an error carrying its row and column, never imputed.
    Annualization, when requested, multiplies both moments by the factor.

    Every moment is the exact rational value rounded once to the nearest
    double, so hand-checkable fractions like 1/75 come out as exactly that
    double. Every double is a dyadic rational, so column j is scaled to
    integers X_ij over its largest denominator 2^e_j; with S_j = sum_i X_ij
    and D_ij = n X_ij - S_j, the mean is S_j f / (n 2^e_j) and the covariance
    sum_i D_ij D_ik f / (n^2 (n-1) 2^(e_j+e_k)), each one int/int true
    division, which Python rounds correctly. A moment beyond the double range
    is refused with InvalidInput naming its asset or asset pair.
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
            number = isinstance(cell, numbers.Real) and not isinstance(cell, bool)
            try:
                data[i, j] = float(cell if number else str(cell).strip())
            except ValueError:
                raise NonNumericCell(
                    "cell at row %d, column %d (%s) is not a number: %r"
                    % (i + 1, j + 1, labels[j], cell)
                ) from None
            except OverflowError:
                raise NonNumericCell(
                    "cell at row %d, column %d (%s) is beyond the double range"
                    % (i + 1, j + 1, labels[j])
                ) from None
    if not np.isfinite(data).all():
        bad = np.argwhere(~np.isfinite(data))[0]
        raise NonNumericCell(
            "cell at row %d, column %d is not finite" % (bad[0] + 1, bad[1] + 1)
        )
    nrows = data.shape[0]
    factor = integer(1 if annualize_factor is None else annualize_factor,
                     "annualize_factor", positive=True)
    # column j as integers X_ij over 2^e_j, the column's largest denominator
    scaled, exps = [], []
    for col in data.T.tolist():
        ratios = [v.as_integer_ratio() for v in col]
        e = max(d for _, d in ratios).bit_length() - 1
        scaled.append([x << (e + 1 - d.bit_length()) for x, d in ratios])
        exps.append(e)
    sums = [sum(col) for col in scaled]
    dev = [[nrows * x - s for x in col] for col, s in zip(scaled, sums)]
    scale = nrows * nrows * (nrows - 1)
    mean = np.empty(ncol)
    cov = np.empty((ncol, ncol))
    for j in range(ncol):
        mean[j] = _rounded(sums[j] * factor, nrows << exps[j], "mean", labels[j])
    for j in range(ncol):
        for k in range(j, ncol):
            c = _rounded(sum(map(operator.mul, dev[j], dev[k])) * factor,
                         scale << (exps[j] + exps[k]), "covariance", labels[j], labels[k])
            cov[j, k] = cov[k, j] = c
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
    s = spec.mean_shrink
    lam = spec.var_inflate
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
        mean=np.append(spec.mean, spec.risk_free_rate),
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
        corrections=(spec.mean_shrink, spec.var_inflate),
        capm=tuple(capm_report(result, kern, psi)),
        sml=sml_points(result, kern, psi),
        adaptive_constant=constant,
    )
