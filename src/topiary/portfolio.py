"""Long-only portfolio construction on top of the topiary solver.

The identification is direct: Gram matrix = return covariance, psi = mean
returns, so the objective mean - variance/2 is the growth rate of the mixed
asset and the optimizer's measure is the portfolio. Cash is an asset whose
covariance row is zero; its embedding is the zero element, which is what
pins the topiaric rate to the risk-free rate whenever cash is held.
"""

import numbers
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
from .kernel import checked_symmetric, explicit_gram
from .solver import solve

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
    """Assets, their moments and the beliefs applied to them. The covariance
    is checked here for shape, finite entries and symmetry; the PSD gate
    runs once, when `optimize_portfolio` or `reduce_adaptive` builds its
    kernel, so derived specs (`replace`, the cash row) decompose nothing."""

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
        checked_symmetric(self.covariance)

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


# a float64 sum of integers is exact while every partial sum stays below 2^53
_EXACT_BITS = 53
# rows per block of limbs, which bounds the limb buffer at any table height
_ROW_BLOCK = 64


def _limb_width(nrows, span):
    """(b, L): the widest limb b >= 1 whose L = ceil(span / b) limbs cover a
    span-bit integer with 2b + bitlen(nrows) + bitlen(L) <= 53, so that any
    sum of nrows * L products of two limbs stays below 2^53."""
    rows = nrows.bit_length()
    for b in range((_EXACT_BITS - rows - 1) // 2, 0, -1):
        count = max(1, -(-span // b))
        if 2 * b + rows + count.bit_length() <= _EXACT_BITS:
            return b, count
    raise InvalidInput("%d rows are too many to sum exactly" % nrows)


def _dyadic(data):
    """Column j of data as integers X_ij = mant_ij 2^shift_ij over 2^e_j,
    the column's largest denominator: (mant, shift, [e_j], span), with mant
    integer-valued doubles below 2^53 and |X| below 2^span."""
    # a cell is mant 2^(ex-53), and the lowest set bit of mant is 2^(low-1)
    mant, ex = np.frexp(data)
    np.ldexp(mant, _EXACT_BITS, out=mant)
    low = np.abs(mant).astype(np.int64)
    low &= -low
    low = np.frexp(low)[1] + ex
    zero = mant == 0
    exps = np.max(np.where(zero, 0, _EXACT_BITS + 1 - low), axis=0, initial=0)
    shift = ex + (exps - _EXACT_BITS)
    span = int(np.max(np.where(zero, 0, shift + _EXACT_BITS), initial=0))
    return mant, shift, exps.tolist(), span


def _limbs(mant, shift, b, count):
    """Per block of rows, the integers X = mant 2^shift (mant integer-valued)
    as signed b-bit limbs: [a] holds bits [a b, (a+1) b) of |X| with the
    sign of X. A cell's 53 bits fall in `reach` limbs from the one holding
    its lowest bit; only those are computed, and the limbs from `count` on
    are zero padding. One buffer serves every block."""
    nrows, ncol = mant.shape
    reach = 1 + -(-(_EXACT_BITS - 1) // b)
    depth = count + reach - 1
    buf = np.empty(depth * min(_ROW_BLOCK, nrows) * ncol)
    for start in range(0, nrows, _ROW_BLOCK):
        m, k = mant[start:start + _ROW_BLOCK], shift[start:start + _ROW_BLOCK]
        size = m.size
        limbs = buf[:depth * size].reshape(depth, len(m), ncol)
        limbs.fill(0.0)
        # X = mant 2^k 2^(first b) with k < b; X < 2^(count b), and the
        # clip reaches only zero cells
        first = np.minimum(np.clip(k, 0, None) // b, count - 1)
        k = k - first * b
        at = np.arange(size).reshape(m.shape) + size * first.astype(np.intp)
        for r in range(reach):
            # limb first + r: trunc(X / 2^((first + r) b)) less its multiple of 2^b
            y = np.trunc(np.ldexp(m, k - r * b))
            y -= np.trunc(y * 2.0 ** -b) * 2.0 ** b
            limbs.put(at + r * size, y)
        yield limbs


def _fold(parts, b):
    """sum_t parts[t] 2^(b t) as Python ints; parts holds exact integers."""
    total = 0
    for part in parts[::-1]:
        total = (total << b) + part.astype(np.int64).astype(object)
    return total


def _parse(table):
    """The cells as doubles; a cell that is not a finite number is refused
    with its row and column."""
    labels = table.labels
    ncol = len(labels)
    data = np.empty((len(table.rows), ncol))
    for i, row in enumerate(table.rows):
        if len(row) != ncol:
            raise RaggedRow("row %d has %d cells, header has %d" % (i + 1, len(row), ncol))
        if set(map(type, row)) == {str}:
            try:
                data[i] = [float(cell) for cell in row]
                continue
            except (ValueError, OverflowError):
                pass  # the loop below names the cell
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
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise NonNumericCell(
            "cell at row %d, column %d (%s) is not finite" % (i + 1, j + 1, labels[j])
        )
    return data


def ingest_returns(table, annualize_factor=None):
    """Sample mean and covariance (denominator rows - 1) per asset.

    Cells may arrive as strings straight from CSV; anything that does not
    parse is an error carrying its row and column, never imputed.
    Annualization, when requested, multiplies both moments by the factor.

    Every moment is the exact rational value rounded once to the nearest
    double, so hand-checkable fractions like 1/75 come out as exactly that
    double. Every double is a dyadic rational, so column j is scaled to
    integers X_ij over its largest denominator 2^e_j; with S_j = sum_i X_ij
    and P = X^T X, the mean is S_j f / (n 2^e_j) and the covariance
    n (n P_jk - S_j S_k) f / (n^2 (n-1) 2^(e_j+e_k)), each one int/int true
    division, which Python rounds correctly. All means are rounded, and may
    be refused, before any covariance. A moment beyond the double range is
    refused with InvalidInput naming its asset or asset pair.

    The integers are summed in float64 without rounding: |X| is split into
    L signed limbs of b bits with 2b + bitlen(n) + bitlen(L) <= 53, so every
    partial sum of the n L limb products on one anti-diagonal a + c = t is an
    integer below 2^53, exact in any summation order, and BLAS forms
    sum_{a+c=t} limb_a^T limb_c. Python ints then fold the anti-diagonals
    at shifts b t. This is the error-free splitting of Ozaki, Ogita, Oishi
    and Rump, Numer. Algorithms 59 (2012).
    """
    labels = table.labels
    ncol = len(labels)
    if len(table.rows) < 2:
        raise TooFewRows("need at least 2 return rows, got %d" % len(table.rows))
    mant, shift, exps, span = _dyadic(_parse(table))
    nrows = len(mant)
    factor = integer(1 if annualize_factor is None else annualize_factor,
                     "annualize_factor", positive=True)
    b, count = _limb_width(nrows, span)

    sums = 0
    acc = np.zeros((2 * count - 1, ncol, ncol))
    prod = np.empty((ncol, ncol))
    for limbs in _limbs(mant, shift, b, count):
        sums += limbs.sum(axis=1)
        for a in range(count):
            for c in range(a, count):
                np.matmul(limbs[a].T, limbs[c], out=prod)
                acc[a + c] += prod
                if c > a:
                    acc[a + c] += prod.T
    sums = _fold(sums, b).tolist()
    mean = np.empty(ncol)
    for j in range(ncol):
        mean[j] = _rounded(sums[j] * factor, nrows << exps[j], "mean", labels[j])
    upper = np.triu_indices(ncol)
    gram = _fold(acc[:, upper[0], upper[1]], b)
    scale = nrows * nrows * (nrows - 1)
    cov = np.empty((ncol, ncol))
    for j, k, p in zip(*map(np.ndarray.tolist, upper), gram.tolist()):
        c = _rounded(nrows * (nrows * p - sums[j] * sums[k]) * factor,
                     scale << (exps[j] + exps[k]), "covariance", labels[j], labels[k])
        cov[j, k] = cov[k, j] = c
    return mean, cov


def apply_risk_belief(spec):
    """Shrink means toward the risk-free rate and inflate variances.

    mean' = r + (1-s)(mean - r), covariance' = covariance + lambda *
    diag(covariance); adding a nonnegative diagonal keeps the matrix PSD, and
    the corrected covariance meets the Gram gate once, when its kernel is
    built. A moment whose correction is zero is kept as given, bit for bit,
    and with both corrections zero the spec itself comes back.
    Returns (corrected spec, flagged asset ids): an asset is flagged when its
    corrected excess return still matches or exceeds its corrected variance,
    the incentive to go all in. The risk-free asset itself is exempt.
    """
    r = spec.risk_free_rate if spec.risk_free_rate is not None else 0.0
    s = spec.mean_shrink
    lam = spec.var_inflate
    mean = r + (1.0 - s) * (spec.mean - r) if s else spec.mean
    cov = spec.covariance + lam * np.diag(np.diag(spec.covariance)) if lam else spec.covariance
    corrected = spec
    if s or lam:
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
    reduction, then the solver (`SolveConfig()`'s default, exchange, unless
    configured otherwise).
    Weights are reported in descending order; rate and variance describe the
    converged portfolio.
    """
    corrected, flagged = apply_risk_belief(spec)
    if corrected.risk_free_rate is not None and corrected.rf_index is None:
        corrected = add_risk_free(corrected)
    kern = explicit_gram(corrected.covariance, labels=corrected.labels)
    psi, kern, constant = reduce_adaptive(corrected, kern)
    result = solve(kern, psi, config)
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
