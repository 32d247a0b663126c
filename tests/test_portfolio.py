import numbers
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import topiary as tp
from topiary import portfolio as pf

from conftest import ZIGZAG_GRAM, numpy_margins


def returns(labels, rows):
    return tp.ReturnsTable(labels=tuple(labels), rows=tuple(map(tuple, rows)))


# -- ingestion ----------------------------------------------------------------

def test_ingest_anticorrelated_pair_exact():
    t = returns("AB", [(0.1, -0.1), (-0.1, 0.1), (0.1, -0.1), (-0.1, 0.1)])
    mean, cov = tp.ingest_returns(t)
    assert mean.tolist() == [0.0, 0.0]
    # hand value 0.04/3; the accumulation is exact, so demand bit equality
    assert cov[0, 0] == 1 / 75
    assert cov[0, 1] == -1 / 75
    assert cov[1, 0] == -1 / 75
    assert cov[1, 1] == 1 / 75


def test_ingest_constant_column():
    t = returns("AB", [(0.02, 0.1), (0.02, -0.1), (0.02, 0.3)])
    mean, cov = tp.ingest_returns(t)
    assert mean[0] == pytest.approx(0.02)
    assert cov[0, 0] == 0.0
    assert cov[0, 1] == 0.0


def test_ingest_single_asset():
    t = returns("A", [(0.1,), (0.2,)])
    mean, cov = tp.ingest_returns(t)
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(0.005)


def test_ingest_annualization_scales_both_moments():
    t = returns("AB", [(0.01, 0.02), (0.03, -0.01), (0.0, 0.01)])
    mean, cov = tp.ingest_returns(t)
    mean12, cov12 = tp.ingest_returns(t, annualize_factor=12)
    assert np.allclose(mean12, 12 * mean)
    assert np.allclose(cov12, 12 * cov)


def test_ingest_matches_numpy_estimators():
    rng = np.random.default_rng(61)
    data = rng.normal(scale=0.05, size=(40, 5))
    t = returns("ABCDE", data.tolist())
    mean, cov = tp.ingest_returns(t)
    assert np.allclose(mean, data.mean(axis=0), atol=1e-14)
    assert np.allclose(cov, np.cov(data, rowvar=False), atol=1e-14)


def test_ingest_errors_carry_coordinates():
    with pytest.raises(tp.TooFewRows):
        tp.ingest_returns(returns("A", [(0.1,)]))
    with pytest.raises(tp.RaggedRow, match="row 2"):
        tp.ingest_returns(returns("AB", [(0.1, 0.2), (0.1,)]))
    with pytest.raises(tp.NonNumericCell, match="row 1, column 2"):
        tp.ingest_returns(returns("AB", [(0.1, "x"), (0.2, 0.1), (0.0, 0.0)]))
    with pytest.raises(tp.NonNumericCell, match="row 1, column 1"):
        tp.ingest_returns(returns("A", [(10**400,), (1,)]))
    with pytest.raises(tp.NonNumericCell, match=r"row 2, column 2 \(B\) is not finite"):
        tp.ingest_returns(returns("AB", [(0.1, 0.2), (0.1, "inf"), (0.0, 0.0)]))


def test_ingest_refuses_overflowing_moments():
    """Finite cells whose moments leave the double range are bad input that
    names the asset, not an OverflowError."""
    with pytest.raises(tp.InvalidInput, match="covariance of 'B' and 'B'"):
        tp.ingest_returns(returns("AB", [(0.1, 1e200), (0.2, -1e200)]))
    with pytest.raises(tp.InvalidInput, match="mean of 'A'"):
        tp.ingest_returns(returns("A", [(1e307,), (1e307,)]), annualize_factor=252)
    # both moments of A overflow: every mean is rounded before any covariance
    with pytest.raises(tp.InvalidInput, match="mean of 'A'"):
        tp.ingest_returns(returns("A", [(1e307,), (1e306,)]), annualize_factor=252)


def fraction_ingest(table, annualize_factor=None):
    """Reference: per-element Fraction moments, each rounded once; raises
    OverflowError where a moment leaves the double range."""
    labels = table.labels
    ncol = len(labels)
    if len(table.rows) < 2:
        raise tp.TooFewRows("too few rows")
    data = np.empty((len(table.rows), ncol))
    for i, row in enumerate(table.rows):
        if len(row) != ncol:
            raise tp.RaggedRow("ragged")
        for j, cell in enumerate(row):
            if isinstance(cell, numbers.Real) and not isinstance(cell, bool):
                data[i, j] = float(cell)
                continue
            try:
                data[i, j] = float(str(cell).strip())
            except ValueError:
                raise tp.NonNumericCell("not a number") from None
    if not np.isfinite(data).all():
        raise tp.NonNumericCell("not finite")
    nrows = data.shape[0]
    factor = 1 if annualize_factor is None else annualize_factor
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


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # huge, subnormal, +-0.0
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e3,
                     0.1, -0.1, 1e200, 1e307]),
)
_CELLS = st.one_of(
    _FLOATS,
    st.integers(-10**18, 10**18),
    st.builds(lambda x, left, right: left + repr(x) + right, _FLOATS,
              st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " ", "  "])),
)


@st.composite
def returns_tables(draw):
    ncol = draw(st.integers(1, 4))
    nrows = draw(st.integers(2, 7))
    rows = [draw(st.lists(_CELLS, min_size=ncol, max_size=ncol)) for _ in range(nrows)]
    for j in range(ncol):
        if draw(st.booleans()):  # a constant column
            for row in rows:
                row[j] = rows[0][j]
    return returns("ABCD"[:ncol], rows)


def _outcome(ingest, table, factor, refusals=tp.InvalidInput):
    try:
        mean, cov = ingest(table, annualize_factor=factor)
    except refusals:
        return "refused"
    return mean.view(np.int64).tolist(), cov.view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(returns_tables(), st.sampled_from([None, 1, 12, 252]))
@example(returns("A", [(1e-300,), (1e3,), (-2.5,)]), None)
@example(returns("AB", [(5e-324, -0.0), (0.0, 2.2250738585072014e-308), (-5e-324, 0.0)]), 12)
@example(returns("AB", [(0.02, 3), (0.02, " 0.25\t")]), 252)
@example(returns("AB", [(1e200, 0.1), (-1e200, 0.2)]), None)
@example(returns("A", [(1e307,), (1e307,)]), 252)
def test_ingest_is_bit_identical_to_fraction_reference(table, factor):
    expect = _outcome(fraction_ingest, table, factor, (tp.InvalidInput, OverflowError))
    assert _outcome(tp.ingest_returns, table, factor) == expect


def _column(rng, kind, nrows):
    """One column of returns: 6-decimal daily returns, 1e3 plus noise of
    1e-9 (so the covariance cancels about 40 bits of X^T X, and an inexact
    product shows), cells across 1e+-150 (about 46 limbs), integers, zeros
    of both signs, or all-ones mantissas (2^53 - 1) 2^k mixed with 5e-324."""
    if kind == "decimal":
        return np.round(rng.normal(0.0, 0.03, nrows), 6)
    if kind == "offset":
        return 1e3 + rng.normal(0.0, 1e-9, nrows)
    sign = rng.choice([-1.0, 1.0], nrows)
    if kind == "wide":
        return sign * 10.0 ** rng.uniform(-150, 150, nrows)
    if kind == "integer":
        return rng.integers(-10**6, 10**6, nrows).astype(float)
    if kind == "zero":
        return sign * 0.0
    ones = np.ldexp(sign * (2.0**53 - 1), rng.integers(-1074, -900, nrows))
    return np.where(rng.random(nrows) < 0.3, sign * 5e-324, ones)


def _table(columns, text=False):
    rows = np.column_stack(columns).tolist()
    if text:
        rows = [[repr(v) for v in row] for row in rows]
    return returns("ABCD"[:len(columns)], rows)


@st.composite
def tall_returns_tables(draw):
    """2-600 rows, so the limb width b and count L take several values."""
    nrows = draw(st.integers(2, 600))
    kinds = draw(st.lists(st.sampled_from(["decimal", "offset", "wide", "integer", "zero",
                                           "ones"]),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _table([_column(rng, kind, nrows) for kind in kinds], text=draw(st.booleans()))


_RNG = np.random.default_rng(83)


@settings(max_examples=40, deadline=None)
@given(tall_returns_tables(), st.sampled_from([None, 252]))
@example(_table([_column(_RNG, "decimal", 255), _column(_RNG, "wide", 255)], text=True), None)
@example(_table([_column(_RNG, "offset", 256), _column(_RNG, "integer", 256)]), 252)
@example(_table([_column(_RNG, "ones", 257), _column(_RNG, "decimal", 257)]), None)
@example(_table([_column(_RNG, "ones", 300)]), 252)
@example(_table([_column(_RNG, "wide", 250), _column(_RNG, "wide", 250)]), None)
def test_tall_ingest_is_bit_identical_to_fraction_reference(table, factor):
    """Tall tables through the limb products: row counts where bitlen(rows)
    steps (255, 256, 257), all-ones mantissas beside 5e-324, and two
    1e+-150 columns."""
    expect = _outcome(fraction_ingest, table, factor, (tp.InvalidInput, OverflowError))
    assert _outcome(tp.ingest_returns, table, factor) == expect


@pytest.mark.parametrize("nrows", [2, 255, 256, 4097, 10**6])
def test_limb_width_keeps_every_limb_sum_below_2_to_53(nrows):
    """2b + bitlen(rows) + bitlen(L) <= 53 makes each float64 sum of rows * L
    limb products an integer below 2^53, exact in any order; checked here
    without BLAS at sizes too tall to ingest, for every span a double
    column can reach."""
    for span in range(2101):
        b, count = pf._limb_width(nrows, span)
        assert b >= 1 and count >= 1 and count * b >= span
        assert 2 * b + nrows.bit_length() + count.bit_length() <= 53
        wider = -(-span // (b + 1)) or 1
        assert 2 * (b + 1) + nrows.bit_length() + wider.bit_length() > 53


def test_every_mean_is_rounded_before_any_covariance():
    """Column A's variance and column B's mean both overflow; the means are
    refused first."""
    table = returns("AB", [(1e200, 1e308), (-1e200, 1e308)])
    with pytest.raises(tp.InvalidInput, match="covariance of 'A' and 'A'"):
        tp.ingest_returns(table)
    with pytest.raises(tp.InvalidInput, match="mean of 'B'"):
        tp.ingest_returns(table, annualize_factor=252)


def test_ingest_cell_types():
    """A bool cell is refused with its coordinates, a numpy.float64 cell is
    its exact value, and so is a padded string."""
    with pytest.raises(tp.NonNumericCell, match=r"row 2, column 1 \(A\) is not a number: True"):
        tp.ingest_returns(returns("AB", [(0.1, 0.2), (True, 0.3)]))
    with pytest.raises(tp.NonNumericCell, match="row 1, column 2"):
        tp.ingest_returns(returns("AB", [("0.1", "True"), ("0.2", "0.3")]))
    plain = returns("AB", [(0.1, 0.2), (0.3, -0.7), (1e-300, 5.0)])
    mixed = returns("AB", [(np.float64(0.1), "0.2"), (" 0.3", np.float64(-0.7)),
                           ("1e-300\t", 5)])
    assert _outcome(tp.ingest_returns, mixed, None) == _outcome(tp.ingest_returns, plain, None)


# -- risk belief ---------------------------------------------------------------

def one_asset(mean, var, r=0.02, **kw):
    return tp.PortfolioSpec(
        labels=("X",),
        mean=np.array([mean]),
        covariance=np.array([[var]]),
        risk_free_rate=r,
        **kw,
    )


def test_risk_belief_identity():
    spec, flagged = tp.apply_risk_belief(one_asset(0.10, 0.04))
    assert spec.mean.tolist() == [0.10]
    assert spec.covariance.tolist() == [[0.04]]
    assert flagged == (0,)


def test_risk_belief_zero_corrections_keep_moments_bit_identical():
    """A zero shrink keeps the means and a zero inflation the covariance as
    given, although r + (1 - 0) * (mean - r) is not mean in floating point
    for every mean; with both zero the spec itself comes back."""
    rng = np.random.default_rng(301)
    P = rng.standard_normal((40, 6)) * 0.01
    r = 0.0002
    spec = tp.PortfolioSpec(labels=tuple("a%d" % i for i in range(40)),
                            mean=rng.normal(0.0005, 0.001, 40),
                            covariance=P @ P.T, risk_free_rate=r)
    assert (r + (1.0 - 0.0) * (spec.mean - r) != spec.mean).any()
    out, _ = tp.apply_risk_belief(spec)
    assert out is spec
    out, _ = tp.apply_risk_belief(replace(spec, var_inflate=0.5))
    assert out.mean.tobytes() == spec.mean.tobytes()
    assert out.covariance.tobytes() != spec.covariance.tobytes()
    out, _ = tp.apply_risk_belief(replace(spec, mean_shrink=0.5))
    assert out.covariance.tobytes() == spec.covariance.tobytes()
    assert out.mean_shrink == 0.0


def test_risk_belief_full_shrink():
    spec, flagged = tp.apply_risk_belief(one_asset(0.10, 0.04, mean_shrink=1.0))
    assert spec.mean.tolist() == [0.02]
    assert flagged == ()


def test_risk_belief_trigger_boundary():
    # 0.10 - 0.08 = 0.02: exactly the risk-free rate, no longer "exceeds"
    spec, flagged = tp.apply_risk_belief(one_asset(0.10, 0.04, var_inflate=1.0))
    assert spec.covariance[0, 0] == pytest.approx(0.08)
    assert flagged == (0,)
    spec, flagged = tp.apply_risk_belief(one_asset(0.10, 0.04, var_inflate=1.5))
    assert spec.covariance[0, 0] == pytest.approx(0.10)
    assert flagged == ()


def test_risk_belief_preserves_psd():
    rng = np.random.default_rng(62)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n + 1))
        spec = tp.PortfolioSpec(
            labels=tuple("abcdef"[:n]),
            mean=rng.normal(scale=0.05, size=n),
            covariance=A @ A.T,
            mean_shrink=float(rng.uniform()),
            var_inflate=float(rng.uniform(0, 2)),
        )
        out, _ = tp.apply_risk_belief(spec)
        assert np.linalg.eigvalsh(out.covariance)[0] >= -1e-9


# -- risk-free asset ------------------------------------------------------------

def test_add_risk_free_appends_zero_row():
    spec = tp.add_risk_free(one_asset(0.10, 0.16))
    assert spec.labels == ("X", tp.RISK_FREE_LABEL)
    assert spec.mean.tolist() == [0.10, 0.02]
    assert spec.covariance.tolist() == [[0.16, 0.0], [0.0, 0.0]]
    assert spec.rf_index == 1


def test_risk_free_half_half():
    rep = tp.optimize_portfolio(tp.add_risk_free(one_asset(0.10, 0.16)))
    w = {label: weight for label, _, weight in rep.weights}
    assert w["X"] == pytest.approx(0.5, abs=1e-9)
    assert w[tp.RISK_FREE_LABEL] == pytest.approx(0.5, abs=1e-9)
    assert rep.rate == pytest.approx(0.02, abs=1e-10)
    assert rep.variance == pytest.approx(0.04, abs=1e-10)


def test_risk_free_all_in_case():
    rep = tp.optimize_portfolio(tp.add_risk_free(one_asset(0.10, 0.04)))
    assert rep.weights == (("X", 0, 1.0),)
    margins = {row.point_id: row.alpha_margin for row in rep.capm}
    assert margins[1] == pytest.approx(-0.04, abs=1e-10)
    assert rep.flagged == (0,)


def test_risk_free_alone():
    empty = tp.PortfolioSpec(
        labels=(), mean=np.zeros(0), covariance=np.zeros((0, 0)), risk_free_rate=0.02
    )
    rep = tp.optimize_portfolio(tp.add_risk_free(empty))
    assert rep.weights == ((tp.RISK_FREE_LABEL, 0, 1.0),)
    assert rep.rate == pytest.approx(0.02)
    assert rep.result.objective == pytest.approx(0.02)


def test_rate_matches_risk_free_when_held():
    # whenever the risk-free asset keeps weight, the rate pins to r
    rng = np.random.default_rng(63)
    for trial in range(10):
        var = float(rng.uniform(0.05, 0.5))
        mean = float(rng.uniform(0.0, 0.08))
        rep = tp.optimize_portfolio(tp.add_risk_free(one_asset(mean, var)))
        held = {label for label, _, w in rep.weights if w > 1e-10}
        if tp.RISK_FREE_LABEL in held:
            assert rep.rate == pytest.approx(0.02, abs=1e-8)


# -- optimization ----------------------------------------------------------------

def test_magic_coins_portfolio():
    spec = tp.PortfolioSpec(
        labels=("H", "T"),
        mean=np.array([0.05, 0.05]),
        covariance=np.array([[0.09, -0.09], [-0.09, 0.09]]),
    )
    rep = tp.optimize_portfolio(spec)
    assert {label: w for label, _, w in rep.weights} == pytest.approx(
        {"H": 0.5, "T": 0.5}, abs=1e-9
    )
    assert rep.variance <= 1e-12
    assert rep.rate == pytest.approx(0.05, abs=1e-10)


def test_zigzag_covariance_portfolio():
    spec = tp.PortfolioSpec(
        labels=("a", "b", "c"), mean=np.zeros(3), covariance=ZIGZAG_GRAM
    )
    rep = tp.optimize_portfolio(spec)
    w = {label: weight for label, _, weight in rep.weights}
    assert w == pytest.approx({"c": 0.6, "a": 0.4}, abs=1e-9)
    # descending weight order in the report
    weights = [weight for _, _, weight in rep.weights]
    assert weights == sorted(weights, reverse=True)


def test_thousand_asset_portfolio_certifies():
    """A rank-8 covariance over 1000 assets: the default solver certifies
    the portfolio, by numpy, on at most 9 holdings."""
    rng = np.random.default_rng(7)
    P = rng.standard_normal((1000, 8))
    mean = rng.uniform(-1.0, 1.0, 1000)
    spec = tp.PortfolioSpec(labels=tuple(map(str, range(1000))), mean=mean, covariance=P @ P.T)
    rep = tp.optimize_portfolio(spec)
    assert rep.result.algorithm == "exchange"
    top, floor = numpy_margins(spec.covariance, mean, rep.result.measure)
    assert top <= rep.result.margin_tol and floor >= -rep.result.margin_tol
    assert len(rep.weights) <= 9


def test_single_asset_portfolio():
    rep = tp.optimize_portfolio(one_asset(0.07, 0.09, r=None))
    assert rep.weights == (("X", 0, 1.0),)
    assert rep.rate == pytest.approx(0.07 - 0.09)


def test_report_carries_diagnostics():
    rep = tp.optimize_portfolio(tp.add_risk_free(one_asset(0.10, 0.16)))
    assert len(rep.capm) == 2
    assert rep.sml.rate == pytest.approx(rep.rate, abs=1e-12)
    ids = [row.point_id for row in rep.capm]
    assert ids == sorted(ids)


# -- adaptive objective ------------------------------------------------------------

def test_reduce_adaptive_zero_reference():
    spec = tp.PortfolioSpec(
        labels=("a", "b"), mean=np.array([0.1, 0.2]), covariance=np.eye(2)
    )
    psi, kern, const = tp.reduce_adaptive(spec)
    assert tp.as_psi(psi, kern).values.tolist() == [0.1, 0.2]
    assert const == 0.0


def test_reduce_adaptive_point_mass():
    spec = tp.PortfolioSpec(
        labels=("a", "b"),
        mean=np.array([0.0, 0.0]),
        covariance=np.array([[2.0, 0.5], [0.5, 1.0]]),
        reference=tp.delta(1),
    )
    psi, kern, const = tp.reduce_adaptive(spec)
    assert np.allclose(tp.as_psi(psi, kern).values, [0.5, 1.0])
    assert const == pytest.approx(-0.5)


def test_reduce_adaptive_uniform_reference():
    spec = tp.PortfolioSpec(
        labels=("a", "b", "c"),
        mean=np.zeros(3),
        covariance=np.eye(3),
        reference=tp.probability([1, 2], [0.5, 0.5]),
    )
    psi, kern, const = tp.reduce_adaptive(spec)
    assert const == pytest.approx(-0.25)
    r = tp.solve(kern, psi)
    assert dict(r.measure.atoms) == pytest.approx({1: 0.5, 2: 0.5}, abs=1e-9)


def test_reduce_adaptive_objective_identity():
    rng = np.random.default_rng(64)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n + 2))
        G = A @ A.T
        wref = rng.uniform(size=n)
        nu = tp.probability(range(n), wref / wref.sum())
        spec = tp.PortfolioSpec(
            labels=tuple("abcdef"[:n]),
            mean=rng.normal(scale=0.1, size=n),
            covariance=G,
            reference=nu,
        )
        psi, kern, const = tp.reduce_adaptive(spec)
        r = tp.solve(kern, psi)
        mu = r.measure
        base = tp.as_psi(tp.PsiSpec.table(spec.mean), kern).values
        adaptive = float(mu.weights @ base[mu.ids]) - 0.5 * tp.embedded_distance(
            mu, nu, kern
        ) ** 2
        assert adaptive == pytest.approx(r.objective + const, abs=1e-10)


def test_reduce_adaptive_unknown_reference():
    spec = tp.PortfolioSpec(
        labels=("a",), mean=np.zeros(1), covariance=np.eye(1), reference=tp.delta(4)
    )
    with pytest.raises(tp.UnknownReferencePoint):
        tp.reduce_adaptive(spec)


def test_optimize_with_reference_uses_reduction():
    spec = tp.PortfolioSpec(
        labels=("a", "b", "c"),
        mean=np.zeros(3),
        covariance=np.eye(3),
        reference=tp.probability([1, 2], [0.5, 0.5]),
    )
    rep = tp.optimize_portfolio(spec)
    w = {label: weight for label, _, weight in rep.weights}
    assert w == pytest.approx({"b": 0.5, "c": 0.5}, abs=1e-9)
    assert rep.adaptive_constant == pytest.approx(-0.25)


def test_spec_dimension_validation():
    with pytest.raises(tp.InvalidInput):
        tp.PortfolioSpec(
            labels=("a", "b"), mean=np.zeros(3), covariance=np.eye(2)
        )
    with pytest.raises(tp.NonPSD):
        tp.optimize_portfolio(
            tp.PortfolioSpec(
                labels=("a", "b"),
                mean=np.zeros(2),
                covariance=np.array([[1.0, 2.0], [2.0, 1.0]]),
            )
        )
