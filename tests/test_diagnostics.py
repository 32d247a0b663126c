import math

import numpy as np
import pytest

import topiary as tp

from conftest import random_instance


def test_capm_zigzag_alphas(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    rows = tp.capm_report(r, zigzag, zigzag_psi)
    assert [row.point_id for row in rows] == [0, 1, 2]
    alphas = [row.alpha_margin for row in rows]
    assert alphas == pytest.approx([0.0, -1.0, 0.0], abs=1e-10)
    assert [row.in_index for row in rows] == [True, False, True]
    assert rows[1].beta == pytest.approx(2.0, abs=1e-10)


def test_capm_all_index_instance():
    k = tp.explicit_gram(np.eye(4))
    psi = tp.PsiSpec.table([0.3] * 4)
    r = tp.solve(k, psi)
    rows = tp.capm_report(r, k, psi)
    assert all(row.in_index for row in rows)
    assert all(abs(row.alpha_margin) <= 1e-10 for row in rows)


def test_capm_riskless_optimum_undefined_columns():
    # perfectly hedged pair: zero-norm optimum, beta has no denominator
    k = tp.explicit_gram([[0.09, -0.09], [-0.09, 0.09]])
    psi = tp.PsiSpec.table([0.05, 0.05])
    r = tp.solve(k, psi)
    rows = tp.capm_report(r, k, psi)
    assert all(row.beta is None and row.alpha_margin is None for row in rows)
    assert all(row.in_index for row in rows)


def test_capm_inequality_slack():
    rng = np.random.default_rng(51)
    for trial in range(20):
        kern, psi = random_instance(rng, int(rng.integers(3, 9)))
        r = tp.solve(kern, psi)
        rate = r.rate
        excess = tp.mu_eval(r.measure, kern, 0) * 0  # keep shape hints away
        table = tp.as_psi(psi, kern).values
        for row in tp.capm_report(r, kern, psi):
            if row.beta is None:
                continue
            lhs = row.psi - rate
            rhs = row.beta * (float(r.measure.weights @ table[r.measure.ids]) - rate)
            assert lhs <= rhs + 1e-8


def test_jc_zigzag_row(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    rows = tp.jc_report(r, zigzag, zigzag_psi, base_points=[2])
    by_y = {row.y: row for row in rows}
    assert set(by_y) == {0, 1}
    row = by_y[1]
    assert row.d == pytest.approx(math.sqrt(5), abs=1e-12)
    assert row.mu_slope == pytest.approx(1 / math.sqrt(5), abs=1e-10)
    assert row.psi_slope == 0.0
    norm = math.sqrt(tp.norm_sq(r.measure, zigzag))
    assert row.mu_slope <= norm + 1e-8


def test_jc_excludes_zero_distance(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    rows = tp.jc_report(r, zigzag, zigzag_psi, base_points=[0, 2])
    assert all(row.d > 1e-12 for row in rows)
    assert all(row.x != row.y for row in rows)


def test_jc_index_pairs_have_equal_slopes():
    rng = np.random.default_rng(52)
    for trial in range(15):
        kern, psi = random_instance(rng, int(rng.integers(3, 8)))
        r = tp.solve(kern, psi)
        idx = set(r.index)
        rows = tp.jc_report(r, kern, psi, base_points=list(r.index))
        for row in rows:
            assert row.psi_slope <= row.mu_slope + 1e-8
            if row.y in idx:
                assert row.psi_slope == pytest.approx(row.mu_slope, abs=1e-7)


def test_jc_base_not_in_index(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    with pytest.raises(tp.BaseNotInIndex):
        tp.jc_report(r, zigzag, zigzag_psi, base_points=[1])


def test_jc_flags_violating_measure(zigzag, zigzag_psi):
    # delta at the bad seed has margin 0 at its own atom (a legal base) but
    # positive margins elsewhere, so the slope chain fails and must be reported
    fake = tp.TopiaryResult(
        measure=tp.delta(1),
        objective=-2.0,
        rate=-4.0,
        score=2.0,
        index=(1,),
        iterations=0,
        algorithm="manual",
        margin_tol=1e-8,
        trace=None,
    )
    # the first broken pair in row order: from base 1 to y = 0, psi slope 0
    # above mu slope (2 - 4) / sqrt(10)
    with pytest.raises(tp.InvariantViolation, match=r"at \(1,0\): psi 0 > mu -0\.632"):
        tp.jc_report(fake, zigzag, zigzag_psi, base_points=[1])


def test_reports_match_per_point_reference():
    """Every capm, jc and sml row against the per-point functions, on an
    optimum wide enough (support >= 16) that BLAS sums the report's mu
    vector in blocks rather than in mu_eval's order."""
    kern, psi = random_instance(np.random.default_rng(54), 40)
    r = tp.solve(kern, psi)
    mu = r.measure
    assert len(mu.support()) >= 16
    tol = r.margin_tol
    atol = 1e-12 * float(np.abs(kern.gram).max())
    values = tp.as_psi(psi, kern).values
    ref_mu = np.array([tp.mu_eval(mu, kern, i) for i in range(kern.n)])
    nsq = tp.norm_sq(mu, kern)
    lin = float(mu.weights @ values[mu.ids])
    rate = lin - nsq
    ref_margin = values - ref_mu - rate

    rows = tp.capm_report(r, kern, psi)
    assert [row.point_id for row in rows] == list(range(kern.n))
    for row in rows:
        i = row.point_id
        ref_beta = ref_mu[i] / nsq
        ref_alpha = values[i] - rate - ref_beta * (lin - rate)  # regression form
        assert row.psi == values[i]
        assert row.mu_value == pytest.approx(ref_mu[i], abs=atol)
        assert row.beta == pytest.approx(ref_beta, abs=atol)
        assert row.beta == pytest.approx(tp.beta(mu, kern, i), abs=atol)
        assert row.alpha_margin == pytest.approx(ref_alpha, abs=atol)
        assert row.alpha_margin == pytest.approx(tp.alpha(mu, psi, kern, i), abs=atol)
        assert row.alpha_margin == pytest.approx(ref_margin[i], abs=atol)
        assert row.in_index == (abs(row.alpha_margin) <= tol)

    jc = tp.jc_report(r, kern, psi)
    bases = [i for i in range(kern.n) if abs(ref_margin[i]) <= tol]
    assert len(jc) == len(bases) * (kern.n - 1)
    for row in jc:
        d = kern.embed_distance(row.x, row.y)
        assert row.d == d
        assert row.psi_slope == (values[row.y] - values[row.x]) / d
        assert row.mu_slope == pytest.approx((ref_mu[row.y] - ref_mu[row.x]) / d, abs=atol)

    rep = tp.sml_points(r, kern, psi)
    assert rep.rate == r.rate and rep.objective == r.objective
    assert rep.mu_norm == math.sqrt(nsq)
    for p in rep.points:
        assert p.x_coord == pytest.approx(ref_mu[p.point_id], abs=atol)
        assert p.y_coord == values[p.point_id]
        in_index = abs(ref_margin[p.point_id]) <= tol
        assert p.classification == ("index" if in_index else "interior-of-K")


def test_jc_embedded_psi_lower_bound(zigzag):
    psi = tp.PsiSpec.embedded(tp.probability([0, 2], [0.5, 0.5]), zigzag)
    r = tp.solve(zigzag, psi)
    rows = tp.jc_report(r, zigzag, psi, base_points=list(r.index))
    norm_psi = math.sqrt(tp.norm_sq(tp.probability([0, 2], [0.5, 0.5]), zigzag))
    for row in rows:
        assert row.psi_slope >= -norm_psi - 1e-8


def test_sml_zigzag_classification(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    rep = tp.sml_points(r, zigzag, zigzag_psi)
    assert rep.slope == 1.0
    assert rep.intercept == pytest.approx(rep.rate, abs=1e-12)
    assert rep.rate == pytest.approx(-1.0, abs=1e-10)
    classes = {p.point_id: p.classification for p in rep.points}
    assert classes == {0: "index", 1: "interior-of-K", 2: "index"}
    for p in rep.points:
        # on or below the line psi = mu + rate
        assert p.y_coord <= p.x_coord + rep.rate + 1e-8
        if p.classification == "index":
            assert p.y_coord == pytest.approx(p.x_coord + rep.rate, abs=1e-8)


def test_sml_extras_may_sit_above_line(zigzag, zigzag_psi):
    r = tp.solve_subset(zigzag, zigzag_psi, [0, 2])
    rep = tp.sml_points(r, zigzag, zigzag_psi, K=[0, 2], extras=(1,))
    classes = {p.point_id: p.classification for p in rep.points}
    assert classes[1] == "outside-K"


def test_sml_consistent_with_capm():
    rng = np.random.default_rng(53)
    for trial in range(10):
        kern, psi = random_instance(rng, int(rng.integers(3, 8)))
        r = tp.solve(kern, psi)
        flags = {row.point_id: row.in_index for row in tp.capm_report(r, kern, psi)}
        rep = tp.sml_points(r, kern, psi)
        for p in rep.points:
            assert (p.classification == "index") == flags[p.point_id]


def test_invisible_residual_self_is_zero(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    assert tp.invisible_residual(r, r, zigzag) == 0.0


def test_invisible_residual_same_set():
    k = tp.explicit_gram(np.eye(3))
    psi = tp.PsiSpec.table([0.1] * 3)
    a = tp.solve(k, psi)
    b = tp.solve_subset(k, psi, [0, 1, 2])
    assert tp.invisible_residual(a, b, k) <= 1e-9


def test_invisible_residual_orthonormal_half():
    """Uniform on the first two coordinates sits 1/2 away from uniform on
    all four; a simplex grid confirms nothing on K1 gets closer."""
    k = tp.explicit_gram(np.eye(4))
    psi = tp.PsiSpec.table([0.3] * 4)
    full = tp.solve(k, psi)
    half = tp.solve_subset(k, psi, [0, 1])
    res = tp.invisible_residual(half, full, k)
    assert res == pytest.approx(0.5, abs=1e-9)
    target = full.measure
    best = min(
        tp.embedded_distance(tp.probability([0, 1], [t, 1 - t]), target, k)
        for t in np.linspace(0.0, 1.0, 101)
    )
    assert res <= best + 1e-9


def test_convergence_summary_zigzag_greedy(zigzag, zigzag_psi):
    st = tp.SolverState(zigzag, zigzag_psi, tp.SolveConfig(trace=True), start=tp.delta(1))
    for _ in range(150):
        tp.greedy_step(st)
    trace = st.trace
    summary = tp.convergence_summary(trace, -0.5)
    assert len(summary.gaps) == len(trace)
    # monotone objective means monotone gaps
    assert all(b <= a + 1e-12 for a, b in zip(summary.gaps, summary.gaps[1:]))
    assert summary.final_gap == pytest.approx(summary.gaps[-1])
    assert summary.sup_n_gap == pytest.approx(max(summary.n_gap))
    assert not summary.violation


def test_convergence_summary_requires_oracle(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi, tp.SolveConfig(trace=True))
    with pytest.raises(tp.RequiresOracle):
        tp.convergence_summary(r.trace, None)


def test_convergence_summary_refuses_an_empty_trace():
    """A solve run without a trace has no rows to take gaps of."""
    with pytest.raises(tp.RequiresOracle, match="empty trace"):
        tp.convergence_summary((), -0.5)


def test_convergence_summary_flags_growth():
    # a diverging trajectory: gap grows linearly, n * gap quadratically
    rows = [
        tp.TraceRow(iteration=i + 1, objective=-0.1 * (i + 1), score=1.0,
                    support_size=1, added_point=0, dropped_points=())
        for i in range(64)
    ]
    summary = tp.convergence_summary(rows, 0.0)
    assert summary.violation
