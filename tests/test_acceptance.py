"""Acceptance gate: ten end-to-end criteria, one verdict line apiece.

Each test prints `CRITERION k: PASS ...` (or FAIL) with the measured
numbers; run with -s to see the lines on a green suite. Tolerances and
instance counts are part of the contract and are not adjustable here.
"""

import time

import numpy as np
import pytest

from topiary import diagnostics as dgn
from topiary import formats as fm
from topiary import kernel as krn
from topiary import maze as mz
from topiary import measure as msr
from topiary import objective as obj
from topiary import portfolio as pf
from topiary import solver as slv
from topiary.errors import InvalidInput, MaxIterExceeded, NotPrunable
from topiary.measure import AtomicMeasure, embedded_distance

from conftest import ZIGZAG_COORDS, random_instance


def _verdict(num, ok, detail):
    print("CRITERION %d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


def _exchange(kern, psi):
    return slv.solve(kern, psi, slv.SolveConfig(algorithm="exchange", margin_tol=1e-12))


@pytest.fixture(scope="module")
def oracle_suite():
    """200 random PSD instances, oracle plus all three solvers, solved once.

    Greedy runs under a tight tolerance; each of its steps ends on the hedge
    of its support, so it certifies once the support matches the optimal
    index. A non-converged instance is recorded rather than forced; the
    downstream criteria quantify over the converged ones.
    """
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    entries = []
    for _ in range(200):
        n = int(rng.integers(3, 11))
        kern, psi = random_instance(rng, n)
        entry = {"kern": kern, "psi": psi, "oracle": slv.oracle_solve(kern, psi)}
        for alg, tol, cap in (("greedy", 1e-13, 5000),
                              ("second-greedy", 1e-9, 10000),
                              ("exchange", 1e-9, 10000)):
            cfg = slv.SolveConfig(algorithm=alg, margin_tol=tol, max_iter=cap)
            try:
                entry[alg] = slv.solve(kern, psi, cfg)
            except MaxIterExceeded:
                entry[alg] = None
        entries.append(entry)
    return {"entries": entries, "elapsed": time.perf_counter() - t0}


def test_criterion_01():
    t0 = time.perf_counter()
    kern = krn.euclidean(ZIGZAG_COORDS)
    psi = obj.PsiSpec.zero(kern)
    coords = np.asarray(kern.coords, dtype=float)
    target = np.array([0.0, 1.0])
    bad = []

    for alg in ("second-greedy", "exchange"):
        res = slv.solve(kern, psi, slv.SolveConfig(algorithm=alg, margin_tol=1e-10))
        emb = res.measure.as_vector(kern.n) @ coords
        if not np.allclose(emb, target, atol=1e-9):
            bad.append("%s embedding %s" % (alg, emb))

    # one greedy step from the apex lands on the bad_1 iterate exactly,
    # after which the walk closes in on the optimum without backsliding
    cfg = slv.SolveConfig(algorithm="greedy", margin_tol=1e-15, max_iter=500)
    state = slv.SolverState(kern, psi, config=cfg, start=msr.delta(1))
    slv.greedy_step(state)
    emb1 = state.measure().as_vector(kern.n) @ coords
    if not np.allclose(emb1, [0.8, 1.6], atol=1e-12):
        bad.append("bad_1 embedding %s" % emb1)

    # with psi = 0 the objective is -||mu||^2/2, so the guaranteed descent
    # is in the norm; raw distance to the optimum ticks up by ~1e-3 at the
    # zig-zag corners (the drag that motivates the second greedy), so the
    # approach is measured as norm descent plus a shrinking distance
    opt = AtomicMeasure(((0, 0.4), (2, 0.6)))
    d_bad1 = embedded_distance(state.measure(), opt, kern)
    norm = float(np.sqrt(msr.norm_sq(state.measure(), kern)))
    for _ in range(500):
        try:
            slv.greedy_step(state)
        except InvalidInput:
            break
        d = embedded_distance(state.measure(), opt, kern)
        n2 = float(np.sqrt(msr.norm_sq(state.measure(), kern)))
        if n2 > norm + 1e-15:
            bad.append("norm rose %.15f -> %.15f" % (norm, n2))
            break
        if d > d_bad1 + 1e-12:
            bad.append("wandered past the first iterate: dist %.3e" % d)
            break
        norm = n2
    final = embedded_distance(state.measure(), opt, kern)
    if final > 1e-2:
        bad.append("still %.4f from the optimum after 500 steps" % final)

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append("took %.2fs" % elapsed)
    _verdict(1, not bad,
             "; ".join(bad) or
             "zig-zag: both solvers at (0,1) within 1e-9, bad_1 exact, "
             "greedy monotone, %.2fs" % elapsed)


def test_criterion_02(oracle_suite):
    entries = oracle_suite["entries"]
    bad = []
    greedy_conv = 0
    worst = 0.0
    max_exchanges = 0
    for k, e in enumerate(entries):
        for alg in ("second-greedy", "exchange"):
            res = e[alg]
            if res is None:
                bad.append("instance %d: %s did not converge" % (k, alg))
                continue
            d = embedded_distance(res.measure, e["oracle"].measure, e["kern"])
            worst = max(worst, d)
            if d > 1e-6:
                bad.append("instance %d: %s off oracle by %.3e" % (k, alg, d))
        if e["exchange"] is not None and e["exchange"].iterations > 50:
            bad.append("instance %d: %d exchanges" % (k, e["exchange"].iterations))
        max_exchanges = max(max_exchanges, e["exchange"].iterations)
        if e["greedy"] is not None:
            greedy_conv += 1
            d = embedded_distance(e["greedy"].measure, e["oracle"].measure, e["kern"])
            worst = max(worst, d)
            if d > 1e-6:
                bad.append("instance %d: greedy off oracle by %.3e" % (k, d))
    if greedy_conv < 100:
        bad.append("greedy converged on only %d/200" % greedy_conv)
    if oracle_suite["elapsed"] >= 60.0:
        bad.append("suite took %.1fs" % oracle_suite["elapsed"])
    _verdict(2, not bad,
             "; ".join(bad[:4]) or
             "200 instances: exchange+second-greedy all within 1e-6 "
             "(worst %.2e), greedy matched on all %d converged, "
             "max %d exchanges, %.1fs"
             % (worst, greedy_conv, max_exchanges, oracle_suite["elapsed"]))


def test_criterion_03(oracle_suite):
    bad = []
    checked = 0
    for k, e in enumerate(oracle_suite["entries"]):
        kern, psi = e["kern"], e["psi"]
        for alg in ("greedy", "second-greedy", "exchange"):
            res = e[alg]
            if res is None:
                continue
            checked += 1
            table = obj.margin_table(res.measure, psi, kern)
            margins = np.asarray(table.margins)
            if margins.max() > 1e-8:
                bad.append("instance %d %s: margin %.3e on K" % (k, alg, margins.max()))
            sup_ids = list(res.measure.support())
            if np.abs(margins[sup_ids]).max() > 1e-8:
                bad.append("instance %d %s: support margin %.3e"
                           % (k, alg, np.abs(margins[sup_ids]).max()))
            mean = float(res.measure.as_vector(kern.n) @ psi.values)
            for row in dgn.capm_report(res.measure, kern, psi):
                if row.beta is None:
                    continue
                slack = row.beta * (mean - table.rate) - (row.psi - table.rate)
                if slack < -1e-8:
                    bad.append("instance %d %s: CAPM slack %.3e at %d"
                               % (k, alg, slack, row.point_id))
                if abs(row.alpha_margin - margins[row.point_id]) > 1e-12:
                    bad.append("instance %d %s: alpha/margin gap %.3e at %d"
                               % (k, alg, abs(row.alpha_margin - margins[row.point_id]),
                                  row.point_id))
    _verdict(3, not bad,
             "; ".join(bad[:4]) or
             "KKT margins, CAPM slack, and alpha=margin identity on %d "
             "converged runs" % checked)


def test_criterion_04(oracle_suite):
    bad = []
    rows_seen = 0
    for k, e in enumerate(oracle_suite["entries"]):
        kern, psi = e["kern"], e["psi"]
        res = e["exchange"]
        if res is None:
            continue
        mu_norm = float(np.sqrt(msr.norm_sq(res.measure, kern)))
        index = set(res.index)
        for row in dgn.jc_report(res, kern, psi):
            rows_seen += 1
            if row.y in index and abs(row.psi_slope - row.mu_slope) > 1e-7:
                bad.append("instance %d: index pair (%d,%d) slopes differ %.3e"
                           % (k, row.x, row.y, abs(row.psi_slope - row.mu_slope)))
            if row.psi_slope > row.mu_slope + 1e-7:
                bad.append("instance %d: psi slope above mu slope at (%d,%d)"
                           % (k, row.x, row.y))
            if row.mu_slope > mu_norm + 1e-7:
                bad.append("instance %d: mu slope %.6f above norm %.6f"
                           % (k, row.mu_slope, mu_norm))
    _verdict(4, not bad,
             "; ".join(bad[:4]) or
             "slope chain on %d (index, point) pairs across 200 instances"
             % rows_seen)


def test_criterion_05():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    kern, psi = random_instance(rng, 50)
    star = _exchange(kern, psi)

    G = kern.gram
    d2 = np.add.outer(np.diag(G), np.diag(G)) - 2.0 * G
    bound = 10.0 * float(d2.max())

    total = 10**4
    cfg = slv.SolveConfig(algorithm="greedy", margin_tol=1e-15, max_iter=total + 1)
    state = slv.SolverState(kern, psi, config=cfg)
    trace = []
    dists = np.zeros(total + 1)
    dists[0] = embedded_distance(state.measure(), star.measure, kern)
    stopped = total
    for it in range(1, total + 1):
        try:
            slv.greedy_step(state)
        except InvalidInput:
            stopped = it - 1
            break
        trace.append(slv.TraceRow(iteration=it, objective=state.table.objective,
                                  score=float("nan"), support_size=0))
        dists[it] = embedded_distance(state.measure(), star.measure, kern)

    bad = []
    summary = dgn.convergence_summary(trace, star.objective)
    window = [g for row, g in zip(trace, summary.n_gap) if row.iteration >= 100]
    sup_window = max(window)
    if sup_window >= bound:
        bad.append("n*gap reached %.3f, bound %.3f" % (sup_window, bound))
    if summary.violation:
        bad.append("summary flags unbounded n*gap")
    if stopped < total:
        bad.append("greedy terminated early at %d" % stopped)

    fit = np.arange(100, 1001)
    C = float((dists[100:1001] * fit ** 0.25).max())
    rest = np.arange(1001, total + 1)
    misses = int((dists[1001:total + 1] > C * rest ** -0.25 + 1e-12).sum())
    if misses:
        bad.append("n^-1/4 envelope missed %d times past the fit decade" % misses)

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        bad.append("took %.1fs" % elapsed)
    _verdict(5, not bad,
             "; ".join(bad) or
             "n=50, 10^4 greedy steps: sup n*gap %.2f < %.1f, "
             "dist <= %.3f * n^-1/4 holds past the fit decade, %.1fs"
             % (sup_window, bound, C, elapsed))


def test_criterion_06():
    bad = []
    rng = np.random.default_rng(6)
    fix_worst = 0.0
    grow_hits = prune_hits = 0
    for k in range(100):
        n = int(rng.integers(2, 9))
        kern, psi = random_instance(rng, n)
        res = _exchange(kern, psi)

        hedged, c = slv.hedge(kern, psi, res.index)
        gap = max(abs(hedged.weight_of(i) - res.measure.weight_of(i))
                  for i in range(kern.n))
        gap = max(gap, abs(c - res.rate))
        fix_worst = max(fix_worst, gap)
        if gap > 1e-9:
            bad.append("instance %d: hedge fixpoint off by %.3e" % (k, gap))

        ids = np.arange(kern.n)
        A = tuple(sorted(rng.choice(ids, size=max(1, n // 2), replace=False).tolist()))
        B = tuple(sorted(rng.choice(ids, size=max(1, n // 2), replace=False).tolist()))
        grow = slv.grow_set(kern, psi, A)
        if set(grow) & set(B):
            grow_hits += 1
            res_b = slv.solve_subset(kern, psi, B, slv.SolveConfig(
                algorithm="exchange", margin_tol=1e-12))
            if not set(grow) & set(res_b.index):
                bad.append("instance %d: Grow(A) misses the index of B" % k)
        try:
            slv.hedge(kern, psi, A)
        except NotPrunable:
            pass
        else:
            pruned = set(slv.prune_set(kern, psi, A))
            if pruned:
                prune_hits += 1
                res_a = slv.solve_subset(kern, psi, A, slv.SolveConfig(
                    algorithm="exchange", margin_tol=1e-12))
                if pruned & set(res_a.index) == pruned:
                    bad.append("instance %d: Prune(A) inside the index of A" % k)

    zig = krn.euclidean(ZIGZAG_COORDS)
    hedged, c = slv.hedge(zig, None, (0, 1, 2))
    want = {0: 0.8, 1: -1.0, 2: 1.2}
    if any(abs(hedged.weight_of(i) - want[i]) > 1e-10 for i in want) or abs(c) > 1e-10:
        bad.append("zig-zag hedge %s rate %.3e"
                   % ([hedged.weight_of(i) for i in range(3)], c))
    if grow_hits < 10 or prune_hits < 3:
        bad.append("conditions rarely triggered: grow %d prune %d"
                   % (grow_hits, prune_hits))
    _verdict(6, not bad,
             "; ".join(bad[:4]) or
             "hedge fixpoint worst %.2e on 100 instances, grow checked %d "
             "times, prune %d, zig-zag hedge (4/5,-1,6/5)"
             % (fix_worst, grow_hits, prune_hits))


def test_criterion_07():
    t0 = time.perf_counter()
    bad = []
    rng = np.random.default_rng(7)
    done = 0
    sizes = []
    while done < 50:
        n = int(rng.integers(3, 9))
        kern, psi = random_instance(rng, n)
        K = _exchange(kern, psi).index
        if not K or len(K) > 8:
            continue
        order = slv.construction_ordering(kern, psi, K)
        if sorted(order) != sorted(K):
            bad.append("ordering is not a permutation of the index")
        for j in range(1, len(order) + 1):
            if not slv.is_topiaric_index(kern, psi, order[:j]):
                bad.append("prefix %s of %s is not an index" % (order[:j], order))
                break
        sizes.append(len(K))
        done += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        bad.append("took %.1fs" % elapsed)
    _verdict(7, not bad,
             "; ".join(bad[:4]) or
             "50 converged indices (sizes %d..%d) ordered with every prefix "
             "topiaric, %.1fs" % (min(sizes), max(sizes), elapsed))


def test_criterion_08():
    kern = krn.explicit_gram(np.eye(4))
    psi = obj.PsiSpec.table([0.3, 0.3, 0.3, 0.3])
    full = _exchange(kern, psi)
    sub = slv.solve_subset(kern, psi, (0, 1), slv.SolveConfig(
        algorithm="exchange", margin_tol=1e-12))
    residual = dgn.invisible_residual(sub, full, kern)

    bad = []
    if abs(residual - 0.5) > 1e-9:
        bad.append("residual %.12f, want 0.5" % residual)
    # brute force over the {0,1} simplex at step 1e-2: nothing on the
    # sub-ground-set gets closer than the solved measure does
    grid_min = min(
        embedded_distance(AtomicMeasure(((0, t), (1, 1.0 - t))), full.measure, kern)
        for t in np.linspace(0.0, 1.0, 101)
    )
    if grid_min < residual - 1e-9:
        bad.append("grid found a closer measure: %.12f < %.12f" % (grid_min, residual))
    if grid_min > residual + 1e-2:
        bad.append("grid minimum %.12f far from residual %.12f" % (grid_min, residual))
    _verdict(8, not bad,
             "; ".join(bad) or
             "identity-Gram residual 0.5 matches the simplex-grid minimum "
             "(gap %.1e)" % (grid_min - residual))


def test_criterion_09(tmp_path):
    bad = []

    # risky asset worth hedging: half-and-half with the risk-free leg,
    # and the rate pins to the risk-free return
    report = pf.optimize_portfolio(pf.PortfolioSpec(
        labels=("X",), mean=(0.10,), covariance=((0.16,),), risk_free_rate=0.02))
    weights = {lab: w for lab, _, w in report.weights}
    if abs(weights.get("X", 0.0) - 0.5) > 1e-9 or abs(weights.get("risk-free", 0.0) - 0.5) > 1e-9:
        bad.append("hedged instance weights %s" % (report.weights,))
    if abs(report.rate - 0.02) > 1e-8:
        bad.append("hedged instance rate %.10f != 0.02" % report.rate)

    # dominating asset: all in, risk-free margin goes negative
    report = pf.optimize_portfolio(pf.PortfolioSpec(
        labels=("X",), mean=(0.10,), covariance=((0.04,),), risk_free_rate=0.02))
    weights = {lab: w for lab, _, w in report.weights}
    if abs(weights.get("X", 0.0) - 1.0) > 1e-9:
        bad.append("go-all-in weights %s" % (report.weights,))
    rf_rows = [r for r in report.capm if r.label == pf.RISK_FREE_LABEL]
    if not rf_rows or abs(rf_rows[0].alpha_margin + 0.04) > 1e-9:
        bad.append("risk-free margin %s, want -0.04"
                   % (rf_rows[0].alpha_margin if rf_rows else None))

    # magic coins: perfectly anticorrelated pair cancels all variance
    report = pf.optimize_portfolio(pf.PortfolioSpec(
        labels=("heads", "tails"), mean=(0.05, 0.05),
        covariance=((0.02, -0.02), (-0.02, 0.02))))
    if report.variance > 1e-12:
        bad.append("magic coins variance %.3e" % report.variance)
    weights = {lab: w for lab, _, w in report.weights}
    if abs(weights.get("heads", 0.0) - 0.5) > 1e-9 or abs(weights.get("tails", 0.0) - 0.5) > 1e-9:
        bad.append("magic coins weights %s" % (report.weights,))

    # alternating returns ingest to the exact rational covariance
    csv = tmp_path / "returns.csv"
    csv.write_text("A,B\n0.1,-0.1\n-0.1,0.1\n0.1,-0.1\n-0.1,0.1\n")
    table = fm.read_returns(str(csv))
    mean, cov = pf.ingest_returns(table)
    third75 = 1.0 / 75.0
    want = np.array([[third75, -third75], [-third75, third75]])
    if not (np.asarray(mean) == 0.0).all():
        bad.append("means %s" % (mean,))
    if not (np.asarray(cov) == want).all():
        bad.append("covariance %s is not exactly +-1/75" % (cov,))

    _verdict(9, not bad,
             "; ".join(bad[:4]) or
             "rate identity, go-all-in margin, riskless coins, exact 1/75 "
             "covariance ingestion")


def _annulus_mask(n=64, cell=0.05, r0=0.85, r1=1.15, gap_deg=25.0):
    half = (n - 1) / 2.0
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            x = (j - half) * cell
            y = (half - i) * cell
            r = float(np.hypot(x, y))
            ang = abs(float(np.degrees(np.arctan2(y, x))))
            if r0 <= r <= r1 and (gap_deg <= 0.0 or ang > gap_deg / 2.0):
                mask[i, j] = True
    return mask


def test_criterion_10():
    t0 = time.perf_counter()
    bad = []
    cfg = slv.SolveConfig(algorithm="exchange", margin_tol=1e-6)

    mask = _annulus_mask()
    m = mz.solve_maze(mz.MazeSpec(mask=mask, cell_size=0.05), cfg)
    if m.trichotomy != "solved" or m.result.score > 1e-6:
        bad.append("trichotomy %s score %.3e" % (m.trichotomy, m.result.score))
    boundary = mz.discrete_boundary(mask)
    off = [i for i, _ in m.result.measure.atoms if not boundary[m.cells[i]]]
    if off:
        bad.append("%d support atoms off the discrete boundary" % len(off))
    trace = mz.trace_path(m)
    if trace.status != "escaped" or not trace.clearance > 0.0:
        bad.append("path %s clearance %.4f" % (trace.status, trace.clearance))

    gapless = _annulus_mask(gap_deg=0.0)
    m2 = mz.solve_maze(mz.MazeSpec(mask=gapless, cell_size=0.05), cfg)
    margins = obj.margins(m2.result.measure, m2.psi, m2.kernel)
    radii = np.abs(np.asarray(m2.points))
    inner_bnd = mz.discrete_boundary(gapless)
    inner = [i for i in range(len(m2.points)) if inner_bnd[m2.cells[i]] and radii[i] < 1.0]
    spread = float(np.ptp(margins[inner]))
    if spread > 1e-5:
        bad.append("inner-boundary margin spread %.3e" % spread)

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        bad.append("took %.1fs" % elapsed)
    _verdict(10, not bad,
             "; ".join(bad[:4]) or
             "64x64 annulus: support on boundary, path escaped (clearance "
             "%.3f), gapless inner margins level within %.1e, %.1fs"
             % (trace.clearance, spread, elapsed))
