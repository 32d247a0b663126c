# python3
"""
Reading the reports: margins, betas, slopes, and rates
======================================================

One random instance, solved three ways, then every diagnostic the
library emits: the margin/CAPM table (alpha is the margin, the pricing
inequality holds with nonpositive alpha), the slope table (equal slopes
between index points, one-sided everywhere else), the security market
line classification, and the convergence summary of a deliberately slow
run of plain conditional gradient (`greedy_step`, with no polish)
measured against the exchange optimum.
"""
import numpy as np

from topiary import diagnostics, objective, solver
from topiary.errors import InvalidInput
from topiary.kernel import explicit_gram

rng = np.random.default_rng(11)
n = 8
A = rng.normal(size=(n, n + 2))
kern = explicit_gram(A @ A.T)
psi = objective.PsiSpec.table(rng.uniform(-1.0, 1.0, size=n))

best = solver.solve(kern, psi, solver.SolveConfig(algorithm="exchange"))
print("exchange optimum: objective %.6f, support %s"
      % (best.objective, best.support()))

print("\n-- CAPM table --------------------------------------------------")
print("  %3s %9s %9s %9s %10s  %s" % ("id", "psi", "beta", "alpha", "margin", "index"))
table = objective.margin_table(best.measure, psi, kern)
for row in diagnostics.capm_report(best.measure, kern, psi):
    print("  %3d %9.4f %9.4f %+9.2e %+10.2e  %s"
          % (row.point_id, row.psi, row.beta, row.alpha_margin,
             table.margins[row.point_id], "yes" if row.in_index else ""))

print("\n-- slope table (first few rows) --------------------------------")
rows = diagnostics.jc_report(best, kern, psi)
print("  %3s %3s %8s %10s %10s" % ("x", "y", "dist", "psi_slope", "mu_slope"))
for row in rows[:6]:
    print("  %3d %3d %8.4f %10.6f %10.6f"
          % (row.x, row.y, row.d, row.psi_slope, row.mu_slope))
print("  ... %d rows total; slopes agree when y is in the index" % len(rows))

print("\n-- security market line ----------------------------------------")
sml = diagnostics.sml_points(best.measure, kern, psi)
for pt in sml.points:
    print("  id %d  mu %.4f  psi %+.4f  %s"
          % (pt.point_id, pt.x_coord, pt.y_coord, pt.classification))
print("  line: psi = mu + rate, rate %.6f; everything sits on or below it"
      % sml.rate)

print("\n-- convergence of a slow greedy run ----------------------------")
cfg = solver.SolveConfig(margin_tol=1e-12, trace=True)
state = solver.SolverState(kern, psi, config=cfg)
for _ in range(2000):
    try:
        solver.greedy_step(state)
    except InvalidInput:
        break
trace = state.trace
summary = diagnostics.convergence_summary(trace, best.objective)
print("  %d iterations, final gap %.2e, sup n*gap %.4f, violation flag %s"
      % (len(trace), summary.final_gap, summary.sup_n_gap, summary.violation))
print("  bounded n*gap is the advertised O(1/n) law in action")
