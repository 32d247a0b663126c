# python3
"""
Three points, one bad seed: the zig-zag walkthrough
===================================================

The smallest instance where greedy visibly drags. Three points in the
plane, flat psi, and the optimal measure sits on two of them with the
middle point strictly interior. Greedy seeded at the apex takes the
textbook wrong first step, then spends hundreds of iterations shaving
the leftover mass; the second greedy and the exchange solver both land
exactly.
"""
import numpy as np

from topiary import kernel, measure, objective, solver

POINTS = [(-3.0, 1.0), (0.0, 2.0), (2.0, 1.0)]

kern = kernel.euclidean(POINTS)
psi = objective.PsiSpec.zero(kern)
print("Gram matrix:")
print(np.asarray(kern.gram))

print("\n-- exchange ------------------------------------------------")
res = solver.solve(kern, psi, solver.SolveConfig(algorithm="exchange"))
for pid, w in sorted(res.measure.atoms):
    print("  point %d %s  weight %.6f" % (pid, POINTS[pid], w))
print("  objective %.6f  rate %.6f  iterations %d"
      % (res.objective, res.rate, res.iterations))

print("\n-- second greedy -------------------------------------------")
res2 = solver.solve(kern, psi, solver.SolveConfig(algorithm="second-greedy"))
print("  same optimum in %d iterations, support %s"
      % (res2.iterations, res2.support()))

print("\n-- greedy from the apex ------------------------------------")
cfg = solver.SolveConfig(algorithm="greedy", margin_tol=1e-15, max_iter=10**4)
state = solver.SolverState(kern, psi, config=cfg, start=measure.delta(1))
coords = np.asarray(kern.coords, dtype=float)
opt = res.measure
for step in (1, 2, 3, 10, 100, 1000):
    while state.iterations < step:
        solver.greedy_step(state)
    emb = state.measure().as_vector(kern.n) @ coords
    gap = res.objective - state.table.objective
    print("  step %4d  embedding (%+.4f, %.4f)  gap %.2e"
          % (step, emb[0], emb[1], gap))
print("  the first step lands on (0.8, 1.6): the bad iterate the second")
print("  greedy avoids by pruning the apex atom immediately")

print("\n-- margins at the optimum ----------------------------------")
table = objective.margin_table(res.measure, psi, kern)
for pid, m in enumerate(table.margins):
    tag = "support" if pid in res.measure.support() else "interior"
    print("  point %d  margin %+.2e  (%s)" % (pid, m, tag))

print("\n-- hedge and deconstruction --------------------------------")
hedged, c = solver.hedge(kern, psi, (0, 1, 2))
print("  hedge on all three: %s  rate %.1f"
      % ([round(hedged.weight_of(i), 6) for i in range(3)], c))
print("  (the apex carries negative mass: pruning it is what fixes greedy)")
order = solver.construction_ordering(kern, psi, res.index)
print("  construction ordering of the index: %s" % (order,))
