import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import topiary as tp
from topiary import solver as slv

from conftest import numpy_margins, random_instance


def state_from(kern, psi, ids, weights, **kw):
    return tp.SolverState(kern, psi, start=tp.probability(ids, weights), **kw)


# -- greedy step ------------------------------------------------------------

def test_greedy_step_zigzag_walkthrough(zigzag, zigzag_psi):
    """One step from the bad seed lands on bad_1 with the advertised gain."""
    st = tp.SolverState(zigzag, zigzag_psi, start=tp.delta(1))
    before = tp.aesthetic_objective(tp.delta(1), zigzag_psi, zigzag)
    st = tp.greedy_step(st)
    mu = st.measure()
    assert dict(mu.atoms) == pytest.approx({1: 0.6, 2: 0.4}, abs=1e-14)
    after = tp.aesthetic_objective(mu, zigzag_psi, zigzag)
    assert after - before == pytest.approx(0.4, abs=1e-12)
    assert after == pytest.approx(-1.6, abs=1e-12)


def test_greedy_step_refused_at_optimum(zigzag, zigzag_psi):
    st = state_from(zigzag, zigzag_psi, [0, 2], [0.4, 0.6])
    with pytest.raises(tp.InvalidInput):
        tp.greedy_step(st)


def test_greedy_step_identity_pair_uniform():
    k = tp.explicit_gram(np.eye(2))
    st = tp.SolverState(k, tp.PsiSpec.zero(k), start=tp.delta(0))
    st = tp.greedy_step(st)
    assert dict(st.measure().atoms) == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-14)


def test_greedy_step_degenerate_direction():
    """Equal Gram rows but different psi: a positive margin along a
    zero-length direction, on which the objective is linear, so the step
    goes all the way to delta_1 and gains the whole margin."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        k = tp.explicit_gram([[1.0, 1.0], [1.0, 1.0]])
    psi = tp.PsiSpec.table([0.0, 0.5])
    st = tp.SolverState(k, psi, start=tp.delta(0))
    assert st.table.objective == -0.5 and st.table.score == 0.5
    assert tp.step_gain(tp.delta(0), psi, k, 1) == 0.5
    tp.greedy_step(st)
    assert st.measure().atoms == ((1, 1.0),)
    assert st.table.objective == 0.0 and st.converged()


def test_greedy_interior_gain_formula(zigzag, zigzag_psi):
    # with interior t*, realized gain is iota^2 / (2 d^2)
    st = state_from(zigzag, zigzag_psi, [0, 1], [0.5, 0.5])
    mu = st.measure()
    val, x = tp.score(mu, zigzag_psi, zigzag)
    gain = tp.step_gain(mu, zigzag_psi, zigzag, x)
    before = tp.aesthetic_objective(mu, zigzag_psi, zigzag)
    after = tp.aesthetic_objective(tp.greedy_step(st).measure(), zigzag_psi, zigzag)
    assert after - before == pytest.approx(gain, abs=1e-12)


# -- greedy solve -----------------------------------------------------------

def test_solve_greedy_singleton():
    k = tp.explicit_gram([[3.0]])
    r = tp.solve(k, tp.PsiSpec.table([1.0]), tp.SolveConfig(algorithm="greedy"))
    assert r.measure.atoms == ((0, 1.0),)
    assert r.iterations == 0


def test_solve_greedy_drag(zigzag, zigzag_psi):
    """From the bad seed plain conditional gradient keeps dragging all three
    atoms; the solve's polish lands on the optimal face at once."""
    st = tp.SolverState(zigzag, zigzag_psi, tp.SolveConfig(trace=True), start=tp.delta(1))
    for _ in range(200):
        tp.greedy_step(st)
    assert st.measure().support() == (0, 1, 2)
    # the bad atom decays but never leaves
    assert 0 < st.w[1] < 0.05
    assert st.table.objective == pytest.approx(-0.5, abs=0.05)
    assert st.table.score > 1e-8
    assert len(st.trace) == 200
    objs = [row.objective for row in st.trace]
    assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
    r = tp.solve(zigzag, zigzag_psi, tp.SolveConfig(algorithm="greedy", seed_point=1))
    assert r.score <= r.margin_tol
    assert dict(r.measure.atoms) == pytest.approx({0: 0.4, 2: 0.6}, abs=1e-9)


def test_solve_greedy_good_seeds(zigzag, zigzag_psi):
    for seed in (0, 2):
        cfg = tp.SolveConfig(algorithm="greedy", seed_point=seed)
        r = tp.solve(zigzag, zigzag_psi, cfg)
        assert r.iterations <= 2
        assert dict(r.measure.atoms) == pytest.approx({0: 0.4, 2: 0.6}, abs=1e-9)


def test_default_seed_is_best_singleton(zigzag, zigzag_psi):
    # psi - diag/2 = (-5, -2, -2.5): seed is (0,2), the figure's bad seed
    st = tp.SolverState(zigzag, zigzag_psi)
    assert st.measure().atoms == ((1, 1.0),)


# -- prune ------------------------------------------------------------------

def test_prune_removes_disadvantageous_atom(zigzag, zigzag_psi):
    st = state_from(zigzag, zigzag_psi, [0, 1, 2], [0.35, 0.10, 0.55])
    out = tp.prune(st).measure()
    assert out.support() == (0, 2)
    assert dict(out.atoms) == pytest.approx({0: 0.35 / 0.9, 2: 0.55 / 0.9}, abs=1e-12)


def test_prune_noop_on_optimal_pair(zigzag, zigzag_psi):
    st = state_from(zigzag, zigzag_psi, [0, 2], [0.4, 0.6])
    assert dict(tp.prune(st).measure().atoms) == pytest.approx({0: 0.4, 2: 0.6})


def test_prune_noop_on_uniform_identity():
    k = tp.explicit_gram(np.eye(5))
    st = state_from(k, tp.PsiSpec.zero(k), range(5), [0.2] * 5)
    assert len(tp.prune(st).measure().atoms) == 5


# -- second greedy ----------------------------------------------------------

def test_second_greedy_zigzag_exact(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi, tp.SolveConfig(algorithm="second-greedy", seed_point=1))
    assert r.measure.support() == (0, 2)
    w = dict(r.measure.atoms)
    assert w[0] == pytest.approx(0.4, abs=1e-9)
    assert w[2] == pytest.approx(0.6, abs=1e-9)
    opt = tp.probability([0, 2], [0.4, 0.6])
    assert tp.embedded_distance(r.measure, opt, zigzag) <= 1e-9


def test_second_greedy_immediate_on_optimal_seed():
    k = tp.explicit_gram([[2.0]])
    r = tp.solve(k, tp.PsiSpec.zero(k), tp.SolveConfig(algorithm="second-greedy"))
    assert r.iterations == 0


# -- hedge ------------------------------------------------------------------

def test_hedge_zigzag_all_three(zigzag, zigzag_psi):
    nu, c = tp.hedge(zigzag, zigzag_psi, [0, 1, 2])
    assert nu.kind == "signed"
    assert dict(nu.atoms) == pytest.approx({0: 0.8, 1: -1.0, 2: 1.2}, abs=1e-10)
    assert c == pytest.approx(0.0, abs=1e-12)
    assert nu.total_mass() == pytest.approx(1.0, abs=1e-10)
    # margins vanish identically on A: psi - nu(x) = c there
    for x in range(3):
        assert tp.mu_eval(nu, zigzag, x) == pytest.approx(-c, abs=1e-10)


def test_hedge_of_index_is_topiary(zigzag, zigzag_psi):
    nu, c = tp.hedge(zigzag, zigzag_psi, [0, 2])
    assert dict(nu.atoms) == pytest.approx({0: 0.4, 2: 0.6}, abs=1e-10)
    assert c == pytest.approx(-1.0, abs=1e-10)


def test_hedge_singleton(zigzag, zigzag_psi):
    nu, c = tp.hedge(zigzag, zigzag_psi, [1])
    assert dict(nu.atoms) == {1: 1.0}
    assert c == pytest.approx(-4.0)


def test_hedge_singular_system_not_prunable():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        k = tp.explicit_gram([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(tp.NotPrunable):
        tp.hedge(k, tp.PsiSpec.table([0.0, 0.5]), [0, 1])


def test_hedge_matches_constrained_quadratic_solver():
    """Independent check: hedge maximizes the objective over mass-one
    signed measures on A, per an off-the-shelf SLSQP solve."""
    rng = np.random.default_rng(41)
    kern, psi = random_instance(rng, 5)
    A = [0, 2, 4]
    nu, c = tp.hedge(kern, psi, A)
    G = kern.gram[np.ix_(A, A)]
    t = tp.as_psi(psi, kern).values[A]

    def neg_obj(w):
        return -(t @ w - 0.5 * w @ G @ w)

    res = scipy.optimize.minimize(
        neg_obj,
        np.full(3, 1 / 3),
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 500},
    )
    w = np.array([nu.weight_of(i) for i in A])
    assert np.allclose(w, res.x, atol=1e-6)


# -- grow / prune sets ------------------------------------------------------

def test_grow_set_full_ground_set_empty(zigzag, zigzag_psi):
    assert tp.grow_set(zigzag, zigzag_psi, [0, 1, 2]) == ()


def test_grow_set_excludes_negative_margin(zigzag, zigzag_psi):
    assert tp.grow_set(zigzag, zigzag_psi, [0, 2]) == ()


def test_grow_set_includes_positive_margin():
    # extra point (0, 0.5): mu(x) = 0.5 against the (0,1) topiary, margin 0.5
    k = tp.euclidean([(-3.0, 1.0), (0.0, 2.0), (2.0, 1.0), (0.0, 0.5)])
    psi = tp.PsiSpec.zero(k)
    assert tp.grow_set(k, psi, [0, 2]) == (3,)


@pytest.mark.parametrize("bad", [-1, 3, 1.7])
def test_point_ids_outside_ground_set_rejected(bad):
    """Every entry point taking a point id checks it against the ground set;
    -1 no longer wraps round to the last point, 1.7 is not truncated to 1."""
    k = tp.explicit_gram(np.diag([1.0, 2.0, 3.0]))
    psi = tp.PsiSpec.zero(k)
    mu = tp.delta(0)
    calls = {
        "exchange_add": lambda: tp.exchange_add(k, psi, mu, bad),
        "grow_set": lambda: tp.grow_set(k, psi, [0], candidates=[bad]),
        "margin": lambda: tp.margin(mu, psi, k, bad),
        "step_gain": lambda: tp.step_gain(mu, psi, k, bad),
        "beta": lambda: tp.beta(mu, k, bad),
        "alpha": lambda: tp.alpha(mu, psi, k, bad),
        "mu_eval": lambda: tp.mu_eval(mu, k, bad),
    }
    for name, call in calls.items():
        with pytest.raises(tp.InvalidInput, match="outside ground set"):
            call()
            pytest.fail("%s accepted point id %s" % (name, bad))


def test_prune_set_zigzag(zigzag, zigzag_psi):
    assert tp.prune_set(zigzag, zigzag_psi, [0, 1, 2]) == (1,)
    assert tp.prune_set(zigzag, zigzag_psi, [0, 2]) == ()
    assert tp.prune_set(zigzag, zigzag_psi, [1]) == ()


# -- exchange ---------------------------------------------------------------

def test_exchange_add_first_step(zigzag, zigzag_psi):
    out = tp.exchange_add(zigzag, zigzag_psi, tp.delta(1), 2)
    assert dict(out.measure.atoms) == pytest.approx({1: 0.6, 2: 0.4}, abs=1e-10)
    assert out.dropped == ()
    assert abs(out.margin_at_x) <= 1e-8


def test_exchange_add_drops_bad_atom(zigzag, zigzag_psi):
    mid = tp.exchange_add(zigzag, zigzag_psi, tp.delta(1), 2).measure
    out = tp.exchange_add(zigzag, zigzag_psi, mid, 0)
    assert out.dropped == (1,)
    assert dict(out.measure.atoms) == pytest.approx({0: 0.4, 2: 0.6}, abs=1e-10)
    assert abs(out.margin_at_x) <= 1e-8
    before = tp.aesthetic_objective(mid, zigzag_psi, zigzag)
    assert out.objective > before


def test_exchange_add_requires_positive_margin(zigzag, zigzag_psi):
    mu = tp.probability([0, 2], [0.4, 0.6])
    with pytest.raises(tp.InvalidInput):
        tp.exchange_add(zigzag, zigzag_psi, mu, 1)


def test_a_start_must_be_a_probability_measure(zigzag, zigzag_psi):
    """A signed start, here the hedge of the zig-zag with weights
    (0.8, -1, 1.2) or a point mass of 2, is refused rather than taken as
    the weights of a solve or of an exchange."""
    twice = tp.signed([0], [2.0])
    for start in (tp.hedge(zigzag, zigzag_psi, [0, 1, 2])[0], twice):
        with pytest.raises(tp.InvalidInput, match="probability"):
            tp.SolverState(zigzag, zigzag_psi, start=start)
    with pytest.raises(tp.InvalidInput, match="probability"):
        tp.exchange_add(zigzag, zigzag_psi, twice, 2)


def named_atoms(monkeypatch):
    """The atoms `SolverState._cover` names as lying on the affine hull of
    the atoms bordered before them, in the order it names them."""
    real, named = tp.SolverState._cover, []

    def spy(self, S):
        a = real(self, S)
        if a is not None:
            named.append(a)
        return a

    monkeypatch.setattr(tp.SolverState, "_cover", spy)
    return named


def test_failed_exchange_leaves_state_consistent(monkeypatch):
    """Four atoms in R^2 have no hedge: the factor covers three and names
    the fourth, which lies on their affine hull. The exchange step walks
    its ray to the first empty atom and carries on; w stays a probability
    vector, the objective does not fall, and the table still agrees with
    w."""
    kern = tp.euclidean([(-3.0, 1.0), (0.0, 2.0), (2.0, 1.0), (0.0, 1.0), (1.0, -2.0)])
    psi = tp.PsiSpec.table([0.0, 0.5, 0.0, 1.0, 0.0])
    st = state_from(kern, psi, [0, 1, 2, 3], [0.25] * 4)
    named = named_atoms(monkeypatch)
    before = st.table.objective
    slv._step_exchange(st, st.table.score, st.table.argmax)
    assert named[0] == 3
    G, w = kern.gram, st.w
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-14
    assert np.flatnonzero(w).size < 4 and st.table.objective > before
    assert np.max(np.abs(st.table.mu - G @ w)) <= 1e-12
    assert abs(st.table.lin - float(psi.values @ w)) <= 1e-12
    assert abs(st.table.norm_sq - float(w @ G @ w)) <= 1e-12


def test_support_side_failure_heads_for_the_hedge_of_the_support(zigzag, zigzag_psi):
    """Score within tolerance but a light atom's margin far under -tol: the
    exchange step brings in no atom, drops the light one on its way to the
    hedge of the support and lands on the optimum."""
    st = state_from(zigzag, zigzag_psi, [0, 1, 2], [0.4, 1e-9, 0.6 - 1e-9],
                    config=tp.SolveConfig(trace=True))
    assert st.table.score <= st.config.margin_tol and not st.converged()
    slv._step_exchange(st, st.table.score, st.table.argmax)
    assert st.converged()
    assert st.w == pytest.approx([0.4, 0.0, 0.6], abs=1e-12)
    assert st.trace[-1].added_point is None and st.trace[-1].dropped_points == (1,)


def _euclid_r8(rng, n):
    """Gaussian points in R^8: supports of 9 atoms have a singular G_S."""
    points = rng.standard_normal((n, 8))
    return tp.euclidean(points), tp.PsiSpec.table(rng.uniform(-1.0, 1.0, n))


@pytest.mark.parametrize("instance", ["wishart", "euclid-r8"])
def test_exchange_steps_keep_caches_exact(instance):
    """Every exchange step leaves the table's mu, lin and norm_sq equal to
    G w, psi . w and w' G w up to round-off, and the steps alone reach the
    certificate, which numpy confirms from G and psi alone."""
    make = random_instance if instance == "wishart" else _euclid_r8
    kern, psi = make(np.random.default_rng(61), 200)
    G = kern.gram
    tol = 1e-12 * float(np.max(np.abs(G)))
    st = tp.SolverState(kern, psi)
    steps = 0
    while not st.converged():
        assert steps < 400
        s, x = st.table.score, st.table.argmax
        slv._step_exchange(st, s, x)
        steps += 1
        w = st.w
        assert np.max(np.abs(st.table.mu - G @ w)) <= tol
        assert abs(st.table.lin - float(psi.values @ w)) <= tol
        assert abs(st.table.norm_sq - float(w @ G @ w)) <= tol
    assert steps > 10
    r = slv._finish(st)
    assert r.score <= r.margin_tol and set(r.support()) <= set(r.index)
    ids = np.array([i for i, _ in r.measure.atoms])
    wts = np.array([v for _, v in r.measure.atoms])
    mu = G[:, ids] @ wts
    rate = float(psi.values[ids] @ wts) - float(wts @ mu[ids])
    iota = psi.values - mu - rate
    assert iota.max() <= r.margin_tol and iota[ids].min() >= -r.margin_tol


# (support S, factor ids afterwards): the first call factors, appends keep
# the join order, and dropping atom 2 from the middle refactors in sorted
# order. The fourth and sixth supports hold 4 atoms, so G_S is singular in
# R^3 while the bordered system is not; the factor reaches both by appends.
FACTOR_WALK = [
    ([2], [2]),
    ([2, 4], [2, 4]),
    ([1, 2, 4], [2, 4, 1]),
    ([1, 2, 3, 4], [2, 4, 1, 3]),
    ([1, 3, 4], [1, 3, 4]),
    ([0, 1, 3, 4], [1, 3, 4, 0]),
]


@pytest.mark.parametrize("instance", ["wishart", "euclid-r3"])
def test_support_factor_agrees_with_the_augmented_solve(instance):
    """Along appends, a middle drop and its refactor, the factor covers
    each support without naming a dependent atom and solves the bordered
    system as the LU does."""
    rng = np.random.default_rng(64)
    if instance == "wishart":
        kern, psi = random_instance(rng, 8)
    else:
        kern = tp.euclidean(rng.standard_normal((8, 3)))
        psi = tp.PsiSpec.zero(kern)
    G, x = kern.gram, 6
    tol = 1e-12 * float(np.max(np.abs(G)))
    st = tp.SolverState(kern, psi)
    for S, ids in FACTOR_WALK:
        S = np.array(S)
        assert st._cover(S) is None
        V, c = st.hedges(x)
        v, c = V[:, 1], float(c[1])
        v0, c0 = slv._augmented_solve(G[np.ix_(S, S)], G[S, x])
        assert np.max(np.abs(v - v0)) <= tol and abs(c - c0) <= tol
        assert st._factor_ids.tolist() == ids
        L = st._factor
        assert np.max(np.abs(L @ L.T - G[np.ix_(ids, ids)] - st._sigma)) <= tol
    if instance == "euclid-r3":
        assert np.linalg.matrix_rank(G[np.ix_(S, S)]) == 3


def test_support_factor_stays_accurate_over_appends_alone():
    """350 atoms joining one at a time are bordered onto one factor, never
    refactored and none named dependent: it is the Cholesky factor of H
    over its ids in join order, and its residual max|LL' - H| stays within
    4 times that of a fresh `np.linalg.cholesky` of the same H."""
    rng = np.random.default_rng(66)
    kern, psi = random_instance(rng, 360)
    order = rng.permutation(360)[:350]
    st = tp.SolverState(kern, psi)
    for k in range(1, order.size + 1):
        assert st._cover(np.sort(order[:k])) is None
    assert st._factor_ids.tolist() == order.tolist()
    H = kern.gram[np.ix_(order, order)] + st._sigma
    fresh = np.linalg.cholesky(H)
    L = st._factor
    assert np.max(np.abs(L @ L.T - H)) <= 4 * np.max(np.abs(fresh @ fresh.T - H))


def test_near_duplicate_twins_walk_their_ray(monkeypatch):
    """Two points 1e-7 apart have no hedge: the factor names the second
    twin, the exchange step walks the twins' ray until one twin drops out,
    then heads for the hedge with the entering point. The objective rises,
    the table matches a fresh recomputation, and the steps go on to a
    certificate that numpy confirms."""
    kern = tp.euclidean([(1.0, 0.0), (1.0, 1e-7), (0.0, 2.0)])
    psi = tp.PsiSpec.table([0.0, 0.0, 3.0])
    st = state_from(kern, psi, [0, 1], [0.5, 0.5], config=tp.SolveConfig(trace=True))
    named = named_atoms(monkeypatch)
    before = st.table.objective
    s, x = st.table.score, st.table.argmax
    assert x == 2
    slv._step_exchange(st, s, x)
    assert named == [1]
    twins = st.w[:2]
    assert np.count_nonzero(twins) == 1 and st.w[2] > 0.0
    assert st.trace[-1].added_point == 2
    assert st.trace[-1].dropped_points == (int(np.flatnonzero(twins == 0.0)[0]),)
    assert st.table.objective > before
    fresh = tp.margin_table(st.measure(), psi, kern)
    assert np.max(np.abs(st.table.margins - fresh.margins)) <= 1e-12
    assert abs(st.table.objective - fresh.objective) <= 1e-12
    while not st.converged():
        slv._step_exchange(st, st.table.score, st.table.argmax)
    r = slv._finish(st)
    top, floor = numpy_margins(kern.gram, psi.values, r.measure)
    assert top <= r.margin_tol and floor >= -r.margin_tol


def test_polish_is_kept_and_lands_on_the_hedge():
    """Wolfe's support-side step is kept wherever it lands: the objective
    does not fall, and every support margin is within tolerance."""
    kern, psi = random_instance(np.random.default_rng(62), 30)
    st = tp.SolverState(kern, psi)
    for _ in range(4):
        tp.greedy_step(st)
    before = st.table.objective
    slv._polish(st)
    assert st.table.objective >= before
    assert np.max(np.abs(st.table.margins[st.support()])) <= st.config.margin_tol


def test_polish_reads_the_hedge_off_the_support_factor(monkeypatch):
    """On a nonsingular Wishart Gram the polish heads for the hedge of the
    support through the support factor, which names no dependent atom:
    greedy and second-greedy polish once per step."""
    kern, psi = random_instance(np.random.default_rng(65), 30)
    real_polish = slv._polish
    named, polished = named_atoms(monkeypatch), []
    monkeypatch.setattr(slv, "_polish", lambda st: polished.append(1) or real_polish(st))
    for algorithm in ("greedy", "second-greedy"):
        polished.clear()
        r = tp.solve(kern, psi, tp.SolveConfig(algorithm=algorithm))
        assert r.score <= r.margin_tol
        assert len(polished) == r.iterations > 0
    assert named == []


@pytest.mark.parametrize("step", [slv._step_fully_corrective, slv._step_second_greedy])
def test_greedy_family_only_polishes_when_only_a_support_margin_failed(zigzag, zigzag_psi, step):
    """A light atom off the optimal face leaves the score within tolerance
    and its own margin far below -tol: the step takes no line search, and
    its polish drops the atom and lands on the optimum, in one iteration
    and one trace row."""
    eps = 1e-10
    st = state_from(zigzag, zigzag_psi, [0, 1, 2], [0.4 * (1 - eps), eps, 0.6 * (1 - eps)],
                    config=tp.SolveConfig(trace=True))
    assert st.table.score <= st.config.margin_tol and not st.converged()
    step(st, st.table.score, st.table.argmax)
    assert st.converged() and st.iterations == 1
    assert dict(st.measure().atoms) == pytest.approx({0: 0.4, 2: 0.6}, abs=1e-12)
    assert [(row.added_point, row.dropped_points) for row in st.trace] == [(None, (1,))]


def test_each_greedy_step_evaluates_its_iterate_once(monkeypatch):
    """The solve loop reads score, argmax, certificate and objective off the
    one table a step builds: N direct steps cost N tables; a solve costs the
    start, one table per step and per polish cycle, and the finish."""
    kern, psi = random_instance(np.random.default_rng(63), 60)
    real = tp.MarginTable.tabulate.__func__
    built = []

    def counted(cls, *args):
        built.append(1)
        return real(cls, *args)

    monkeypatch.setattr(tp.MarginTable, "tabulate", classmethod(counted))
    st = tp.SolverState(kern, psi)
    built.clear()
    steps = 300
    for _ in range(steps):
        tp.greedy_step(st)
    assert len(built) == steps

    real_core, cycles = slv._exchange_core, []

    def core(state, x, where="exchange"):
        out = real_core(state, x, where)
        cycles.append(out[1])
        return out

    monkeypatch.setattr(slv, "_exchange_core", core)
    built.clear()
    r = tp.solve(kern, psi, tp.SolveConfig(algorithm="greedy"))
    assert len(built) == 1 + r.iterations + sum(cycles) + 1


def test_solve_exchange_zigzag(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    assert r.iterations <= 3
    assert r.index == (0, 2)
    assert dict(r.measure.atoms) == pytest.approx({0: 0.4, 2: 0.6}, abs=1e-10)
    assert r.score <= 1e-8
    assert r.algorithm == "exchange"


def test_solve_exchange_identity_uniform():
    k = tp.explicit_gram(np.eye(4))
    r = tp.solve(k, tp.PsiSpec.zero(k))
    assert np.allclose(r.measure.as_vector(4), 0.25, atol=1e-10)
    table = tp.margin_table(r.measure, tp.PsiSpec.zero(k), k)
    assert np.max(np.abs(table.margins)) <= 1e-8


@pytest.mark.parametrize("algorithm", tp.ALGORITHMS)
@pytest.mark.parametrize("n, seed", [(500, 5), (1000, 7), (2000, 11)])
def test_exchange_certifies_beyond_oracle_size(n, seed, algorithm):
    """Gaussian points in R^8 with psi uniform in [-1, 1]: the certificate
    holds by numpy, on a support of at most d + 1 = 9 atoms, and the
    objective agrees with the default solver's, within 50 iterations. The
    greedy family's polish meets supports of 10 atoms there, which have no
    hedge."""
    rng = np.random.default_rng(seed)
    kern = tp.euclidean(rng.standard_normal((n, 8)))
    psi = rng.uniform(-1.0, 1.0, n)
    r = tp.solve(kern, psi, tp.SolveConfig(algorithm=algorithm))
    top, floor = numpy_margins(kern.gram, psi, r.measure)
    assert top <= r.margin_tol and floor >= -r.margin_tol
    assert len(r.support()) <= 9 and r.iterations <= 50
    scale = max(1.0, float(np.max(np.abs(kern.gram))))
    assert abs(r.objective - tp.solve(kern, psi).objective) <= 1e-9 * scale


@st.composite
def degenerate_instances(draw):
    """At most 8 points on a small integer grid in R^2, so the Euclidean
    Gram has rank <= 2 and duplicates and collinear triples are common;
    psi zero, tied, or drawn from three values; optionally a cash point,
    a zero row and column of the Gram."""
    n = draw(st.integers(2, 8))
    cash = draw(st.booleans())
    points = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=n - cash, max_size=n - cash))
    if draw(st.booleans()):
        points[-1] = points[0]  # a duplicate, whatever else was drawn
    P = np.array(points, dtype=float)
    G = np.zeros((n, n))
    G[:len(P), :len(P)] = P @ P.T
    psi = draw(st.one_of(
        st.just([0.0] * n),
        st.sampled_from([-1.0, 0.5]).map(lambda v: [v] * n),
        st.lists(st.sampled_from([-1.0, 0.0, 0.5]), min_size=n, max_size=n),
    ))
    return G, np.array(psi)


@pytest.mark.parametrize("algorithm", tp.ALGORITHMS)
@settings(max_examples=150, deadline=None)
@given(instance=degenerate_instances())
def test_solver_agrees_with_oracle_on_degenerate_inputs(algorithm, instance):
    G, psi = instance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        kern = tp.explicit_gram(G)
    r = tp.solve(kern, psi, tp.SolveConfig(algorithm=algorithm))
    opt = tp.oracle_solve(kern, psi)
    assert abs(r.objective - opt.objective) <= 1e-9 * max(1.0, float(np.max(np.abs(G))))
    top, floor = numpy_margins(G, psi, r.measure)
    assert top <= r.margin_tol and floor >= -r.margin_tol


@pytest.mark.parametrize("algorithm", tp.ALGORITHMS)
def test_a_round_off_prune_gain_does_not_undo_the_step(algorithm):
    """45 Fock points, up to 15 of them copies, and psi zero: the line
    search adds point 33, and removing it again gains 2.2e-16, round-off.
    Counted as a gain, second-greedy repeated add 33, prune 33, polish
    until max_iter."""
    rng = np.random.default_rng(1840)
    n = int(rng.integers(5, 120))
    z = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    z[rng.integers(0, n, n // 3)] = z[rng.integers(0, n, n // 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        kern = tp.fock(z)
    r = tp.solve(kern, None, tp.SolveConfig(algorithm=algorithm, max_iter=20000))
    top, floor = numpy_margins(kern.gram, np.zeros(n), r.measure)
    assert top <= r.margin_tol and floor >= -r.margin_tol
    assert r.iterations <= 50


@st.composite
def fock_with_copies(draw):
    """At most 60 Fock points at radius 0.5-1.5, about a third of them
    copies of others."""
    n = draw(st.integers(2, 60))
    radius = st.floats(0.5, 1.5)
    angle = st.floats(0.0, 2 * np.pi)
    z = np.array(draw(st.lists(st.builds(lambda r, a: r * np.exp(1j * a), radius, angle),
                               min_size=n, max_size=n)))
    ids = st.lists(st.integers(0, n - 1), min_size=n // 3, max_size=n // 3)
    z[draw(ids)] = z[draw(ids)]
    return z


@settings(max_examples=80, deadline=None)
@given(z=fock_with_copies())
def test_every_algorithm_certifies_fock_points_with_copies(z):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        kern = tp.fock(z)
    for algorithm in tp.ALGORITHMS:
        r = tp.solve(kern, None, tp.SolveConfig(algorithm=algorithm, max_iter=20000))
        top, floor = numpy_margins(kern.gram, np.zeros(len(z)), r.measure)
        assert top <= r.margin_tol and floor >= -r.margin_tol


# -- index predicates -------------------------------------------------------

def test_is_topiaric_index(zigzag, zigzag_psi):
    assert tp.is_topiaric_index(zigzag, zigzag_psi, [1])
    assert tp.is_topiaric_index(zigzag, zigzag_psi, [0, 2])
    assert not tp.is_topiaric_index(zigzag, zigzag_psi, [0, 1, 2])


def test_construction_ordering_pair(zigzag, zigzag_psi):
    assert tp.construction_ordering(zigzag, zigzag_psi, [0, 2]) == (0, 2)
    assert tp.construction_ordering(zigzag, zigzag_psi, [1]) == (1,)


def test_construction_ordering_identity_sorted():
    k = tp.explicit_gram(np.eye(3))
    assert tp.construction_ordering(k, tp.PsiSpec.zero(k), [0, 1, 2]) == (0, 1, 2)


def test_construction_ordering_rejects_non_index(zigzag, zigzag_psi):
    with pytest.raises(tp.NotAnIndex):
        tp.construction_ordering(zigzag, zigzag_psi, [0, 1, 2])


def test_construction_ordering_cap():
    k = tp.explicit_gram(np.eye(17))
    with pytest.raises(tp.TooLarge):
        tp.construction_ordering(k, tp.PsiSpec.zero(k), list(range(17)))


# -- oracle -----------------------------------------------------------------

def test_oracle_zigzag(zigzag, zigzag_psi):
    r = tp.oracle_solve(zigzag, zigzag_psi)
    assert dict(r.measure.atoms) == pytest.approx({0: 0.4, 2: 0.6}, abs=1e-10)
    assert r.objective == pytest.approx(-0.5, abs=1e-12)
    assert r.algorithm == "oracle"


def test_oracle_singleton():
    k = tp.explicit_gram([[2.0]])
    r = tp.oracle_solve(k, tp.PsiSpec.table([0.3]))
    assert r.measure.atoms == ((0, 1.0),)


def test_oracle_magic_coins():
    k = tp.explicit_gram([[0.09, -0.09], [-0.09, 0.09]])
    r = tp.oracle_solve(k, tp.PsiSpec.table([0.05, 0.05]))
    assert dict(r.measure.atoms) == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-10)
    assert tp.norm_sq(r.measure, k) <= 1e-14
    assert r.objective == pytest.approx(0.05, abs=1e-12)


def test_oracle_cap():
    k = tp.explicit_gram(np.eye(13))
    with pytest.raises(tp.TooLarge):
        tp.oracle_solve(k, tp.PsiSpec.zero(k))


# -- cross-cutting properties ------------------------------------------------

def test_objective_monotone_along_trajectories():
    rng = np.random.default_rng(42)
    for trial in range(15):
        kern, psi = random_instance(rng, int(rng.integers(3, 9)))
        for algo in tp.ALGORITHMS:
            cfg = tp.SolveConfig(algorithm=algo, trace=True, max_iter=3000)
            try:
                r = tp.solve(kern, psi, cfg)
            except tp.MaxIterExceeded as exc:
                r = exc.result
            objs = [row.objective for row in r.trace]
            assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))
            assert abs(objs[-1] - r.objective) <= 1e-10


def test_update_inequality_against_oracle():
    """Greedy gains dominate the squared-gap bound at interior steps."""
    rng = np.random.default_rng(43)
    for trial in range(10):
        kern, psi = random_instance(rng, int(rng.integers(3, 8)))
        opt = tp.oracle_solve(kern, psi)
        st = tp.SolverState(kern, psi)
        for _ in range(40):
            mu = st.measure()
            table = tp.margin_table(mu, tp.as_psi(psi, kern), kern)
            if table.score <= 1e-8:
                break
            x = table.argmax
            d2 = kern.gram[x, x] - 2 * tp.mu_eval(mu, kern, x) + table.norm_sq
            interior = table.margins[x] / d2 < 1.0 if d2 > 1e-14 else False
            before = table.objective
            st = tp.greedy_step(st)
            realized = tp.aesthetic_objective(st.measure(), psi, kern) - before
            if interior:
                gap = opt.objective - before
                bound = (gap + tp.embedded_distance(opt.measure, mu, kern) ** 2 / 2) ** 2
                bound /= 2 * d2
                assert realized >= bound - 1e-10


def test_converged_results_satisfy_kkt():
    rng = np.random.default_rng(44)
    for trial in range(20):
        kern, psi = random_instance(rng, int(rng.integers(3, 9)))
        r = tp.solve(kern, psi)
        table = tp.margin_table(r.measure, psi, kern)
        assert table.score <= 1e-8
        for i in r.measure.support():
            assert abs(table.margins[i]) <= 1e-8


def test_solvers_agree_with_oracle():
    rng = np.random.default_rng(45)
    for trial in range(25):
        kern, psi = random_instance(rng, int(rng.integers(3, 8)))
        opt = tp.oracle_solve(kern, psi)
        for algo in ("second-greedy", "exchange"):
            r = tp.solve(kern, psi, tp.SolveConfig(algorithm=algo))
            assert tp.embedded_distance(r.measure, opt.measure, kern) <= 1e-6
            assert r.objective == pytest.approx(opt.objective, abs=1e-8)


@pytest.mark.parametrize("algorithm", ["second-greedy", "exchange"])
def test_hedge_fixpoint_on_converged_indices(algorithm):
    rng = np.random.default_rng(46)
    for trial in range(15):
        kern, psi = random_instance(rng, int(rng.integers(3, 8)))
        r = tp.solve(kern, psi, tp.SolveConfig(algorithm=algorithm))
        nu, c = tp.hedge(kern, psi, list(r.measure.support()))
        assert tp.embedded_distance(nu, r.measure, kern) <= 1e-9
        assert c == pytest.approx(r.rate, abs=1e-8)


def test_solve_deduplicates_ground_set():
    with pytest.warns(tp.DuplicatePointsWarning):
        k = tp.euclidean([(-3.0, 1.0), (0.0, 2.0), (2.0, 1.0), (2.0, 1.0)])
    r = tp.solve(k, tp.PsiSpec.zero(k))
    assert r.measure.support() == (0, 2)
    # the duplicate shares the optimum margin, so it joins the index
    assert r.index == (0, 2, 3)


def test_representatives_collapse():
    with pytest.warns(tp.DuplicatePointsWarning):
        k = tp.euclidean([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert tp.representatives(k, np.zeros(3)) == [0, 2]


def test_max_iter_exceeded_carries_partial(zigzag, zigzag_psi):
    cfg = tp.SolveConfig(algorithm="greedy", max_iter=1, seed_point=1)
    with pytest.raises(tp.MaxIterExceeded) as exc:
        tp.solve(zigzag, zigzag_psi, cfg)
    assert exc.value.result.iterations == 1


@pytest.mark.parametrize("algorithm", tp.ALGORITHMS)
def test_every_algorithm_stops_on_a_revisited_state(monkeypatch, zigzag, zigzag_psi, algorithm):
    """A step that leaves the state where it was: the second visit raises
    CycleDetected with the partial result, under any algorithm."""
    def stall(state, s, x):
        state.iterations += 1

    monkeypatch.setitem(slv._STEPS, algorithm, stall)
    cfg = tp.SolveConfig(algorithm=algorithm, seed_point=1)
    with pytest.raises(tp.CycleDetected) as exc:
        tp.solve(zigzag, zigzag_psi, cfg)
    assert exc.value.result.iterations == 1
    assert exc.value.result.support() == (1,)


def test_solve_subset_restricts_candidates(zigzag, zigzag_psi):
    r = tp.solve_subset(zigzag, zigzag_psi, [0, 1])
    assert set(r.measure.support()) <= {0, 1}
    table = tp.margin_table(r.measure, zigzag_psi, zigzag, candidates=[0, 1])
    assert table.score <= 1e-8


def test_subset_result_reports_the_certificate_its_solve_checked(zigzag, zigzag_psi):
    """Over {0, 1} the loop certifies the topiary of {0, 1}; its score is
    that certificate's, not the margin 3 it leaves at point 2."""
    r = tp.solve_subset(zigzag, zigzag_psi, [0, 1])
    assert r.score <= 1e-8
    assert tp.margin(r.measure, zigzag_psi, zigzag, 2) > 1.0


def test_subset_solves_take_only_tolerance_and_budget(zigzag, zigzag_psi):
    """A seed point outside the subset, a trace flag or another algorithm in
    the caller's config does not reach the subset solve."""
    cfg = tp.SolveConfig(algorithm="greedy", seed_point=1, trace=True)
    r = tp.solve_subset(zigzag, zigzag_psi, [0, 2], cfg)
    assert (r.algorithm, r.trace, r.margin_tol) == ("exchange", None, cfg.margin_tol)
    assert tp.grow_set(zigzag, zigzag_psi, [0, 2], config=cfg) == ()
    assert tp.is_topiaric_index(zigzag, zigzag_psi, [0, 2], cfg) is True
    assert tp.construction_ordering(zigzag, zigzag_psi, [0, 2], cfg) == (0, 2)
    with pytest.raises(tp.MaxIterExceeded):
        tp.solve_subset(zigzag, zigzag_psi, [0, 1, 2], tp.SolveConfig(max_iter=1))


def test_solve_reads_the_algorithm_from_its_config_alone(zigzag, zigzag_psi):
    assert tp.ALGORITHMS == tuple(slv._STEPS) == ("greedy", "second-greedy", "exchange")
    for algo in tp.ALGORITHMS:
        r = tp.solve(zigzag, zigzag_psi, tp.SolveConfig(algorithm=algo, seed_point=2))
        assert r.algorithm == algo and r.index == (0, 2)
