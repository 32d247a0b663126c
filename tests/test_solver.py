import warnings

import numpy as np
import pytest
import scipy.optimize

import topiary as tp
from topiary import solver as slv

from conftest import random_instance


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
    # equal Gram rows but different psi: positive margin, zero step direction
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        k = tp.explicit_gram([[1.0, 1.0], [1.0, 1.0]])
    psi = tp.PsiSpec.table([0.0, 0.5])
    st = tp.SolverState(k, psi, start=tp.delta(0))
    with pytest.raises(tp.DegenerateDirection):
        tp.greedy_step(st)


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
    r = tp.solve_greedy(k, tp.PsiSpec.table([1.0]))
    assert r.measure.atoms == ((0, 1.0),)
    assert r.iterations == 0


def test_solve_greedy_drag(zigzag, zigzag_psi):
    """From the bad seed plain greedy keeps dragging all three atoms."""
    cfg = tp.SolveConfig(algorithm="greedy", max_iter=200, trace=True, seed_point=1)
    with pytest.raises(tp.MaxIterExceeded) as exc:
        tp.solve_greedy(zigzag, zigzag_psi, cfg)
    partial = exc.value.result
    assert partial.measure.support() == (0, 1, 2)
    # the bad atom decays but never leaves
    assert 0 < partial.measure.weight_of(1) < 0.05
    assert partial.objective == pytest.approx(-0.5, abs=0.05)
    assert partial.score > 1e-8
    assert len(partial.trace) == 200
    objs = [row.objective for row in partial.trace]
    assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))


def test_solve_greedy_good_seeds(zigzag, zigzag_psi):
    for seed in (0, 2):
        cfg = tp.SolveConfig(algorithm="greedy", seed_point=seed)
        r = tp.solve_greedy(zigzag, zigzag_psi, cfg)
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
    r = tp.solve_second_greedy(zigzag, zigzag_psi, tp.SolveConfig(seed_point=1))
    assert r.measure.support() == (0, 2)
    w = dict(r.measure.atoms)
    assert w[0] == pytest.approx(0.4, abs=1e-9)
    assert w[2] == pytest.approx(0.6, abs=1e-9)
    opt = tp.probability([0, 2], [0.4, 0.6])
    assert tp.embedded_distance(r.measure, opt, zigzag) <= 1e-9


def test_second_greedy_immediate_on_optimal_seed():
    k = tp.explicit_gram([[2.0]])
    r = tp.solve_second_greedy(k, tp.PsiSpec.zero(k))
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


def test_failed_exchange_leaves_state_consistent(zigzag, zigzag_psi, monkeypatch):
    """A NotPrunable on a later inner exchange step falls back to a greedy
    step on the state as it was, so w and its table still agree."""
    st = tp.SolverState(zigzag, zigzag_psi, start=tp.delta(1))
    s, x = st.table.score, st.table.argmax
    slv._step_exchange(st, s, x)
    assert st.w == pytest.approx([0.0, 0.6, 0.4], abs=1e-14)

    real = slv._augmented_solve
    calls = []

    def fails_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise tp.NotPrunable("forced on the second inner step")
        return real(*args, **kwargs)

    monkeypatch.setattr(slv, "_augmented_solve", fails_second)
    s, x = st.table.score, st.table.argmax
    assert x == 0
    slv._step_exchange(st, s, x)
    assert len(calls) == 2
    G, w = zigzag.gram, st.w
    assert np.max(np.abs(st.table.mu - G @ w)) <= 1e-12
    assert abs(st.table.lin - float(zigzag_psi.values @ w)) <= 1e-12
    assert abs(st.table.norm_sq - float(w @ G @ w)) <= 1e-12


def test_exchange_steps_keep_caches_exact():
    """Every exchange step leaves the table's mu, lin and norm_sq equal to
    G w, psi . w and w' G w up to round-off, and the steps alone reach the
    certificate."""
    kern, psi = random_instance(np.random.default_rng(61), 200)
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
    r = slv._finish(st, "exchange")
    assert r.score <= r.margin_tol and set(r.support()) <= set(r.index)


def test_rejected_polish_leaves_state_bit_identical(monkeypatch):
    """A hedge snap that fails the certificate puts back the very w and
    table mu, lin and norm_sq it found."""
    kern, psi = random_instance(np.random.default_rng(62), 30)
    st = tp.SolverState(kern, psi)
    for _ in range(4):
        tp.greedy_step(st)
    checked = []
    real = tp.SolverState.converged

    def spy(self):
        checked.append(real(self))
        return checked[-1]

    monkeypatch.setattr(tp.SolverState, "converged", spy)
    w, m, lin, nsq = st.w.copy(), st.table.mu.copy(), st.table.lin, st.table.norm_sq
    assert not slv._try_polish(st)
    assert checked == [False]  # the snapped weights reached the certificate
    assert st.w.tobytes() == w.tobytes() and st.table.mu.tobytes() == m.tobytes()
    assert (st.table.lin, st.table.norm_sq) == (lin, nsq)


def test_each_greedy_step_evaluates_its_iterate_once(monkeypatch):
    """The solve loop reads score, argmax, certificate and objective off the
    one table a step builds: N steps cost N tables, plus the start, the
    drift check every 256 steps and the finish."""
    kern, psi = random_instance(np.random.default_rng(63), 60)
    real = tp.MarginTable.tabulate.__func__
    built = []

    def counted(cls, *args):
        built.append(1)
        return real(cls, *args)

    monkeypatch.setattr(tp.MarginTable, "tabulate", classmethod(counted))
    steps = 300
    with pytest.raises(tp.MaxIterExceeded) as exc:
        tp.solve(kern, psi, tp.SolveConfig(algorithm="greedy", max_iter=steps))
    assert exc.value.result.iterations == steps
    assert steps <= len(built) <= steps + 4


def test_solve_exchange_zigzag(zigzag, zigzag_psi):
    r = tp.solve_exchange(zigzag, zigzag_psi)
    assert r.iterations <= 3
    assert r.index == (0, 2)
    assert dict(r.measure.atoms) == pytest.approx({0: 0.4, 2: 0.6}, abs=1e-10)
    assert r.score <= 1e-8
    assert r.algorithm == "exchange"


def test_solve_exchange_identity_uniform():
    k = tp.explicit_gram(np.eye(4))
    r = tp.solve_exchange(k, tp.PsiSpec.zero(k))
    assert np.allclose(r.measure.as_vector(4), 0.25, atol=1e-10)
    table = tp.margin_table(r.measure, tp.PsiSpec.zero(k), k)
    assert np.max(np.abs(table.margins)) <= 1e-8


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


def test_hedge_fixpoint_on_converged_indices():
    rng = np.random.default_rng(46)
    for trial in range(15):
        kern, psi = random_instance(rng, int(rng.integers(3, 8)))
        r = tp.solve(kern, psi)
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
    cfg = tp.SolveConfig(algorithm="greedy", max_iter=3, seed_point=1)
    with pytest.raises(tp.MaxIterExceeded) as exc:
        tp.solve(zigzag, zigzag_psi, cfg)
    assert exc.value.result.iterations == 3


def test_solve_subset_restricts_candidates(zigzag, zigzag_psi):
    r = tp.solve_subset(zigzag, zigzag_psi, [0, 1])
    assert set(r.measure.support()) <= {0, 1}
    table = tp.margin_table(r.measure, zigzag_psi, zigzag, candidates=[0, 1])
    assert table.score <= 1e-8
