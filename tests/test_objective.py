import warnings

import numpy as np
import pytest

import topiary as tp

from conftest import random_instance


def opt_zigzag():
    # 0.4 (-3,1) + 0.6 (2,1): the minimum-norm point (0,1) of the hull
    return tp.probability([0, 2], [0.4, 0.6])


def test_objective_at_zigzag_optimum(zigzag, zigzag_psi):
    assert tp.aesthetic_objective(opt_zigzag(), zigzag_psi, zigzag) == pytest.approx(
        -0.5, abs=1e-14
    )


def test_objective_at_bad_seed(zigzag, zigzag_psi):
    assert tp.aesthetic_objective(tp.delta(1), zigzag_psi, zigzag) == -2.0


def test_objective_singleton_closed_form():
    m, var = 0.07, 0.04
    k = tp.explicit_gram([[var]])
    psi = tp.PsiSpec.table([m])
    assert tp.aesthetic_objective(tp.delta(0), psi, k) == pytest.approx(m - var / 2)
    assert tp.topiaric_rate(tp.delta(0), psi, k) == pytest.approx(m - var)


def test_rate_at_zigzag_optimum(zigzag, zigzag_psi):
    assert tp.topiaric_rate(opt_zigzag(), zigzag_psi, zigzag) == pytest.approx(
        -1.0, abs=1e-14
    )


def test_margin_hand_value(zigzag, zigzag_psi):
    # psi=0, mu=delta_(0,2): 0 - k((0,2),(2,1)) - (0 - 4) = -2 + 4
    assert tp.margin(tp.delta(1), zigzag_psi, zigzag, 2) == pytest.approx(2.0)


def test_margin_zero_on_uniform_identity():
    k = tp.explicit_gram(np.eye(5))
    psi = tp.PsiSpec.zero(k)
    mu = tp.probability(range(5), [0.2] * 5)
    for x in range(5):
        assert tp.margin(mu, psi, k, x) == pytest.approx(0.0, abs=1e-14)


def test_score_gain_tie_break(zigzag, zigzag_psi):
    # margins are 2 at both (-3,1) and (2,1); gains 4/20 vs 4/10
    val, arg = tp.score(tp.delta(1), zigzag_psi, zigzag)
    assert val == pytest.approx(2.0)
    assert arg == 2
    assert tp.step_gain(tp.delta(1), zigzag_psi, zigzag, 0) == pytest.approx(0.2)
    assert tp.step_gain(tp.delta(1), zigzag_psi, zigzag, 2) == pytest.approx(0.4)


def test_score_tie_rule_shared_with_solver():
    # margins tie at 0 on both points; delta_1 sits on point 1, whose
    # direction has zero length. With no positive margin the lowest id wins.
    k = tp.explicit_gram(np.eye(2))
    psi = tp.PsiSpec.table([0.0, 1.0])
    mu = tp.delta(1)
    assert tp.score(mu, psi, k) == (0.0, 0)
    assert tp.margin_table(mu, psi, k).argmax == 0
    assert tp.SolverState(k, psi, start=mu).score_argmax() == (0.0, 0)
    # a positive tied margin ranks the zero-length direction first
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        k = tp.explicit_gram([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert tp.score(tp.delta(0), tp.PsiSpec.table([0.0, 1.0, 0.0]), k) == (1.0, 1)


def test_score_nonpositive_at_optimum(zigzag, zigzag_psi):
    val, _ = tp.score(opt_zigzag(), zigzag_psi, zigzag)
    assert val <= 1e-12


def test_score_lower_bound_against_oracle():
    # score(mu) >= O(opt) - O(mu) + ||opt - mu||^2 / 2
    rng = np.random.default_rng(31)
    for trial in range(30):
        kern, psi = random_instance(rng, int(rng.integers(3, 8)))
        opt = tp.oracle_solve(kern, psi).measure
        w = rng.uniform(size=kern.n)
        mu = tp.probability(range(kern.n), w / w.sum())
        val, _ = tp.score(mu, psi, kern)
        gap = tp.aesthetic_objective(opt, psi, kern) - tp.aesthetic_objective(
            mu, psi, kern
        )
        bound = gap + tp.embedded_distance(opt, mu, kern) ** 2 / 2.0
        assert val >= bound - 1e-10


def test_beta_zigzag_value(zigzag):
    assert tp.beta(opt_zigzag(), zigzag, 1) == pytest.approx(2.0, abs=1e-12)


def test_beta_of_portfolio_against_itself(zigzag):
    mu = opt_zigzag()
    # beta against the mixture itself: inner/norm^2 = 1
    val = sum(w * tp.beta(mu, zigzag, i) for i, w in mu.atoms)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_beta_zero_portfolio():
    k = tp.explicit_gram([[0.0]])
    with pytest.raises(tp.ZeroPortfolio):
        tp.beta(tp.delta(0), k, 0)
    with pytest.raises(tp.ZeroPortfolio):
        tp.alpha(tp.delta(0), tp.PsiSpec.zero(k), k, 0)


def test_alpha_equals_margin():
    rng = np.random.default_rng(32)
    for trial in range(30):
        kern, psi = random_instance(rng, int(rng.integers(2, 8)))
        w = rng.uniform(size=kern.n) + 1e-3
        mu = tp.probability(range(kern.n), w / w.sum())
        if tp.norm_sq(mu, kern) <= 1e-14:
            continue
        x = int(rng.integers(kern.n))
        a = tp.alpha(mu, psi, kern, x)
        m = tp.margin(mu, psi, kern, x)
        assert a == pytest.approx(m, abs=1e-12 * max(1.0, abs(m)))


def test_alpha_zero_on_index(zigzag, zigzag_psi):
    mu = opt_zigzag()
    for x in (0, 2):
        assert tp.alpha(mu, zigzag_psi, zigzag, x) == pytest.approx(0.0, abs=1e-12)
    assert tp.alpha(mu, zigzag_psi, zigzag, 1) == pytest.approx(-1.0, abs=1e-12)


def test_rate_identity():
    rng = np.random.default_rng(33)
    for trial in range(30):
        kern, psi = random_instance(rng, int(rng.integers(2, 9)))
        w = rng.uniform(size=kern.n)
        mu = tp.probability(range(kern.n), w / w.sum())
        table = tp.as_psi(psi, kern).values
        linear = float(mu.weights @ table[mu.ids])
        r = tp.topiaric_rate(mu, psi, kern)
        expect = linear - tp.norm_sq(mu, kern)
        assert r == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))
        obj = tp.aesthetic_objective(mu, psi, kern)
        assert obj == pytest.approx(linear - tp.norm_sq(mu, kern) / 2, abs=1e-12)


def test_margin_table_consistency(zigzag, zigzag_psi):
    mu = tp.delta(1)
    t = tp.margin_table(mu, zigzag_psi, zigzag)
    assert t.rate == pytest.approx(-4.0)
    assert t.objective == pytest.approx(-2.0)
    assert t.norm_sq == pytest.approx(4.0)
    assert t.score == pytest.approx(2.0)
    assert t.argmax == 2
    assert np.allclose(t.margins, [2.0, 0.0, 2.0])


def test_margin_table_restricted_candidates(zigzag, zigzag_psi):
    t = tp.margin_table(tp.delta(1), zigzag_psi, zigzag, candidates=[0, 1])
    assert t.argmax == 0
    assert t.score == pytest.approx(2.0)


def test_margin_table_rejects_atoms_outside_ground_set(zigzag, zigzag_psi):
    with pytest.raises(tp.InvalidInput):
        tp.margin_table(tp.delta(3), zigzag_psi, zigzag)
    with pytest.raises(tp.InvalidInput):
        tp.margins(tp.probability([0, 5], [0.5, 0.5]), zigzag_psi, zigzag)


def test_reference_measure_read_off_one_table():
    """PsiSpec.embedded and reduce_adaptive against the per-point mu_eval and
    norm_sq they used to call."""
    kern, _ = random_instance(np.random.default_rng(31), 30)
    rng = np.random.default_rng(32)
    ids = rng.choice(30, size=9, replace=False)
    w = rng.uniform(size=9)
    nu = tp.probability(ids, w / w.sum())
    tol = 1e-12 * float(np.max(np.abs(kern.gram)))
    ref = np.array([tp.mu_eval(nu, kern, i) for i in range(kern.n)])
    psi = tp.PsiSpec.embedded(nu, kern)
    assert np.max(np.abs(psi.values - ref)) <= tol
    assert abs(psi.norm ** 2 - tp.norm_sq(nu, kern)) <= tol
    mean = rng.normal(scale=0.1, size=30)
    spec = tp.PortfolioSpec(labels=tuple("a%d" % i for i in range(30)), mean=mean,
                            covariance=kern.gram, reference=nu)
    folded, _, const = tp.reduce_adaptive(spec, kern)
    assert np.max(np.abs(folded.values - (mean + ref))) <= tol
    assert abs(const + tp.norm_sq(nu, kern) / 2.0) <= tol


def test_embedded_psi_recovers_reference(zigzag):
    # if psi is an embedded distribution, that distribution is the optimum
    mu0 = tp.probability([0, 2], [0.3, 0.7])
    psi = tp.PsiSpec.embedded(mu0, zigzag)
    res = tp.solve(zigzag, psi)
    assert tp.embedded_distance(res.measure, mu0, zigzag) <= 1e-6


def test_point_kernel_psi(zigzag):
    psi = tp.PsiSpec.point_kernel(2, zigzag)
    assert np.allclose(tp.as_psi(psi, zigzag).values, zigzag.gram[:, 2])


def test_table_length_validated(zigzag):
    with pytest.raises(tp.InvalidInput):
        tp.as_psi(tp.PsiSpec.table([1.0, 2.0]), zigzag)
    with pytest.raises(tp.InvalidInput):
        tp.as_psi(tp.PsiSpec.table([1.0, np.nan, 0.0]), zigzag)
