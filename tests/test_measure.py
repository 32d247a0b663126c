import numpy as np
import pytest

import topiary as tp

from conftest import random_instance


def test_probability_invariants_enforced():
    with pytest.raises(tp.InvalidInput):
        tp.AtomicMeasure(((0, 0.7), (1, 0.7)))
    with pytest.raises(tp.InvalidInput):
        tp.AtomicMeasure(((0, -0.2), (1, 1.2)))
    with pytest.raises(tp.InvalidInput):
        tp.AtomicMeasure(((0, 0.5), (0, 0.5)))
    with pytest.raises(tp.InvalidInput):
        tp.AtomicMeasure(((0, 1.0),), kind="measure")
    with pytest.raises(tp.InvalidInput):
        tp.AtomicMeasure((), kind="probability")
    with pytest.raises(tp.InvalidInput):
        tp.AtomicMeasure(((-1, 1.0),))
    with pytest.raises(tp.InvalidInput):
        tp.signed([2, -1], [2.0, -1.0])


def test_signed_records_total_mass():
    nu = tp.signed([0, 2, 1], [0.8, 1.2, -1.0])
    assert nu.total_mass() == pytest.approx(1.0, abs=1e-15)
    assert nu.support() == (0, 1, 2)
    assert nu.weight_of(1) == -1.0


def test_mu_eval_delta_is_kernel(zigzag):
    for x in range(3):
        for y in range(3):
            assert tp.mu_eval(tp.delta(x), zigzag, y) == zigzag.gram[x, y]


def test_mu_eval_zigzag_mixture(zigzag):
    # 0.6 k((0,2),(2,1)) + 0.4 k((2,1),(2,1)) = 0.6*2 + 0.4*5
    mu = tp.probability([1, 2], [0.6, 0.4])
    assert tp.mu_eval(mu, zigzag, 2) == pytest.approx(3.2, abs=1e-14)


def test_empty_signed_measure_evaluates_to_zero(zigzag):
    empty = tp.AtomicMeasure((), kind="signed")
    assert tp.mu_eval(empty, zigzag, 0) == 0.0
    assert tp.norm_sq(empty, zigzag) == 0.0


def test_norm_sq_delta(zigzag):
    for x in range(3):
        assert tp.norm_sq(tp.delta(x), zigzag) == zigzag.gram[x, x]


def test_norm_sq_zigzag_optimum(zigzag):
    # 0.4 (-3,1) + 0.6 (2,1) embeds to (0,1)
    mu = tp.probability([0, 2], [0.4, 0.6])
    assert tp.norm_sq(mu, zigzag) == pytest.approx(1.0, abs=1e-14)


def test_norm_sq_uniform_identity():
    for n in (2, 5, 9):
        k = tp.explicit_gram(np.eye(n))
        mu = tp.probability(range(n), np.full(n, 1.0 / n))
        assert tp.norm_sq(mu, k) == pytest.approx(1.0 / n, abs=1e-14)


def test_inner_agrees_with_norm_and_kernel(zigzag):
    mu = tp.probability([0, 1], [0.3, 0.7])
    assert tp.inner(mu, mu, zigzag) == pytest.approx(tp.norm_sq(mu, zigzag), abs=1e-14)
    assert tp.inner(tp.delta(0), tp.delta(2), zigzag) == zigzag.gram[0, 2]


def test_inner_disjoint_orthonormal():
    k = tp.explicit_gram(np.eye(4))
    mu = tp.probability([0, 1], [0.5, 0.5])
    nu = tp.probability([2, 3], [0.5, 0.5])
    assert tp.inner(mu, nu, k) == 0.0


def test_convex_combine_endpoints(zigzag):
    mu = tp.probability([0, 1], [0.25, 0.75])
    assert tp.convex_combine(mu, 2, 0.0).atoms == mu.atoms
    assert tp.convex_combine(mu, 2, 1.0).atoms == tp.delta(2).atoms


def test_convex_combine_zigzag_bad1(zigzag):
    mu = tp.convex_combine(tp.delta(1), 2, 0.4)
    assert dict(mu.atoms) == pytest.approx({1: 0.6, 2: 0.4}, abs=1e-15)
    coords = np.array([[0.0, 2.0], [2.0, 1.0]])
    embedding = mu.weights @ coords
    assert embedding == pytest.approx([0.8, 1.6], abs=1e-15)


def test_convex_combine_merges_existing_atom():
    mu = tp.probability([0, 1], [0.5, 0.5])
    out = tp.convex_combine(mu, 1, 0.5)
    assert dict(out.atoms) == pytest.approx({0: 0.25, 1: 0.75})


def test_convex_combine_t_out_of_range():
    mu = tp.delta(0)
    with pytest.raises(tp.TOutOfRange):
        tp.convex_combine(mu, 1, 1.0000001)
    with pytest.raises(tp.TOutOfRange):
        tp.convex_combine(mu, 1, -0.1)


def test_drop_small_atoms_identity_cases():
    uniform = tp.probability(range(4), [0.25] * 4)
    assert tp.drop_small_atoms(uniform, 0.0) is uniform
    single = tp.delta(3)
    assert tp.drop_small_atoms(single, 1e-6) is single


def test_drop_small_atoms_forced_rescale():
    mu = tp.AtomicMeasure(((0, 0.9999999999), (1, 1e-10)))
    out = tp.drop_small_atoms(mu, 1e-9)
    assert out.atoms == ((0, 1.0),)


def test_drop_small_atoms_refuses_to_empty():
    mu = tp.probability([0, 1], [0.5, 0.5])
    with pytest.warns(tp.AtomRescueWarning):
        out = tp.drop_small_atoms(mu, 0.9)
    assert out is mu


def test_mu_eval_linearity():
    rng = np.random.default_rng(21)
    for trial in range(25):
        kern, _ = random_instance(rng, int(rng.integers(3, 8)))
        n = kern.n
        wa = rng.uniform(size=n)
        wb = rng.uniform(size=n)
        a, b = rng.normal(size=2)
        mu = tp.signed(range(n), wa)
        nu = tp.signed(range(n), wb)
        combo = tp.signed(range(n), a * wa + b * wb)
        x = int(rng.integers(n))
        lhs = tp.mu_eval(combo, kern, x)
        rhs = a * tp.mu_eval(mu, kern, x) + b * tp.mu_eval(nu, kern, x)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_convex_combine_norm_expansion():
    rng = np.random.default_rng(22)
    for trial in range(25):
        kern, _ = random_instance(rng, int(rng.integers(2, 8)))
        n = kern.n
        w = rng.uniform(size=n)
        mu = tp.probability(range(n), w / w.sum())
        x = int(rng.integers(n))
        t = float(rng.uniform())
        out = tp.convex_combine(mu, x, t)
        expect = (
            (1 - t) ** 2 * tp.norm_sq(mu, kern)
            + 2 * t * (1 - t) * tp.mu_eval(mu, kern, x)
            + t ** 2 * kern.gram[x, x]
        )
        scale = max(1.0, abs(expect))
        assert tp.norm_sq(out, kern) == pytest.approx(expect, abs=1e-12 * scale)


def test_operations_preserve_probability_kind():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        w = rng.uniform(size=n)
        mu = tp.probability(range(n), w)
        out = tp.convex_combine(mu, int(rng.integers(n)), float(rng.uniform()))
        assert out.kind == "probability"
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.weights.min() >= 0.0
        trimmed = tp.drop_small_atoms(out, 1e-12)
        assert trimmed.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_probability_constructor_clamps_roundoff():
    mu = tp.probability([0, 1], [1.0, -1e-12])
    assert mu.atoms == ((0, 1.0),)
    with pytest.raises(tp.InvalidInput):
        tp.probability([0, 1], [1.0, -1e-6])


def test_embedded_distance_matches_kernel_metric(zigzag):
    d = tp.embedded_distance(tp.delta(1), tp.delta(2), zigzag)
    assert d == pytest.approx(zigzag.embed_distance(1, 2), abs=1e-14)


def test_atom_arrays_are_built_once_and_read_only():
    mu = tp.probability([3, 1], [0.25, 0.75])
    assert mu.ids is mu.ids and mu.weights is mu.weights
    assert mu.ids.tolist() == [1, 3] and mu.weights.tolist() == [0.75, 0.25]
    with pytest.raises(ValueError):
        mu.weights[0] = 1.0
    assert mu.weight_of(3) == 0.25 and mu.weight_of(2) == 0.0
    same = tp.AtomicMeasure(((1, 0.75), (3, 0.25)))
    assert mu == same and hash(mu) == hash(same)


OUTSIDE = {
    "margin_table": lambda mu, k: tp.margin_table(mu, None, k),
    "mu_eval": lambda mu, k: tp.mu_eval(mu, k, 0),
    "norm_sq": tp.norm_sq,
    "inner": lambda mu, k: tp.inner(mu, tp.delta(0), k),
    "embedded_distance": lambda mu, k: tp.embedded_distance(tp.delta(0), mu, k),
    "invisible_residual": lambda mu, k: tp.invisible_residual(mu, tp.delta(0), k),
    "as_vector": lambda mu, k: mu.as_vector(k.n),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE))
def test_atom_outside_the_ground_set_is_refused(name):
    with pytest.raises(tp.InvalidInput, match="atom id 7 outside ground set of size 3"):
        OUTSIDE[name](tp.delta(7), tp.explicit_gram(np.eye(3)))
