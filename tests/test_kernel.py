import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import topiary as tp
from topiary import kernel as krn

from conftest import ZIGZAG_COORDS, ZIGZAG_GRAM, numpy_margins


def test_euclidean_zigzag_gram(zigzag):
    assert np.allclose(zigzag.gram, ZIGZAG_GRAM, atol=0)


def test_fock_origin_gram():
    k = tp.fock([0j])
    assert k.gram.tolist() == [[1.0]]


def test_hardy_gram():
    k = tp.hardy([0j, 0.5 + 0j])
    assert np.allclose(k.gram, [[1.0, 1.0], [1.0, 5.0 / 3.0]], atol=1e-15)


def test_fock_eval_real():
    k = tp.fock([1 + 0j])
    assert k.eval(0, 0) == pytest.approx(math.e, abs=1e-12)


def test_fock_eval_rotated():
    # Re e^{1 * conj(i)} = Re e^{-i} = cos 1
    k = tp.fock([1 + 0j, 1j])
    assert k.eval(0, 1) == pytest.approx(math.cos(1.0), abs=1e-12)
    assert k.eval(1 + 0j, 1j) == pytest.approx(math.cos(1.0), abs=1e-12)


def test_hardy_eval_at_origin():
    k = tp.hardy([0j, 0.3 + 0.4j, -0.9 + 0j])
    for j in range(k.n):
        assert k.eval(0, j) == pytest.approx(1.0, abs=1e-14)


def test_embed_distance_self_is_zero(zigzag):
    for i in range(zigzag.n):
        assert zigzag.embed_distance(i, i) == 0.0


def test_embed_distance_zigzag(zigzag):
    # (0,2) vs (2,1): 4 - 2*2 + 5 = 5
    assert zigzag.embed_distance(1, 2) == pytest.approx(math.sqrt(5), abs=1e-12)


def test_explicit_gram_duplicate_rows_distance_zero():
    G = [[2.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.warns(tp.DuplicatePointsWarning):
        k = tp.explicit_gram(G)
    assert k.embed_distance(0, 1) == 0.0


def test_eval_symmetry_all_variants():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(12, 2))
    ke = tp.euclidean([tuple(p) for p in pts])
    zs = [complex(a, b) for a, b in rng.normal(scale=0.8, size=(12, 2))]
    kf = tp.fock(zs)
    kh = tp.hardy([z / (2 * max(1.0, abs(z))) for z in zs])
    for k in (ke, kf, kh):
        for i in range(k.n):
            for j in range(k.n):
                assert k.eval(i, j) == pytest.approx(k.eval(j, i), abs=1e-12)


def test_gram_psd_random_point_sets():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 51))
        pts = rng.normal(size=(n, 3))
        ke = tp.euclidean([tuple(p) for p in pts])
        zs = rng.normal(scale=0.5, size=n) + 1j * rng.normal(scale=0.5, size=n)
        kf = tp.fock(list(zs))
        kh = tp.hardy(list(0.95 * zs / np.maximum(1.0, np.abs(zs))))
        for k in (ke, kf, kh):
            G = k.gram
            lo = np.linalg.eigvalsh(G)[0]
            assert lo >= -1e-9 * max(np.abs(np.diag(G)).max(), 1.0)


def test_embed_distance_gram_consistency():
    rng = np.random.default_rng(3)
    zs = rng.normal(scale=0.7, size=8) + 1j * rng.normal(scale=0.7, size=8)
    k = tp.fock(list(zs))
    G = k.gram
    for i in range(k.n):
        for j in range(k.n):
            d2 = G[i, i] - 2 * G[i, j] + G[j, j]
            assert k.embed_distance(i, j) ** 2 == pytest.approx(max(d2, 0.0), abs=1e-12)


def test_non_psd_reports_eigenvalue():
    with pytest.raises(tp.NonPSD) as exc:
        tp.explicit_gram([[1.0, 2.0], [2.0, 1.0]])
    assert exc.value.eigenvalue == pytest.approx(-1.0, abs=1e-12)


def _covariance_with_lowest_eigenvalue(lam, top=1e-4, other=1e-6):
    """[[top, b], [b, other]] whose lowest eigenvalue is lam."""
    b = np.sqrt((top - lam) * (other - lam))
    return np.array([[top, b], [b, other]])


def test_psd_floor_shared_by_kernels_and_portfolio_specs():
    # floor -PSD_TOL * max|diag| = -1e-9 * 1e-4; a floor of -PSD_TOL *
    # max(max diag, 1) would let -1e-11 through the spec
    bad = _covariance_with_lowest_eigenvalue(-1e-11)
    with pytest.raises(tp.NonPSD) as exc:
        tp.explicit_gram(bad)
    assert exc.value.eigenvalue == pytest.approx(-1e-11, rel=1e-3)
    with pytest.raises(tp.NonPSD):
        tp.PortfolioSpec(labels=("a", "b"), mean=np.zeros(2), covariance=bad)
    near = _covariance_with_lowest_eigenvalue(-0.5e-13)
    tp.explicit_gram(near)
    tp.PortfolioSpec(labels=("a", "b"), mean=np.zeros(2), covariance=near)


# -- the arithmetic PSD certificate of the Fock and Hardy Grams ----------------

ENVELOPES = {"fock": lambda t: (1.0 + t) * np.exp(t), "hardy": lambda t: 1.0 / (1.0 - t) ** 2}


def _disk_points(rng, n, radius):
    """n points uniform in the disk of this radius, the first on its rim."""
    r = radius * np.sqrt(rng.uniform(size=n))
    r[0] = radius
    return r * np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))


def _long_double_gram(Z, variant):
    """The exact kernel matrix to about 1e-19 relative, from the same doubles."""
    a, b = Z.real.astype(np.longdouble), Z.imag.astype(np.longdouble)
    re = np.multiply.outer(a, a) + np.multiply.outer(b, b)
    im = np.multiply.outer(b, a) - np.multiply.outer(a, b)
    if variant == "fock":
        return np.exp(re) * np.cos(im)
    return (1.0 - re * re - im * im) / ((1.0 - re) ** 2 + im * im)  # Re (1+U)/(1-U)


@pytest.mark.parametrize("variant, radius", [
    ("fock", 1.15), ("fock", 3.0), ("fock", 10.0), ("fock", 26.45),
    ("hardy", 0.5), ("hardy", 0.99), ("hardy", 0.9999),
])
def test_computed_entries_stay_within_a_quarter_of_the_assumed_error(variant, radius):
    """The premise of fock_error and hardy_error, on this machine's libm:
    every entry of the symmetrized Gram lies within ENTRY_ERROR times the
    variant's envelope at t = |z||w| of a long-double reference, and the
    worst entry uses at most a quarter of that."""
    Z = _disk_points(np.random.default_rng(int(radius * 100)), 400, radius)
    G = getattr(tp, variant)(list(Z)).gram
    t = np.multiply.outer(np.abs(Z), np.abs(Z))
    allowed = krn.ENTRY_ERROR * ENVELOPES[variant](t)
    err = np.abs(G.astype(np.longdouble) - _long_double_gram(Z, variant))
    assert float((err / allowed).max()) <= 0.25
    # the error functions are n times the envelope at the largest radius,
    # and so bound the largest row sum of |G - K|, hence ||G - K||_2
    r = float(np.abs(Z).max())
    assert krn.ERRORS[variant](np.array([r])) == pytest.approx(
        krn.ENTRY_ERROR * ENVELOPES[variant](r * r), rel=1e-12)
    assert float(err.sum(axis=1).max()) <= krn.ERRORS[variant](np.abs(Z))


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the matrices kernel.py hands to np.linalg.eigvalsh."""
    calls = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(krn.np.linalg, "eigvalsh", spy)
    return calls


def test_psd_gate_reaches_eigvalsh_only_past_the_bound(eigvalsh_calls):
    rng = np.random.default_rng(5)
    fock_pts = _disk_points(rng, 700, 1.147)  # the maze's size and radius
    tp.fock(list(fock_pts))
    assert eigvalsh_calls == []

    # |z| = 1 - 1e-7: n * ENTRY_ERROR exceeds PSD_TOL (1 + r^2)(1 - r^2)
    near_rim = [(1.0 - 1e-7) * 1j, 0.5 + 0j]
    k = tp.hardy(near_rim)
    assert krn.hardy_error(np.abs(near_rim)) > krn.PSD_TOL * float(np.diag(k.gram).max())
    assert eigvalsh_calls == [(2, 2)]
    tp.hardy([0.5 + 0j, 0.3j])  # well inside the disk: proved
    assert len(eigvalsh_calls) == 1

    tp.explicit_gram([[2.0, 1.0], [1.0, 2.0]])
    assert eigvalsh_calls[1:] == [(2, 2)]
    tp.euclidean(ZIGZAG_COORDS)
    assert eigvalsh_calls[2:] == [(3, 3)]


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(["fock", "hardy"]),
       polar=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-np.pi, np.pi)),
                      min_size=1, max_size=40),
       radius=st.floats(0.0, 1.0))
def test_a_gram_the_bound_admits_the_old_gate_admits(variant, polar, radius):
    """Whenever the bound fits under the floor, eigvalsh finds lambda_min
    >= -bound >= -PSD_TOL * max|diag|: the bound admits no Gram that the
    eigenvalue test would refuse."""
    top = np.sqrt(krn.FOCK_EXPONENT_GUARD) if variant == "fock" else 1.0
    Z = np.array([radius * top * m * np.exp(1j * a) for m, a in polar])
    Z = Z[np.abs(Z) < top]
    assume(Z.size)
    bound = krn.ERRORS[variant](np.abs(Z))
    G = krn.PAIRINGS[variant](Z, Z)
    floor = krn.PSD_TOL * (float(np.abs(np.diag(G)).max()) or 1.0)
    assume(bound <= floor)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        assert np.array_equal(getattr(tp, variant)(list(Z)).gram, (G + G.T) / 2.0)
    assert float(np.linalg.eigvalsh((G + G.T) / 2.0).min()) >= -bound


def test_duplicate_groups_found_once_at_construction(monkeypatch):
    with pytest.warns(tp.DuplicatePointsWarning):
        k = tp.euclidean([(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])

    def no_rounding(*args, **kwargs):
        raise AssertionError("duplicate groups recomputed after construction")

    monkeypatch.setattr(krn.np, "round", no_rounding)
    assert k.duplicate_groups() == [[0, 2]]
    r = tp.solve(k, tp.PsiSpec.zero(k), tp.SolveConfig(seed_point=2))
    assert r.score <= r.margin_tol
    assert 2 not in r.support()


def test_non_finite_gram_rejected():
    for bad in (np.nan, np.inf):
        cov = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(tp.InvalidInput):
            tp.explicit_gram(cov)
        with pytest.raises(tp.InvalidInput):
            tp.PortfolioSpec(labels=("a", "b"), mean=np.zeros(2), covariance=cov)


def test_asymmetric_gram_rejected():
    with pytest.raises(tp.InvalidInput):
        tp.explicit_gram([[1.0, 0.5], [0.1, 1.0]])


def test_duplicate_points_warn_and_group():
    with pytest.warns(tp.DuplicatePointsWarning):
        k = tp.euclidean([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert k.duplicate_groups() == [[0, 1]]


def test_duplicate_rows_differing_in_the_sign_of_a_rounded_zero():
    """Rows [1, 1, 1e-13] and [1, 1, -1e-13] round to [1, 1, 0] and
    [1, 1, -0]: one group, though the two zeros differ in their bytes."""
    with pytest.warns(tp.DuplicatePointsWarning):
        k = tp.euclidean([(1.0, 1e-13), (1.0, -1e-13), (0.0, 1.0)])
    assert k.duplicate_groups() == [[0, 1]]


@pytest.mark.parametrize("algorithm", ["greedy", "second-greedy"])
def test_duplicate_detection_does_not_overflow(algorithm):
    """Fock points at radius 26.4 have Gram entries near 1e302, which
    rounding to 12 decimals would scale past the float range: two distinct
    points there are no group, and the solve certifies over both."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = tp.fock([26.4, 26.4 * np.exp(0.1j)])
        r = tp.solve(k, None, tp.SolveConfig(algorithm=algorithm))
    assert k.duplicate_groups() == []
    assert list(r.support()) == [0, 1]
    top, floor = numpy_margins(k.gram, np.zeros(2), r.measure)
    assert top <= r.margin_tol and floor >= -r.margin_tol


def test_no_warning_without_duplicates(zigzag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tp.euclidean(ZIGZAG_COORDS)


def test_fock_overflow_guard():
    # |z conj(w)| = 900 > 700
    with pytest.raises(tp.DomainError):
        tp.fock([30 + 0j, 30j])
    k = tp.fock([20 + 0j])  # |z|^2 = 400 is admissible
    with pytest.raises(tp.DomainError):
        k.row(40 + 0j)  # 800
    with pytest.raises(tp.DomainError):
        k.eval(0, 40 + 0j)
    with pytest.raises(tp.DomainError):
        k.eval(30 + 0j, 30j)


def test_hardy_outside_disk_rejected():
    with pytest.raises(tp.DomainError):
        tp.hardy([1.2 + 0j])
    k = tp.hardy([0j])
    with pytest.raises(tp.DomainError):
        k.eval(0, 1.0 + 0j)
    with pytest.raises(tp.DomainError):
        k.eval(1.0 + 0j, 0j)
    with pytest.raises(tp.DomainError):
        k.row(0.6 + 0.8j)


def test_one_pairing_behind_gram_eval_and_row():
    """gram[i, j], eval(i, j), eval at the coordinates and row(coords_j)[i]
    all come from the variant's one pairing function."""
    rng = np.random.default_rng(23)
    zs = rng.normal(scale=1.5, size=15) + 1j * rng.normal(scale=1.5, size=15)
    kernels = (
        tp.euclidean(rng.normal(size=(15, 4))),
        tp.fock(list(zs)),
        tp.hardy(list(0.97 * zs / (1.0 + np.abs(zs)))),
    )
    for k in kernels:
        G = k.gram
        tol = 1e-12 * float(np.max(np.abs(G)))
        pts = [tuple(c) if k.variant == "euclidean" else c for c in k.coords]
        for j in range(k.n):
            row = k.row(pts[j])
            for i in range(k.n):
                assert k.eval(i, j) == G[i, j]
                assert abs(k.eval(pts[i], pts[j]) - G[i, j]) <= tol
                assert abs(row[i] - G[i, j]) <= tol


def test_labels_default_and_explicit():
    k = tp.euclidean([(0.0, 1.0), (1.0, 0.0)], labels=["up", "right"])
    assert k.labels() == ["up", "right"]
    assert tp.euclidean([(0.0, 1.0)]).labels() == [None]


def test_explicit_gram_rejects_id_free_eval():
    k = tp.explicit_gram([[1.0]])
    with pytest.raises(tp.InvalidInput):
        k.eval(0, (0.0, 0.0))


def test_row_matches_eval_off_ground_set():
    k = tp.fock([0.5 + 0j, -0.2 + 0.1j])
    z = 0.3 - 0.7j
    r = k.row((z.real, z.imag))
    for i in range(k.n):
        assert r[i] == pytest.approx(k.eval(i, z), abs=1e-12)
