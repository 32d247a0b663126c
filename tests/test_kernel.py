import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import topiary as tp
from topiary import cli
from topiary import kernel as krn

from conftest import ZIGZAG_COORDS, ZIGZAG_GRAM, numpy_margins, peak_bytes, seeded_ring_mask


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
    # max(max diag, 1) would let -1e-11 through the portfolio
    bad = _covariance_with_lowest_eigenvalue(-1e-11)
    with pytest.raises(tp.NonPSD) as exc:
        tp.explicit_gram(bad)
    assert exc.value.eigenvalue == pytest.approx(-1e-11, rel=1e-3)
    spec = tp.PortfolioSpec(labels=("a", "b"), mean=np.zeros(2), covariance=bad)
    with pytest.raises(tp.NonPSD) as exc:
        tp.optimize_portfolio(spec)
    assert exc.value.eigenvalue == pytest.approx(-1e-11, rel=1e-3)
    near = _covariance_with_lowest_eigenvalue(-0.5e-13)
    tp.explicit_gram(near)
    tp.optimize_portfolio(tp.PortfolioSpec(labels=("a", "b"), mean=np.zeros(2), covariance=near))


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


_RETURNS = "a,b,c\n0.01,0.02,-0.01\n0.03,-0.01,0.0\n-0.02,0.01,0.02\n0.0,0.02,0.01\n"
_SPEC = {"format_version": 1, "labels": ["a", "b"], "mean": [0.1, 0.2],
         "covariance": [[0.04, 0.01], [0.01, 0.09]]}


def _run_portfolio(source, payload, flags, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(payload if source == "--returns" else json.dumps(payload))
    rc = cli.run(["portfolio", source, str(path)] + flags)
    return rc, path, capsys.readouterr().err


@pytest.mark.parametrize("source,flags,n", [
    ("--returns", [], 3),
    ("--returns", ["--risk-free", "0.001"], 4),
    ("--returns", ["--risk-free", "0.001", "--mean-shrink", "0.5", "--var-inflate", "0.1"], 4),
    ("--spec", [], 2),
    ("--spec", ["--risk-free", "0.01"], 3),
], ids=["returns", "returns-risk-free", "returns-all-flags", "spec", "spec-risk-free"])
def test_a_portfolio_job_decomposes_its_covariance_once(source, flags, n, eigvalsh_calls,
                                                        tmp_path, capsys):
    """Only the kernel's gate decomposes: the spec, its `replace`s and the
    cash row check symmetry alone, and the one call is on the n x n matrix
    the kernel is built from (n counts the cash asset)."""
    payload = _RETURNS if source == "--returns" else _SPEC
    rc, _, _ = _run_portfolio(source, payload, flags, tmp_path, capsys)
    assert rc == 0
    assert eigvalsh_calls == [(n, n)]


def test_a_spec_is_refused_where_it_enters_and_gated_once(eigvalsh_calls, tmp_path, capsys):
    skewed = dict(_SPEC, covariance=[[0.04, 0.01], [0.0, 0.09]])
    rc, path, err = _run_portfolio("--spec", skewed, [], tmp_path, capsys)
    assert (rc, err) == (2, "error: %s: gram matrix is not symmetric (skew 0.01)\n" % path)
    assert eigvalsh_calls == []
    with pytest.raises(tp.InvalidInput, match="not symmetric"):
        tp.PortfolioSpec(labels=("a", "b"), mean=np.zeros(2), covariance=skewed["covariance"])

    indefinite = dict(_SPEC, covariance=[[1.0, 2.0], [2.0, 1.0]])
    rc, _, err = _run_portfolio("--spec", indefinite, [], tmp_path, capsys)
    assert rc == 3
    assert "eigenvalue -1 < -1e-09 * 1" in err
    assert eigvalsh_calls == [(2, 2)]


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


def test_the_tiled_gate_is_the_whole_array_symmetrization():
    """Over several tiles, the in-place gate writes the bits of (G + G') / 2
    and refuses a skewed matrix with the skew of the whole array, which
    `checked_symmetric` only reads."""
    rng = np.random.default_rng(6)
    n = 2 * krn._TILE + 37
    X = rng.normal(size=(n, n + 2))
    G = X @ X.T + rng.uniform(-1e-13, 1e-13, size=(n, n))  # a skew within tolerance
    H = G.copy()
    krn.checked_gram(H)
    assert H.tobytes() == ((G + G.T) / 2.0).tobytes()

    G[n - 1, 3] += 1.0  # in the last tile pair
    message = "gram matrix is not symmetric (skew %.3g)" % float(np.max(np.abs(G - G.T)))
    for check in (krn.checked_gram, krn.checked_symmetric):
        S = G.copy()
        with pytest.raises(tp.InvalidInput) as info:
            check(S)
        assert str(info.value) == message
    assert S.tobytes() == G.tobytes()  # checked_symmetric's


def test_a_pair_whose_sum_overflows_is_averaged_by_halves():
    """(a + b) / 2 overflows for two entries near the float maximum; the
    gate averages such a pair as a / 2 + b / 2, which is finite."""
    big = 1.7e308
    k = tp.explicit_gram([[big, 0.0], [0.0, 1.0]])
    assert np.isfinite(k.gram).all() and k.gram[0, 0] == big
    below = np.nextafter(big, 0.0)
    G = np.array([[big, big], [below, big]])
    krn.checked_gram(G, error=0.0)  # the bound admits it: only the symmetrization runs
    assert G[0, 1] == G[1, 0] == big * 0.5 + below * 0.5


def test_a_euclidean_build_holds_one_gram():
    """Beyond the coordinates, building the kernel allocates its Gram and a
    fixed tile of scratch: under 1.25 n^2 doubles (a whole-array gate and
    duplicate scan took about four). numpy's eigvalsh copies the Gram in
    LAPACK's own memory, which tracemalloc does not see."""
    n = 1500
    C = np.random.default_rng(3).normal(size=(n, 8))
    assert peak_bytes(lambda: tp.euclidean(C)) < 1.25 * 8 * n * n


def test_explicit_gram_of_an_array_holds_one_copy():
    X = np.random.default_rng(4).normal(size=(1000, 1002))
    A = X @ X.T
    assert peak_bytes(lambda: tp.explicit_gram(A)) < 1.25 * A.nbytes


@pytest.mark.parametrize("variant", ["fock", "hardy"])
def test_a_complex_build_holds_one_gram(variant):
    """The pairing writes the Gram a block of rows at a time, so its complex
    temporaries are the size of a block: the build stays under 1.25 n^2
    doubles (the whole-array pairing took about four)."""
    n = 1500
    rng = np.random.default_rng(5)
    Z = rng.normal(size=n) + 1j * rng.normal(size=n)
    Z = Z if variant == "fock" else 0.9 * Z / (1.0 + np.abs(Z))
    assert peak_bytes(lambda: getattr(tp, variant)(Z)) < 1.25 * 8 * n * n


# the pairings as one whole-array formula of U = A x conj(B)
WHOLE = {
    "fock": lambda U: np.exp(U.real) * np.cos(U.imag),
    "hardy": lambda U: ((1.0 + U) / (1.0 - U)).real,
}


def whole_pairing(variant, A, B):
    return WHOLE[variant](np.multiply.outer(A, np.conj(B)))


def test_blocked_pairings_are_the_whole_array_formula():
    """Bit for bit, on the maze-ring cells and on random disks. A block has
    16384 // n rows: the 700 cells take 30 blocks of 23 and one of 10; the
    disks have one point, 50 points (one block of up to 327 rows), and 131,
    701 and 1337 points, each with a short last block."""
    cells = tp.solve_maze(tp.MazeSpec(mask=seeded_ring_mask(301), cell_size=0.05))
    sets = [("fock", cells.kernel.coords)]
    rng = np.random.default_rng(17)
    for n in (1, 50, 131, 701, 1337):
        disk = np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        sets += [("fock", np.sqrt(krn.FOCK_EXPONENT_GUARD) * disk), ("hardy", 0.999 * disk)]
    for variant, Z in sets:
        G = krn.PAIRINGS[variant](Z, Z)
        assert G.tobytes() == whole_pairing(variant, Z, Z).tobytes(), (variant, len(Z))


def test_the_fock_guard_names_the_largest_pair_over_all_blocks():
    """The first block already trips the guard (|z_0 z_last| = 720), but
    the largest |z conj(w)| lies in the last block; the message carries the
    whole-array maximum, and no exp runs on a block past the guard."""
    rng = np.random.default_rng(29)
    Z = np.exp(2j * np.pi * rng.uniform(size=300))
    Z[0], Z[-1] = 20.0 * Z[0], 36.0 * Z[-1]
    big = float(np.max(np.abs(np.multiply.outer(Z, np.conj(Z)))))
    assert big == pytest.approx(1296.0)
    message = ("fock kernel overflow: |z*conj(w)| = %g exceeds %g (max admissible point "
               "radius %.4f)" % (big, krn.FOCK_EXPONENT_GUARD, math.sqrt(krn.FOCK_EXPONENT_GUARD)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: tp.fock(Z), lambda: krn.fock_pairing(Z, Z)):
            with pytest.raises(tp.DomainError) as info:
                build()
            assert str(info.value) == message


def fock_overflow(big):
    return ("fock kernel overflow: |z*conj(w)| = %g exceeds %g (max admissible point "
            "radius %.4f)" % (big, krn.FOCK_EXPONENT_GUARD, math.sqrt(krn.FOCK_EXPONENT_GUARD)))


def far_disk(n, seed):
    """n points uniform on the Fock-admissible disk, the last moved to radius 30."""
    rng = np.random.default_rng(seed)
    Z = np.sqrt(krn.FOCK_EXPONENT_GUARD * rng.uniform(size=n)) * np.exp(
        2j * np.pi * rng.uniform(size=n))
    Z[-1] = 30.0 * Z[-1] / abs(Z[-1])
    return Z


@pytest.mark.parametrize("build", ["euclidean labels", "fock domain"])
def test_a_refused_build_allocates_no_gram(build):
    """The labels and the Fock domain are checked before the Gram exists:
    each refusal peaks under 1 MB, where computing the Gram first took
    72 MB (n = 3000) and 18.75 MB (n = 1500)."""
    if build == "euclidean labels":
        C = np.random.default_rng(7).normal(size=(3000, 2))
        refused, error = lambda: tp.euclidean(C, labels=list(range(2999))), tp.InvalidInput
    else:
        Z = far_disk(1500, 8)
        refused, error = lambda: tp.fock(Z), tp.DomainError

    def run():
        with pytest.raises(error):
            refused()

    assert peak_bytes(run) < 1e6


def whole_max(A, B):
    return float(np.max(np.abs(np.multiply.outer(A, np.conj(B)))))


@pytest.mark.parametrize("seed", range(6))
def test_the_fock_guard_names_the_whole_array_maximum(seed):
    """The guard's max|A| max|B| is, as the message prints it, the
    whole-array max|z conj(w)|: for the Gram and for a pairing of the set
    with all but its farthest point."""
    rng = np.random.default_rng(seed)
    Z = far_disk(int(rng.integers(2, 400)), seed)
    Z[-1] *= rng.uniform(1.0, 2.0)
    for build, big in ((lambda: tp.fock(Z), whole_max(Z, Z)),
                       (lambda: krn.fock_pairing(Z, Z[:-1]), whole_max(Z, Z[:-1]))):
        with pytest.raises(tp.DomainError) as info:
            build()
        assert str(info.value) == fock_overflow(big)


def test_row_and_eval_past_the_guard_name_the_same_pair():
    """A raw point past the guard is refused by `row` and by `eval` against
    the farthest ground point with one message, max|z| |w|."""
    Z = far_disk(50, 9)[:-1]
    k = tp.fock(Z)
    far, w = int(np.argmax(np.abs(Z))), 40.0 * np.exp(0.3j)
    messages = set()
    for query in (lambda: k.row(w), lambda: k.eval(far, w), lambda: k.eval(w, far),
                  lambda: k.row((w.real, w.imag))):
        with pytest.raises(tp.DomainError) as info:
            query()
        messages.add(str(info.value))
    assert messages == {fock_overflow(abs(Z[far]) * abs(w))}


def test_labels_are_refused_before_the_domain():
    """An input that breaks both rules is refused for its labels."""
    with pytest.raises(tp.InvalidInput, match="got 2 labels for 5 points"):
        tp.fock(far_disk(5, 10), labels=["a", "b"])
    with pytest.raises(tp.InvalidInput, match="got 1 labels for 2 points"):
        tp.hardy([0.5, 1.5], labels=["a"])


@pytest.mark.parametrize("variant", ["fock", "hardy"])
def test_single_points_keep_the_whole_array_formula(variant):
    """`Kernel.row` and `Kernel.eval` at raw off-ground points are one block,
    the bits of the whole-array formula, and agree with each other."""
    rng = np.random.default_rng(31)
    Z = 0.9 * np.exp(2j * np.pi * rng.uniform(size=40)) * np.sqrt(rng.uniform(size=40))
    k = getattr(tp, variant)(Z)
    for z in 0.8 * np.exp(2j * np.pi * rng.uniform(size=10)):
        row = k.row(z)
        assert row.tobytes() == whole_pairing(variant, Z, z).tobytes()
        for i, x in enumerate(Z):
            value = k.eval(complex(x), complex(z))
            assert value == float(whole_pairing(variant, complex(x), complex(z)))
            assert value == pytest.approx(row[i], rel=1e-14, abs=1e-14)


def test_a_callers_array_is_neither_written_nor_frozen():
    """The kernel symmetrizes and freezes its own copy of an array it is
    given, here one with a skew the gate admits."""
    X = np.random.default_rng(5).normal(size=(300, 302))
    A = X @ X.T
    A[5, 7] += 1e-11
    before = A.copy()
    tp.explicit_gram(A)
    assert A.tobytes() == before.tobytes() and A.flags.writeable

    cov = np.array([[0.04, 0.01 + 1e-15, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
    spec = tp.PortfolioSpec(labels=("a", "b", "c"), mean=np.array([0.1, 0.2, 0.15]),
                            covariance=cov)
    before = spec.covariance.copy()
    tp.optimize_portfolio(spec)
    assert spec.covariance.tobytes() == before.tobytes() and spec.covariance.flags.writeable


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


def test_a_gram_below_unit_scale_rounds_relative_to_its_scale():
    """The rows of 1e-13 I agree to 12 absolute decimals, yet they are three
    distinct points. Rounded relative to the Gram's scale they form no
    group, and every algorithm certifies over the ground set itself, not
    only over the representatives, at margin_tol 1e-20. The augmented
    system's pivot rule is relative to the same scale: the hedge of all
    three points is their uniform measure, and the oracle agrees."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = tp.explicit_gram(1e-13 * np.eye(3))
    assert k.duplicate_groups() == []
    for algorithm in tp.ALGORITHMS:
        r = tp.solve(k, None, tp.SolveConfig(algorithm=algorithm, margin_tol=1e-20))
        assert list(r.support()) == [0, 1, 2]
        assert tp.margin_table(r.measure, None, k).score <= 1e-20
    h, c = tp.hedge(k, None, [0, 1, 2])
    assert np.allclose(h.as_vector(3), 1.0 / 3.0, rtol=1e-12, atol=0.0)
    assert c == pytest.approx(-1e-13 / 3.0, rel=1e-12)
    assert tp.prune_set(k, None, [0, 1, 2]) == ()
    oracle = tp.oracle_solve(k, None, config=tp.SolveConfig(margin_tol=1e-20))
    assert list(oracle.support()) == [0, 1, 2]
    assert oracle.score <= 1e-20


def _reference_groups(G):
    """The duplicate rule on the whole array at once: rows rounded to 12
    decimals (an entry the rounding overflows keeps its value, -0.0 becomes
    0.0), grouped by their bytes in order of first appearance."""
    keys = {}
    with np.errstate(over="ignore"):
        Q = np.round(G, 12)
    np.copyto(Q, G, where=np.isinf(Q))
    Q += 0.0
    for i, row in enumerate(Q):
        keys.setdefault(row.tobytes(), []).append(i)
    return [ids for ids in keys.values() if len(ids) > 1]


def _spread_duplicates():
    """600 draws from 150 points: duplicates far apart, over many row blocks."""
    rng = np.random.default_rng(11)
    pool = rng.normal(size=(150, 3))
    return tp.euclidean(pool[rng.integers(0, 150, size=600)])


def _near_duplicates():
    """Copies moved by 1e-17 to 1e-13: their Gram rows agree within 1e-12,
    some rounding alike and some not."""
    rng = np.random.default_rng(12)
    base = rng.normal(size=(60, 4))
    shift = 10.0 ** rng.uniform(-17, -13, size=(60, 1)) * rng.choice([-1.0, 1.0], size=base.shape)
    return tp.euclidean(np.vstack([base, base + shift]))


def _correlation_duplicates():
    """A unit-diagonal correlation Gram of 90 draws from 30 assets."""
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 6))[rng.integers(0, 30, size=90)]
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    R = X @ X.T
    np.fill_diagonal(R, 1.0)
    return tp.explicit_gram(R)


_DUPLICATE_CASES = {
    "exact duplicates over several row blocks": _spread_duplicates,
    "near-duplicates within 1e-12": _near_duplicates,
    "unit-diagonal correlation": _correlation_duplicates,
    "signed rounded zeros": lambda: tp.euclidean(
        [(1.0, 1e-13), (0.0, 1.0), (1.0, -1e-13), (1e-13, 1.0), (1.0, 0.0), (-1e-13, 1.0)]),
    "radius 26.4 fock": lambda: tp.fock([26.4, 26.4 * np.exp(0.1j), 26.4]),
}


@pytest.mark.parametrize("row_hash", ["bytes", "constant"])
@pytest.mark.parametrize("case", sorted(_DUPLICATE_CASES))
def test_duplicate_scan_matches_the_whole_array_rule(case, row_hash, monkeypatch):
    """Hashing rows block by block finds the groups, in the order, of
    grouping whole rounded rows; with a constant hash every row collides
    and the exact comparison alone splits them."""
    if row_hash == "constant":
        monkeypatch.setattr(krn, "_row_hash", lambda row: 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tp.DuplicatePointsWarning)
        k = _DUPLICATE_CASES[case]()
    expected = _reference_groups(k.gram)
    assert expected
    assert k.duplicate_groups() == expected


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


_RAW_READERS = {
    "row": lambda k, p: k.row(p),
    "eval": lambda k, p: k.eval(p, p),
    "eval-id": lambda k, p: k.eval(0, p),
    "embed_distance": lambda k, p: k.embed_distance(p, p),
    "mu_eval": lambda k, p: tp.mu_eval(tp.delta(0), k, p),
}


@pytest.mark.parametrize("reader", sorted(_RAW_READERS))
@pytest.mark.parametrize("point", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
def test_a_raw_point_must_have_the_ground_sets_dimension(reader, point):
    """A Euclidean raw point of the wrong length is refused, naming both
    lengths, not paired with an R^3 ground set."""
    k = tp.euclidean(np.eye(3))
    expect = "point has %d coordinates, the ground set's have 3" % len(point)
    with pytest.raises(tp.InvalidInput, match=expect):
        _RAW_READERS[reader](k, point)
    assert _RAW_READERS[reader](k, point[:1] + [0.0, 0.0]) is not None
