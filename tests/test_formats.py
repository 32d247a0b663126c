import json
import math
import os

import numpy as np
import pytest

import topiary as tp
import topiary.formats as fm

from conftest import ZIGZAG_COORDS, peak_bytes


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(81)
    for x in rng.normal(scale=1e3, size=200):
        assert float(fm.fmt(float(x))) == x
    assert fm.fmt(0.4) == "0.40000000000000002"
    assert fm.fmt(1.0) == "1"


def test_fmt_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(tp.InvalidInput):
            fm.fmt(bad)


def test_json_dumps_shape():
    a = fm.json_dumps({"b": 1.5, "a": [1.0, 2.0], "c": {"y": None, "x": True}})
    # key order is the payload builders' fixed insertion order; floats are
    # 17-digit round-trippable; scalar lists stay on one line
    assert '"a": [1, 2]' in a
    assert '"b": 1.5' in a
    assert a.index('"b"') < a.index('"a"') < a.index('"c"')
    assert a.endswith("\n")
    assert fm.json_dumps({"x": 0.1}) == '{\n  "x": 0.10000000000000001\n}\n'


def _render_per_item(value, indent):
    """json_dumps's renderer as it was before flat float lists were joined
    in one pass: one recursive call per item."""
    if value is None or isinstance(value, (bool, str)):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fm.fmt(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = " " * (indent + 2)
        items = ("%s%s: %s" % (pad, json.dumps(str(k)), _render_per_item(v, indent + 2))
                 for k, v in value.items())
        return "{\n%s\n%s}" % (",\n".join(items), " " * indent)
    items = [_render_per_item(v, indent + 2) for v in value]
    if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in value):
        return "[%s]" % ", ".join(items)
    pad = " " * (indent + 2)
    return "[\n%s\n%s]" % (",\n".join(pad + it for it in items), " " * indent)


def test_json_dumps_matches_the_per_item_renderer(zigzag, zigzag_psi):
    """Flat float lists and 1-D float arrays render in one join; every
    payload the writers build, and the edge cases of that path, come out
    byte for byte as the per-item renderer wrote them."""
    result = tp.solve(zigzag, zigzag_psi)
    spec = tp.PortfolioSpec(labels=("a", "b", "c"), mean=np.array([0.1, 0.05, 0.02]),
                            covariance=np.array([[0.04, 0.01, 0.0], [0.01, 0.02, 0.0],
                                                 [0.0, 0.0, 0.01]]),
                            risk_free_rate=0.02)
    mask = np.zeros((1, 1), dtype=bool)
    mask[0, 0] = True
    maze = tp.solve_maze(tp.MazeSpec(mask=mask, cell_size=1.0, origin_offset=10 + 0j))
    payloads = [
        fm.problem_payload(zigzag, zigzag_psi),
        fm.problem_payload(tp.fock([0.5 + 0j, -0.2 + 0.1j])),
        fm.problem_payload(tp.hardy([0.5 + 0j, -0.2 + 0.1j])),
        fm.problem_payload(tp.explicit_gram([[2.0, 1.0], [1.0, 2.0]])),
        fm.result_payload(result, zigzag),
        fm.measure_payload(result.measure),
        fm.portfolio_spec_payload(spec),
        fm.portfolio_payload(tp.optimize_portfolio(spec)),
        fm.maze_payload(maze, tp.trace_path(maze)),
        {"edge": [[], (), np.zeros(0), np.array([-0.0, 5e-324, 1e300, 0.1]),
                  np.array([0.1, 2.5], dtype=np.float32), np.arange(3), np.eye(2),
                  [np.float64(0.1), 0.2], [1, 2.0, None, "x", True], (0.5, -0.0)]},
    ]
    for payload in payloads:
        assert fm.json_dumps(payload) == _render_per_item(payload, 0) + "\n"
    for bad in ([0.5, float("nan")], np.array([np.inf, 1.0])):
        with pytest.raises(tp.InvalidInput, match="non-finite"):
            fm.json_dumps({"x": bad})


def test_problem_round_trip_all_variants(tmp_path, zigzag):
    fock_kern = tp.fock([0.5 + 0j, -0.2 + 0.1j])
    variants = {
        "euclid": (tp.euclidean(ZIGZAG_COORDS, labels=["a", "b", "c"]),
                   tp.PsiSpec.table([0.1, -0.2, 0.3])),
        "gram": (tp.explicit_gram([[2.0, 0.5], [0.5, 1.0]]), None),
        "fock": (fock_kern, tp.PsiSpec.zero(fock_kern)),
        "hardy": (tp.hardy([0j, 0.3 - 0.4j]), None),
    }
    for name, (kern, psi) in variants.items():
        p = tmp_path / (name + ".json")
        fm.write_problem(str(p), kern, psi)
        kern2, psi2 = fm.read_problem(str(p))
        assert kern2.variant == kern.variant
        assert np.allclose(kern2.gram, kern.gram, atol=1e-15)
        assert kern2.labels() == kern.labels()
        want = np.zeros(kern.n) if psi is None else tp.as_psi(psi, kern).values
        assert np.allclose(tp.as_psi(psi2, kern2).values, want)


def test_problem_bytes_stable(tmp_path, zigzag):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    psi = tp.PsiSpec.table([0.25, 0.5, -0.125])
    fm.write_problem(str(p1), zigzag, psi)
    fm.write_problem(str(p2), zigzag, psi)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_problem_rejects_bad_version(tmp_path):
    p = tmp_path / "v.json"
    p.write_text('{"format_version": 2, "kernel": {"type": "gram", "gram": [[1]]}}')
    with pytest.raises(tp.InvalidInput):
        fm.read_problem(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(tp.InvalidInput):
        fm.read_problem(str(p))


def test_measure_round_trip(tmp_path):
    mu = tp.probability([3, 0, 7], [0.2, 0.5, 0.3])
    p = tmp_path / "m.json"
    fm.write_measure(str(p), mu)
    back = fm.read_measure(str(p))
    assert back.atoms == mu.atoms
    assert back.kind == mu.kind
    # atoms serialized sorted by id
    data = json.loads(p.read_text())
    assert [a["point"] for a in data["atoms"]] == [0, 3, 7]


def test_result_payload_sorted_by_weight(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    payload = fm.result_payload(r, zigzag)
    weights = [row["weight"] for row in payload["weights"]]
    assert weights == sorted(weights, reverse=True)
    assert payload["index"] == [0, 2]
    assert payload["algorithm"] == r.algorithm
    assert payload["format_version"] == 1


def test_atomic_write_leaves_no_droppings(tmp_path):
    p = tmp_path / "out.txt"
    fm.atomic_write_text(str(p), "hello\n")
    assert p.read_text() == "hello\n"
    fm.atomic_write_text(str(p), "goodbye\n")
    assert p.read_text() == "goodbye\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_trace_csv_cells(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi, tp.SolveConfig(trace=True))
    text = fm.trace_csv(r.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,objective,score,support_size,added_point,dropped_points"
    assert len(lines) == len(r.trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == r.trace[0].objective


def test_margin_csv_zero_portfolio_columns():
    k = tp.explicit_gram([[0.09, -0.09], [-0.09, 0.09]])
    psi = tp.PsiSpec.table([0.05, 0.05])
    r = tp.solve(k, psi)
    text = fm.margin_csv(r.measure, psi, k)
    lines = text.strip().split("\n")
    assert lines[0] == "point,label,psi,mu,margin,beta,alpha"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[5] == "" and cells[6] == ""


def test_margin_csv_values(zigzag, zigzag_psi):
    mu = tp.probability([0, 2], [0.4, 0.6])
    lines = fm.margin_csv(mu, zigzag_psi, zigzag).strip().split("\n")
    row1 = lines[2].split(",")
    assert float(row1[3]) == pytest.approx(2.0)   # mu at (0,2)
    assert float(row1[4]) == pytest.approx(-1.0)  # its margin
    assert float(row1[5]) == pytest.approx(2.0)   # beta


def test_capm_jc_csv_shapes(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    capm = fm.capm_csv(tp.capm_report(r, zigzag, zigzag_psi)).strip().split("\n")
    assert capm[0] == "id,label,psi,mu,beta,alpha,in_index"
    assert len(capm) == 4
    assert capm[1].endswith("true")
    assert capm[2].endswith("false")
    jc = fm.jc_csv(tp.jc_report(r, zigzag, zigzag_psi, base_points=[2]))
    lines = jc.strip().split("\n")
    assert lines[0] == "x,y,d,psi_slope,mu_slope"
    assert len(lines) == 3


def test_sml_csv_header_is_parseable_json(zigzag, zigzag_psi):
    r = tp.solve(zigzag, zigzag_psi)
    text = fm.sml_csv(tp.sml_points(r, zigzag, zigzag_psi))
    first, second = text.split("\n")[:2]
    assert first.startswith("# ")
    meta = json.loads(first[2:])
    assert meta["rate"] == pytest.approx(-1.0)
    assert meta["format_version"] == 1
    assert second == "id,mu,psi,class"


def test_path_csv_terminal_status():
    mask = np.zeros((1, 1), dtype=bool)
    mask[0, 0] = True
    m = tp.solve_maze(tp.MazeSpec(mask=mask, cell_size=1.0, origin_offset=1 + 0j))
    trace = tp.trace_path(m)
    text = fm.path_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y"
    assert lines[-1] == "# status: escaped"
    assert len(lines) == len(trace.points) + 2
    x, y = lines[1].split(",")
    assert float(x) == 0.0 and float(y) == 0.0


def test_maze_payload_fields():
    mask = np.zeros((1, 1), dtype=bool)
    mask[0, 0] = True
    m = tp.solve_maze(tp.MazeSpec(mask=mask, cell_size=1.0, origin_offset=10 + 0j))
    trace = tp.trace_path(m)
    payload = fm.maze_payload(m, trace)
    assert payload["rescale_factor"] == pytest.approx(0.3)
    assert payload["escape_radius"] == pytest.approx(15.0)
    assert payload["trichotomy"] == "solved"
    assert payload["status"] == "escaped"
    assert payload["cells"] == 1
    bare = fm.maze_payload(m)
    assert bare["status"] is None and bare["clearance"] is None


def test_pgm_format_rules(tmp_path):
    rng = np.random.default_rng(82)
    raster = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
    text = fm.pgm_text(raster)
    lines = text.split("\n")
    assert lines[0] == "P2"
    assert lines[1] == "13 9"
    assert lines[2] == "255"
    assert all(len(line) <= 70 for line in lines)
    flat = [int(tok) for line in lines[3:] for tok in line.split()]
    assert flat == raster.reshape(-1).tolist()
    p = tmp_path / "f.pgm"
    fm.write_pgm(str(p), raster)
    assert p.read_text() == text
    # every word of the table, on any integer dtype
    assert fm.pgm_text(np.arange(256, dtype=np.int64).reshape(16, 16)).split()[4:] == [
        str(v) for v in range(256)]
    for bad in ([[0, -1]], [[0, 300]], [[0.0, 2.5]], [[0.0, 2.0]], [[True, False]]):
        with pytest.raises(tp.InvalidInput):
            fm.pgm_text(np.array(bad))
        with pytest.raises(tp.InvalidInput):
            fm.write_pgm(str(tmp_path / "bad.pgm"), np.array(bad))
    assert not (tmp_path / "bad.pgm").exists()


def one_list_pgm(raster):
    """P2 text through one Python list of every pixel's word."""
    height, width = raster.shape
    words = [str(v) for v in raster.ravel().tolist()]
    lines = ["P2", "%d %d" % (width, height), "255"]
    lines += [" ".join(words[i:i + 17]) for i in range(0, len(words), 17)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape", [(17, 3), (1, 1), (300, 301), (0, 5), (1, 17), (2, 17),
                                   (17, 1), (4, 0), (1, 4353)])
def test_chunked_pgm_is_the_one_list_text(shape):
    """Lines of 17 values across raster rows, a last line full or short, and
    an empty raster, on the integer dtypes a raster may hold."""
    raster = np.random.default_rng(83).integers(0, 256, size=shape, dtype=np.uint8)
    for dtype in (np.uint8, np.uint16, np.int64):
        assert fm.pgm_text(raster.astype(dtype)) == one_list_pgm(raster)


def test_pgm_text_holds_no_word_per_pixel():
    """At 512^2 the peak stays under six times the text (a list of every
    pixel's word took about twenty)."""
    raster = np.random.default_rng(84).integers(0, 256, size=(512, 512), dtype=np.uint8)
    size = len(fm.pgm_text(raster))
    assert peak_bytes(lambda: fm.pgm_text(raster)) < 6 * size


def test_read_mask_text_and_pbm_agree(tmp_path):
    grid = "##..\n#..#\n....\n###.\n"
    t = tmp_path / "m.txt"
    t.write_text(grid)
    mask1 = fm.read_mask(str(t))
    rows = ["1100", "1001", "0000", "1110"]
    pbm = "P1\n# comment\n4 4\n" + "\n".join(" ".join(r) for r in rows) + "\n"
    b = tmp_path / "m.pbm"
    b.write_text(pbm)
    mask2 = fm.read_mask(str(b))
    assert mask1.dtype == bool and mask2.dtype == bool
    assert np.array_equal(mask1, mask2)


def test_read_mask_errors_carry_coordinates(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("##.\n#.\n")
    with pytest.raises(tp.InvalidInput, match="line 2"):
        fm.read_mask(str(p))
    p.write_text("##.\n#x.\n...\n")
    with pytest.raises(tp.InvalidInput, match="line 2"):
        fm.read_mask(str(p))


def test_read_mask_names_a_bad_character_after_many_good_lines(tmp_path):
    """Lines are checked whole; a bad one is still reported by line, column
    and character, and the good lines before it convert row by row."""
    good = "#." * 30 + "\n"
    p = tmp_path / "big.txt"
    p.write_text(good * 500 + "#." * 20 + "#?" + "#." * 9 + "\n" + good)
    with pytest.raises(tp.InvalidInput) as err:
        fm.read_mask(str(p))
    assert str(err.value).endswith("line 501 column 42: '?' is not '#' or '.'")
    p.write_text(good * 500)
    mask = fm.read_mask(str(p))
    assert mask.shape == (500, 60) and mask.dtype == bool
    assert np.array_equal(mask, np.tile([True, False], (500, 30)))


def test_read_returns_preserves_raw_cells(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("A,B\n0.1,-0.1\noops,0.1\n")
    table = fm.read_returns(str(p))
    assert table.labels == ("A", "B")
    assert table.rows[1][0] == "oops"
    with pytest.raises(tp.NonNumericCell, match="row 2, column 1"):
        tp.ingest_returns(table)


def test_read_returns_rejects_blank_label(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("A,\n0.1,0.2\n0.0,0.1\n")
    with pytest.raises(tp.InvalidInput):
        fm.read_returns(str(p))


def test_portfolio_spec_round_trip(tmp_path):
    spec = tp.PortfolioSpec(
        labels=("a", "b"),
        mean=np.array([0.1, 0.05]),
        covariance=np.array([[0.04, 0.01], [0.01, 0.02]]),
        risk_free_rate=0.02,
        mean_shrink=0.25,
        var_inflate=0.5,
        annualize_factor=12,
        reference=tp.probability([0, 1], [0.5, 0.5]),
    )
    p = tmp_path / "spec.json"
    fm.write_json(str(p), fm.portfolio_spec_payload(spec))
    back = fm.read_portfolio_spec(str(p))
    assert back.labels == spec.labels
    assert np.allclose(back.mean, spec.mean)
    assert np.allclose(back.covariance, spec.covariance)
    assert back.risk_free_rate == spec.risk_free_rate
    assert back.mean_shrink == spec.mean_shrink
    assert back.var_inflate == spec.var_inflate
    assert back.annualize_factor == spec.annualize_factor
    assert back.reference.atoms == spec.reference.atoms


def test_portfolio_payload_echoes_corrections():
    spec = tp.PortfolioSpec(
        labels=("X",),
        mean=np.array([0.10]),
        covariance=np.array([[0.04]]),
        risk_free_rate=0.02,
        var_inflate=1.0,
    )
    rep = tp.optimize_portfolio(spec)
    payload = fm.portfolio_payload(rep)
    assert payload["corrections"]["var_inflate"] == 1.0
    assert payload["corrections"]["flagged"] == [0]
    assert payload["weights"][0]["label"] in ("X", tp.RISK_FREE_LABEL)
    assert payload["format_version"] == 1
