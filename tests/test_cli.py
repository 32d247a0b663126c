"""End-to-end checks of the command line front end.

Everything runs in-process through cli.run so exit codes and stream
separation are observable without forking; one subprocess test at the end
confirms the `python -m topiary` entry point and TOPIARY_LOG wiring.
"""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from topiary import cli
from topiary import formats as fm
from topiary import kernel as krn
from topiary import maze as mz
from topiary import portfolio as pf
from topiary import solver as slv
from topiary.measure import AtomicMeasure

from conftest import ZIGZAG_COORDS, peak_bytes, seeded_ring_mask


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    fm.write_problem(str(path), krn.euclidean(ZIGZAG_COORDS))
    return str(path)


def ring_gap_text(n=64, cell=0.05, r0=0.85, r1=1.15, gap_deg=25.0):
    """Annulus obstacle with a wedge cut out around the +x axis."""
    half = (n - 1) / 2.0
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = (j - half) * cell
            y = (half - i) * cell
            r = float(np.hypot(x, y))
            ang = abs(float(np.degrees(np.arctan2(y, x))))
            row.append("#" if (r0 <= r <= r1 and ang > gap_deg / 2.0) else ".")
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


@pytest.fixture
def ring_mask(tmp_path):
    path = tmp_path / "ring_gap.txt"
    path.write_text(ring_gap_text())
    return str(path)


# -- solve / oracle -----------------------------------------------------------

def test_solve_second_greedy_example(problem_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    rc = cli.run(["solve", "--input", problem_file, "--algorithm", "second-greedy",
                  "--tol", "1e-8", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    weights = {e["point"]: e["weight"] for e in payload["weights"]}
    assert set(weights) == {0, 2}
    assert abs(weights[0] - 0.4) <= 1e-9
    assert abs(weights[2] - 0.6) <= 1e-9
    assert payload["index"] == [0, 2]


def test_solve_summary_line(problem_file, capsys):
    rc = cli.run(["solve", "--input", problem_file])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("solve: objective ")
    assert "support 2" in lines[0]
    assert captured.err == ""


def test_solve_json_flag(problem_file, capsys):
    rc = cli.run(["solve", "--input", problem_file, "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["format_version"] == 1
    assert abs(payload["objective"] + 0.5) <= 1e-9
    # summary still appears, demoted to stderr
    assert captured.err.startswith("solve: objective ")


def test_oracle_matches_solve(problem_file, tmp_path):
    out = tmp_path / "oracle.json"
    rc = cli.run(["oracle", "--input", problem_file, "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    weights = {e["point"]: e["weight"] for e in payload["weights"]}
    assert abs(weights[0] - 0.4) <= 1e-9
    assert abs(weights[2] - 0.6) <= 1e-9


@pytest.mark.parametrize("flag", [
    ["--trace", "t.csv"], ["--algorithm", "greedy"], ["--max-iter", "1"],
    ["--seed-point", "2"], ["--weight-tol", "1e-9"],
], ids=lambda flag: flag[0])
def test_oracle_refuses_iterative_solver_flags(problem_file, flag, tmp_path,
                                               monkeypatch, capsys):
    """The oracle reads only --input, --output, --tol and --json; a flag it
    would ignore is an argument error, not a silent no-op."""
    monkeypatch.chdir(tmp_path)
    assert cli.run(["oracle", "--input", problem_file] + flag) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.path.exists("t.csv")


def test_oracle_thirteen_points_refused(tmp_path, capsys):
    path = tmp_path / "p13.json"
    fm.write_problem(str(path), krn.explicit_gram(np.eye(13)))
    rc = cli.run(["oracle", "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "at most 12 points, got 13" in captured.err


def test_solve_seed_point_validated(problem_file, capsys):
    rc = cli.run(["solve", "--input", problem_file, "--algorithm", "greedy",
                  "--seed-point", "9"])
    assert rc == 2
    assert "seed point 9" in capsys.readouterr().err


# -- failure exit codes -------------------------------------------------------

def test_missing_input_is_exit_2(tmp_path, capsys):
    rc = cli.run(["solve", "--input", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "does not exist" in capsys.readouterr().err


def test_missing_output_dir_is_exit_2(problem_file, tmp_path, capsys):
    rc = cli.run(["solve", "--input", problem_file,
                  "--output", str(tmp_path / "no_such_dir" / "r.json")])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "maze"])
def test_output_path_that_is_a_directory_is_exit_2(command, problem_file, ring_mask,
                                                   tmp_path, capsys):
    """An output path naming an existing directory is refused up front under
    its name, not left to a write that fails with a traceback."""
    target = tmp_path / "out"
    target.mkdir()
    field = tmp_path / "field.pgm"
    argv = {
        "solve": ["solve", "--input", problem_file, "--output", str(target)],
        "maze": ["maze", "--mask", ring_mask, "--cell-size", "0.05",
                 "--field", str(field), "--path", str(target)],
    }[command]
    rc = cli.run(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: %s: output path is a directory\n" % target
    assert list(target.iterdir()) == [] and not field.exists()


def test_bad_argv_is_exit_2(capsys):
    assert cli.run(["solve"]) == 2           # --input is required
    assert cli.run(["frobnicate"]) == 2      # unknown subcommand
    assert cli.run([]) == 2                  # subcommand is required
    capsys.readouterr()


def test_nonpsd_problem_is_exit_3(tmp_path, capsys):
    # constructor-level validation would refuse this gram, so write it raw
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "kernel": {"type": "gram", "gram": [[0.0, 1.0], [1.0, 0.0]]},
        "psi": [0.0, 0.0],
    }))
    rc = cli.run(["solve", "--input", str(path)])
    assert rc == 3
    assert "not positive semidefinite" in capsys.readouterr().err


def _problem(kernel, psi=(0.0, 0.0)):
    return {"format_version": 1, "kernel": kernel, "psi": list(psi)}


_GRAM2 = {"type": "gram", "gram": [[2.0, 0.5], [0.5, 1.0]]}
_SPEC = {"format_version": 1, "labels": ["a", "b"], "mean": [0.1, 0.2],
         "covariance": [[0.04, 0.0], [0.0, 0.09]]}

# (flag the file is passed under, its payload, extra argv); a returns payload
# is CSV text; solutions are diagnosed against the two-point gram problem
_MALFORMED = {
    "ragged gram": ("--input", _problem({"type": "gram", "gram": [[1.0, 0.0], [0.0]]}), []),
    "gram not square": ("--input", _problem({"type": "gram", "gram": [[1.0, 0.0, 0.0],
                                                                      [0.0, 1.0, 0.0]]}), []),
    "psi string": ("--input", _problem(_GRAM2, ["a", 0.0]), []),
    "psi null": ("--input", _problem(_GRAM2, [None, 0.0]), []),
    "euclidean point": ("--input", _problem(
        {"type": "euclidean", "points": [[1.0, "z"], [0.0, 1.0]]}), []),
    "spec mean": ("--spec", dict(_SPEC, mean=["x", 0.2]), []),
    "spec mean numeric string": ("--spec", dict(_SPEC, mean=["0.1", 0.2]), []),
    "spec mean_shrink numeric string": ("--spec", dict(_SPEC, mean_shrink="0.5"), []),
    "spec reference": ("--spec", dict(_SPEC, reference=[{"weight": 1.0}]), []),
    "spec labels number": ("--spec", dict(_SPEC, labels=5), []),
    "spec labels string": ("--spec", dict(_SPEC, labels="ab"), []),
    "spec covariance asymmetric": ("--spec", dict(_SPEC, covariance=[[0.04, 0.01], [0.0, 0.09]]),
                                   []),
    "kernel labels number": ("--input", _problem(dict(_GRAM2, labels=5)), []),
    "kernel labels string": ("--input", _problem(dict(_GRAM2, labels="ab")), []),
    "weights without point": ("--solution", {"weights": [{"weight": 1.0}]}, []),
    "atom point string": ("--solution", {"atoms": [{"point": "x", "weight": 1.0}]}, []),
    "atom point negative": ("--solution", {"atoms": [{"point": -1, "weight": 1.0}]}, []),
    "atom point past the end": ("--solution", {"atoms": [{"point": 5, "weight": 1.0}]}, []),
    "atom point fractional": ("--solution", {"atoms": [{"point": 1.7, "weight": 1.0}]}, []),
    "atom weight nan": ("--solution", {"atoms": [{"point": 0, "weight": math.nan}]}, []),
    "spec annualize fractional": ("--spec", dict(_SPEC, annualize_factor=2.5), []),
    "spec rf_index fractional": ("--spec", dict(_SPEC, rf_index=1.9), []),
    "base not an id": ("--solution", {"atoms": [{"point": 0, "weight": 1.0}]},
                       ["--base", "a,1"]),
    "base past the end": ("--solution", {"atoms": [{"point": 0, "weight": 1.0}]},
                          ["--base", "7"]),
    "returns covariance overflow": ("--returns", "a,b\n0.1,1e200\n0.2,-1e200\n", []),
    "returns annualized mean overflow": ("--returns", "a\n1e307\n1e307\n",
                                         ["--annualize", "252"]),
    "returns cell not a number": ("--returns", "a,b\n0.1,x\n0.2,0.3\n", []),
    "returns cell inf": ("--returns", "a,b\n0.1,inf\n0.2,0.3\n", []),
    "input not utf-8": ("--input", b'{"psi": "\xff"}', []),
    "input not JSON": ("--input", '{"psi": [0.0,', []),
    "solution not JSON": ("--solution", "", []),
    "spec not utf-8": ("--spec", b"\xfe\xff", []),
    "returns not utf-8": ("--returns", b"a,b\n0.1,\xff\n", []),
    "mask not utf-8": ("--mask", b"#.\n\xff#\n", []),
    "mask without obstacles": ("--mask", "...\n...\n", []),
}

# refusals that depend on the problem file or on --base name no one file
_UNNAMED = {"atom point past the end", "base not an id", "base past the end"}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_is_exit_2(case, tmp_path, capsys):
    """A payload given as bytes or text is written as it stands, any other
    as JSON."""
    flag, payload, extra = _MALFORMED[case]
    path = tmp_path / "input.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    if flag == "--input":
        argv = ["solve", "--input", str(path)]
    elif flag in ("--spec", "--returns"):
        argv = ["portfolio", flag, str(path)]
    elif flag == "--mask":
        argv = ["maze", "--mask", str(path), "--cell-size", "0.1"]
    else:
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(_problem(_GRAM2)))
        argv = ["diagnose", "--input", str(problem), "--solution", str(path),
                "--jc", str(tmp_path / "jc.csv")]
    rc = cli.run(argv + extra)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: %s: " % path if case not in _UNNAMED else "error:")
    assert "Traceback" not in err


_SOLVED = ["--output", "{out}/r.json", "--trace", "{out}/t.csv"]

# (argv, exit code) per subcommand: a run refused after its reading and part
# of its computing, with every output it takes asked for under {out}
_REFUSED = {
    "solve over max-iter": (["solve", "--input", "{problem}", "--algorithm", "greedy",
                             "--seed-point", "1", "--max-iter", "1"] + _SOLVED, 4),
    "oracle over 12 points": (["oracle", "--input", "{eye13}", "--output", "{out}/r.json"], 2),
    "deconstruct over the cap": (["deconstruct", "--input", "{eye20}"] + _SOLVED, 2),
    "diagnose base outside the index": (
        ["diagnose", "--input", "{problem}", "--solution", "{optimum}", "--base", "1",
         "--capm", "{out}/capm.csv", "--jc", "{out}/jc.csv", "--sml", "{out}/sml.csv"], 2),
    "portfolio spec not PSD": (["portfolio", "--spec", "{spec}", "--output", "{out}/p.json"], 3),
    "maze path refused after the fields": (
        ["maze", "--mask", "{mask}", "--cell-size", "0.05", "--field-res", "8",
         "--field", "{out}/f.pgm", "--conjugate", "{out}/c.pgm", "--path", "{out}/path.csv",
         "--max-steps", "0"], 2),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_a_refused_run_writes_nothing(case, problem_file, ring_mask, tmp_path, capsys):
    """Every subcommand computes all it was asked for before `run` writes
    anything, so a refusal, however late, leaves no output and prints no
    summary."""
    paths = {name: str(tmp_path / name) for name in ("out", "eye13", "eye20", "optimum", "spec")}
    os.mkdir(paths["out"])
    fm.write_problem(paths["eye13"], krn.explicit_gram(np.eye(13)))
    fm.write_problem(paths["eye20"], krn.explicit_gram(np.eye(20)))
    fm.write_measure(paths["optimum"], AtomicMeasure(((0, 0.4), (2, 0.6))))
    fm.write_json(paths["spec"], dict(_SPEC, covariance=[[1.0, 2.0], [2.0, 1.0]]))
    argv, code = _REFUSED[case]
    rc = cli.run([a.format(problem=problem_file, mask=ring_mask, **paths) for a in argv])
    captured = capsys.readouterr()
    assert rc == code, captured.err
    assert captured.out == "" and captured.err.startswith("error: ")
    assert os.listdir(paths["out"]) == []


# argv run in a directory holding p.json (a problem), capm.csv (returns) and
# mask.txt: each names one path twice, as input and output or as two outputs
_COLLIDING = {
    "portfolio returns named like its capm table": [
        "portfolio", "--returns", "capm.csv", "--output", "out.json"],
    "solve result and trace on one path": [
        "solve", "--input", "p.json", "--output", "r.json", "--trace", "r.json"],
    "solve result over its input": ["solve", "--input", "p.json", "--output", "p.json"],
    "maze field and conjugate on one path": [
        "maze", "--mask", "mask.txt", "--cell-size", "0.15", "--field-res", "8",
        "--field", "f.pgm", "--conjugate", "f.pgm"],
}


@pytest.mark.parametrize("case", sorted(_COLLIDING))
def test_an_output_may_not_replace_an_input_or_another_output(case, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.chdir(tmp_path)
    fm.write_problem("p.json", krn.euclidean(ZIGZAG_COORDS))
    (tmp_path / "capm.csv").write_text("a,b\n0.3,-0.1\n0.1,0.1\n0.2,0.0\n")
    (tmp_path / "mask.txt").write_text(ring_gap_text(n=16, cell=0.15))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc = cli.run(_COLLIDING[case])
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "output path names an input or another output" in captured.err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_annualize_is_refused_with_a_spec(tmp_path, capsys):
    """A spec carries its moments already annualized or not; the flag would
    be ignored, so it is refused before any work."""
    spec = tmp_path / "spec.json"
    fm.write_json(str(spec), _SPEC)
    out = tmp_path / "out.json"
    rc = cli.run(["portfolio", "--spec", str(spec), "--annualize", "252",
                  "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and "--annualize" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_a_write_that_fails_leaves_no_output(problem_file, tmp_path, capsys):
    """Every file is written to a temp file before any is renamed: a name
    too long for the file system is refused (exit 2) with neither the trace
    written before it nor a temp file left."""
    out = tmp_path / "out"
    out.mkdir()
    too_long = str(out / ("a" * 300))
    rc = cli.run(["solve", "--input", problem_file, "--trace", str(out / "t.csv"),
                  "--output", too_long])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: %s: cannot write: " % too_long)
    assert os.listdir(out) == []


@pytest.mark.parametrize("algorithm", slv.ALGORITHMS)
def test_a_gram_near_the_float_maximum_ends_in_a_documented_code(algorithm, tmp_path, capsys):
    """Symmetrizing the entry 1.7e308 as (a + a) / 2 overflowed to inf after
    the finite check, and G + sigma overflows in the support factor. Every
    solve is refused before its first step with exit 3, without a
    RuntimeWarning (an error here, as in the whole suite) or a traceback."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_problem({"type": "gram", "gram": [[1.7e308, 0.0], [0.0, 1.0]]})))
    rc = cli.run(["solve", "--input", str(path), "--algorithm", algorithm])
    err = capsys.readouterr().err
    assert rc == 3
    assert "overflows the support factor" in err and "Traceback" not in err


def _numeric_flags():
    """(subcommand, flag) for every int or float flag, and --escape-radius."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, command in sorted(sub.choices.items())
            for action in command._actions
            if action.type in (int, float) or "--escape-radius" in action.option_strings]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command,flag", _numeric_flags())
def test_numeric_flag_sweep(command, flag, value, problem_file, tmp_path, capsys):
    """Any value of a numeric flag ends in a documented exit code, and a
    non-finite one is bad input (exit 2) that writes nothing."""
    returns = tmp_path / "returns.csv"
    returns.write_text("a,b\n0.3,-0.1\n0.1,0.1\n0.2,0.0\n")
    mask = tmp_path / "mask.txt"
    mask.write_text(ring_gap_text(n=12, cell=0.2, r0=0.5, r1=0.9, gap_deg=60.0))
    field = tmp_path / "field.pgm"
    base = {
        "portfolio": ["--returns", str(returns)],
        "maze": ["--mask", str(mask), "--cell-size", "0.2", "--field-res", "8",
                 "--field", str(field), "--path", str(tmp_path / "path.csv")],
    }.get(command, ["--input", problem_file])
    rc = cli.run([command] + base + ["%s=%s" % (flag, value)])
    capsys.readouterr()
    assert rc in (0, 2, 3, 4)
    if not math.isfinite(float(value)):
        assert rc == 2
        assert not field.exists()


def test_max_iter_exhaustion_is_exit_4(problem_file, capsys):
    rc = cli.run(["solve", "--input", problem_file, "--algorithm", "greedy",
                  "--seed-point", "1", "--max-iter", "1"])
    assert rc == 4
    assert "hit max_iter 1" in capsys.readouterr().err


# -- determinism and input hygiene --------------------------------------------

def test_outputs_are_byte_identical_across_runs(problem_file, tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / ("r_%s.json" % tag)
        trace = tmp_path / ("t_%s.csv" % tag)
        rc = cli.run(["solve", "--input", problem_file,
                      "--output", str(out), "--trace", str(trace)])
        assert rc == 0
        capm, jc, sml = (tmp_path / ("%s_%s.csv" % (kind, tag)) for kind in ("capm", "jc", "sml"))
        rc = cli.run(["diagnose", "--input", problem_file, "--solution", str(out),
                      "--capm", str(capm), "--jc", str(jc), "--sml", str(sml)])
        assert rc == 0
        paths.append((out, trace, capm, jc, sml))
    for first, second in zip(*paths):
        assert first.read_bytes() == second.read_bytes()


def test_input_file_is_not_mutated(problem_file, tmp_path, capsys):
    before = open(problem_file, "rb").read()
    cli.run(["solve", "--input", problem_file, "--output", str(tmp_path / "r.json")])
    assert open(problem_file, "rb").read() == before


def test_trace_has_fixed_header(problem_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    cli.run(["solve", "--input", problem_file, "--trace", str(trace)])
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,objective,score,support_size,added_point,dropped_points"
    assert len(lines) >= 2


# -- deconstruct ---------------------------------------------------------------

def test_deconstruct_ordering_and_prefixes(problem_file, capsys):
    rc = cli.run(["deconstruct", "--input", problem_file, "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["index"] == [0, 2]
    assert payload["ordering"] == [0, 2]
    assert "ordering 0,2" in captured.err
    kern = krn.euclidean(ZIGZAG_COORDS)
    order = payload["ordering"]
    for k in range(1, len(order) + 1):
        assert slv.is_topiaric_index(kern, None, order[:k])


def test_deconstruct_seed_point_seeds_only_the_full_solve(problem_file, capsys):
    """Point 1 seeds the full solve; the subset solves behind the ordering
    start from their own default seed, so a seed outside a subset is no
    error."""
    rc = cli.run(["deconstruct", "--input", problem_file, "--seed-point", "1"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out.endswith(" ordering 0,2\n")


# -- diagnose -------------------------------------------------------------------

def test_diagnose_writes_all_reports(problem_file, tmp_path, capsys):
    result = tmp_path / "result.json"
    cli.run(["solve", "--input", problem_file, "--output", str(result)])
    capm = tmp_path / "capm.csv"
    jc = tmp_path / "jc.csv"
    sml = tmp_path / "sml.csv"
    rc = cli.run(["diagnose", "--input", problem_file, "--solution", str(result),
                  "--capm", str(capm), "--jc", str(jc), "--sml", str(sml)])
    assert rc == 0
    capm_lines = capm.read_text().splitlines()
    assert capm_lines[0] == "id,label,psi,mu,beta,alpha,in_index"
    assert len(capm_lines) == 4
    assert capm_lines[2].startswith("1,") and capm_lines[2].endswith("false")
    assert jc.read_text().splitlines()[0] == "x,y,d,psi_slope,mu_slope"
    preamble = sml.read_text().splitlines()[0]
    assert preamble.startswith("# ")
    head = json.loads(preamble[2:])
    assert abs(head["rate"] + 1.0) <= 1e-9


def test_diagnose_accepts_result_or_measure(problem_file, tmp_path, capsys):
    # a solver result and a bare measure with the same atoms diagnose the
    # same way (atom order may shift the last ulp, so compare numerically)
    result = tmp_path / "result.json"
    cli.run(["solve", "--input", problem_file, "--output", str(result)])
    measure = tmp_path / "measure.json"
    fm.write_measure(str(measure), AtomicMeasure(((0, 0.4), (2, 0.6))))
    tables = []
    for solution in (result, measure):
        capm = tmp_path / ("capm_%s.csv" % solution.stem)
        rc = cli.run(["diagnose", "--input", problem_file,
                      "--solution", str(solution), "--capm", str(capm)])
        assert rc == 0
        tables.append([row.split(",") for row in capm.read_text().splitlines()[1:]])
    for left, right in zip(*tables):
        assert left[0] == right[0] and left[6] == right[6]
        for col in (2, 3, 4, 5):
            assert abs(float(left[col]) - float(right[col])) <= 1e-12


def test_diagnose_base_flag_restricts_slope_rows(problem_file, tmp_path, capsys):
    solution = tmp_path / "optimum.json"
    fm.write_measure(str(solution), AtomicMeasure(((0, 0.4), (2, 0.6))))
    jc = tmp_path / "jc.csv"
    rc = cli.run(["diagnose", "--input", problem_file, "--solution", str(solution),
                  "--jc", str(jc), "--base", "0"])
    assert rc == 0
    rows = jc.read_text().splitlines()[1:]
    assert rows
    assert all(row.startswith("0,") for row in rows)


# -- portfolio ------------------------------------------------------------------

def test_portfolio_from_returns_writes_siblings(tmp_path, capsys):
    returns = tmp_path / "returns.csv"
    returns.write_text("asset_a,asset_b\n0.3,-0.1\n0.1,0.1\n0.2,0.0\n")
    outdir = tmp_path / "out"
    outdir.mkdir()
    out = outdir / "portfolio.json"
    rc = cli.run(["portfolio", "--returns", str(returns), "--risk-free", "0.02",
                  "--output", str(out)])
    assert rc == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "capm.csv", "portfolio.json", "sml.csv"]
    payload = json.loads(out.read_text())
    assert payload["format_version"] == 1
    assert payload["weights"][0]["label"] == "asset_a"
    assert payload["corrections"]["mean_shrink"] == 0
    assert payload["corrections"]["var_inflate"] == 0


def test_portfolio_spec_flag_overrides(tmp_path, capsys):
    spec = pf.PortfolioSpec(labels=("X",), mean=(0.10,), covariance=((0.08,),),
                            risk_free_rate=0.02)
    path = tmp_path / "spec.json"
    fm.write_json(str(path), fm.portfolio_spec_payload(spec))
    rc = cli.run(["portfolio", "--spec", str(path), "--var-inflate", "2.0", "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["corrections"]["var_inflate"] == 2
    assert payload["corrections"]["flagged"] == []
    weights = {e["label"]: e["weight"] for e in payload["weights"]}
    assert abs(weights["risk-free"] - 2 / 3) <= 1e-9
    assert abs(weights["X"] - 1 / 3) <= 1e-9


def test_portfolio_reference_flag(tmp_path, capsys):
    spec = pf.PortfolioSpec(labels=("X",), mean=(0.10,), covariance=((0.08,),))
    path = tmp_path / "spec.json"
    fm.write_json(str(path), fm.portfolio_spec_payload(spec))
    ref = tmp_path / "ref.json"
    fm.write_measure(str(ref), AtomicMeasure(((0, 1.0),)))
    rc = cli.run(["portfolio", "--spec", str(path), "--reference", str(ref), "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert abs(payload["adaptive_constant"] + 0.04) <= 1e-12


# -- maze -----------------------------------------------------------------------

def test_maze_example_escapes(ring_mask, tmp_path, capsys):
    path_csv = tmp_path / "path.csv"
    field = tmp_path / "field.pgm"
    rc = cli.run(["maze", "--mask", ring_mask, "--cell-size", "0.05",
                  "--path", str(path_csv), "--field", str(field)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = path_csv.read_text().splitlines()
    assert lines[0] == "x,y"
    assert lines[-1] == "# status: escaped"
    assert len(lines) >= 3
    pgm = field.read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == "256 256"
    assert "trichotomy solved" in captured.out
    assert "path escaped" in captured.out


def test_maze_on_an_ill_conditioned_ring_exits_0(tmp_path, capsys):
    """The benchmark ring of seed 25, whose exchange step once collapsed
    (exit 3), solves and escapes."""
    mask = tmp_path / "ring25.txt"
    mask.write_text("".join(
        "".join("#" if c else "." for c in row) + "\n" for row in seeded_ring_mask(25)))
    path_csv = tmp_path / "path.csv"
    rc = cli.run(["maze", "--mask", str(mask), "--cell-size", "0.05", "--path", str(path_csv)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "trichotomy solved" in captured.out
    assert path_csv.read_text().endswith("# status: escaped\n")


def test_the_benchmark_maze_job_holds_little_beyond_its_gram(tmp_path, capsys):
    """The maze-ring job (seed 301, 700 cells) with fields and path peaks
    under the 3.9 MB that a Gram over every cell would take: the solve
    builds its Gram on the boundary cells, and no n^2 or per-pixel
    temporary comes on the way."""
    mask = tmp_path / "ring301.txt"
    mask.write_text("".join(
        "".join("#" if c else "." for c in row) + "\n" for row in seeded_ring_mask(301)))
    argv = ["maze", "--mask", str(mask), "--cell-size", "0.05",
            "--field", str(tmp_path / "field.pgm"), "--conjugate", str(tmp_path / "conj.pgm"),
            "--path", str(tmp_path / "path.csv"), "--json"]
    codes = []
    peak = peak_bytes(lambda: codes.append(cli.run(argv)))
    captured = capsys.readouterr()
    assert codes == [0], captured.err
    n = json.loads(captured.out)["cells"]
    assert n == 700
    assert peak < 8 * n * n


def test_the_benchmark_maze_job_peaks_at_its_solve(tmp_path, capsys):
    """After the solve the maze job holds no Gram: the job (seed 301) peaks
    no higher than its larger phase alone, the solve or drawing both
    fields; tracing the path adds nothing."""
    ring = seeded_ring_mask(301)
    mask = tmp_path / "ring301.txt"
    mask.write_text("".join("".join("#" if c else "." for c in row) + "\n" for row in ring))
    argv = ["maze", "--mask", str(mask), "--cell-size", "0.05",
            "--field", str(tmp_path / "field.pgm"), "--conjugate", str(tmp_path / "conj.pgm"),
            "--path", str(tmp_path / "path.csv")]
    spec = mz.MazeSpec(mask=ring, cell_size=0.05)
    solved = []
    solve_peak = peak_bytes(lambda: solved.append(mz.solve_maze(spec)))
    fields_peak = peak_bytes(lambda: mz.fields(solved[0]))
    codes = []
    job_peak = peak_bytes(lambda: codes.append(cli.run(argv)))
    assert codes == [0], capsys.readouterr().err
    assert job_peak <= 1.1 * max(solve_peak, fields_peak)


def test_the_benchmark_maze_job_holds_no_complex_grid(tmp_path, capsys):
    """The maze job (seed 301) peaks below its solve plus the two float value
    arrays of 256^2 fields: G is formed in bands, the values go before the
    rasters are encoded, and the encoding holds no word per pixel."""
    ring = seeded_ring_mask(301)
    mask = tmp_path / "ring301.txt"
    mask.write_text("".join("".join("#" if c else "." for c in row) + "\n" for row in ring))
    argv = ["maze", "--mask", str(mask), "--cell-size", "0.05",
            "--field", str(tmp_path / "field.pgm"), "--conjugate", str(tmp_path / "conj.pgm"),
            "--path", str(tmp_path / "path.csv")]
    solve_peak = peak_bytes(lambda: mz.solve_maze(mz.MazeSpec(mask=ring, cell_size=0.05)))
    codes = []
    job_peak = peak_bytes(lambda: codes.append(cli.run(argv)))
    assert codes == [0], capsys.readouterr().err
    assert job_peak < solve_peak + 2 * 8 * 256 * 256


def test_maze_bad_escape_radius(ring_mask, capsys):
    rc = cli.run(["maze", "--mask", ring_mask, "--cell-size", "0.05",
                  "--escape-radius", "banana"])
    assert rc == 2
    assert "escape radius" in capsys.readouterr().err


def test_maze_bad_target(ring_mask, capsys):
    rc = cli.run(["maze", "--mask", ring_mask, "--cell-size", "0.05",
                  "--target", "1.0"])
    assert rc == 2
    assert "target" in capsys.readouterr().err


def test_maze_target_flag(tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    mask.write_text(ring_gap_text(n=12, cell=0.2, r0=0.5, r1=0.9, gap_deg=60.0))
    argv = ["maze", "--mask", str(mask), "--cell-size", "0.2", "--target"]
    assert cli.run(argv + ["0.1,0.2"]) == 0, capsys.readouterr().err
    for bad in ("1", "a,b", "nan,0"):
        rc = cli.run(argv + [bad])
        assert rc == 2, bad
        assert "target" in capsys.readouterr().err


def test_cached_parser_carries_nothing_between_runs(problem_file, ring_mask, capsys,
                                                    monkeypatch):
    """build_parser runs once per process. A bad flag, a solve, then a bad
    maze target, in one process: each returns and prints what it does in a
    fresh process, and each command sees the namespace a fresh parser
    gives."""
    monkeypatch.delenv("TOPIARY_LOG", raising=False)
    seen = []
    for name, command in list(cli._COMMANDS.items()):
        def spy(args, command=command):
            seen.append(vars(args))
            return command(args)
        monkeypatch.setitem(cli._COMMANDS, name, spy)
    runs = [["solve", "--input", problem_file, "--no-such-flag"],
            ["solve", "--input", problem_file, "--max-iter", "50"],
            ["maze", "--mask", ring_mask, "--cell-size", "0.05", "--target", "a,b"]]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for argv, code in zip(runs, (2, 0, 2)):
        assert cli.run(argv) == code
        here = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "topiary"] + argv,
                               capture_output=True, text=True, cwd=root)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, here.out, here.err)
    assert cli.build_parser() is cli.build_parser()
    fresh_parser = cli.build_parser.__wrapped__()
    assert seen == [vars(fresh_parser.parse_args(argv)) for argv in runs[1:]]


# -- module entry point ----------------------------------------------------------

def test_python_dash_m_with_logging(problem_file):
    """TOPIARY_LOG=info logs the problem line on stderr and leaves stdout as
    an unlogged run prints it; an unknown level warns and falls back to
    warn. A subprocess, because logging.basicConfig does nothing once
    pytest has configured the root logger."""
    def run(level):
        env = dict(os.environ)
        env.pop("TOPIARY_LOG", None)
        if level is not None:
            env["TOPIARY_LOG"] = level
        proc = subprocess.run(
            [sys.executable, "-m", "topiary", "solve", "--input", problem_file],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    plain, info, bogus = run(None), run("info"), run("bogus")
    assert info.stdout.startswith("solve: objective ")
    assert "INFO topiary:" in info.stderr
    assert "3 points" in info.stderr
    assert plain.stderr == ""
    assert info.stdout == plain.stdout == bogus.stdout
    assert "INFO topiary: problem: 3 points, kernel euclidean\n" in info.stderr
    assert "WARNING topiary: TOPIARY_LOG='bogus' not recognized; using warn\n" in bogus.stderr
    assert "INFO" not in bogus.stderr


def test_debug_log_names_the_psd_gates_route(problem_file, tmp_path):
    """TOPIARY_LOG=debug logs one gate line per Gram: a Fock Gram the
    rounding bound proves gives the bound against the floor, and a
    Euclidean Gram the lowest eigenvalue eigvalsh found."""
    fock_file = tmp_path / "fock.json"
    fm.write_problem(str(fock_file), krn.fock([0.5 + 0j, -0.2 + 0.1j, 0.3j]))
    env = dict(os.environ, TOPIARY_LOG="debug")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lines = {}
    for name, path in (("fock", str(fock_file)), ("euclidean", problem_file)):
        proc = subprocess.run([sys.executable, "-m", "topiary", "solve", "--input", path],
                              capture_output=True, text=True, env=env, cwd=root)
        assert proc.returncode == 0, proc.stderr
        lines[name] = [line for line in proc.stderr.splitlines()
                       if line.startswith("DEBUG topiary.kernel: psd gate: ")]
    assert len(lines["fock"]) == len(lines["euclidean"]) == 1
    assert " rounding bound " in lines["fock"][0] and "no eigvalsh" in lines["fock"][0]
    assert " lowest eigenvalue " in lines["euclidean"][0]


def test_the_runtime_needs_no_scipy(problem_file, ring_mask, tmp_path):
    """With `scipy` unimportable (`sys.modules["scipy"] = None`), solve,
    portfolio and maze each run to exit 0 in a fresh interpreter: the
    package runs on numpy alone."""
    returns = tmp_path / "returns.csv"
    returns.write_text("asset_a,asset_b\n0.3,-0.1\n0.1,0.1\n0.2,0.0\n")
    runs = {
        "solve": ["solve", "--input", problem_file],
        "portfolio": ["portfolio", "--returns", str(returns), "--risk-free", "0.02"],
        "maze": ["maze", "--mask", ring_mask, "--cell-size", "0.05", "--path",
                 str(tmp_path / "path.csv")],
    }
    script = ("import sys; sys.modules['scipy'] = None; "
              "from topiary.cli import main; main(sys.argv[1:])")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p))
    for name, argv in runs.items():
        proc = subprocess.run([sys.executable, "-c", script] + argv, capture_output=True,
                              text=True, env=env, cwd=str(tmp_path), timeout=120)
        assert proc.returncode == 0, (name, proc.stderr)
