"""Workload generators, CLI jobs and output checks for the benchmark.

Each workload is built from a seed with numpy alone: the generator writes
the input files the program reads and keeps the arrays it made them from,
so the checks can recompute the optimality certificate independently of
the program. A job is a list of `topiary` command lines run back to back;
the check reads what the job wrote and says what, if anything, is wrong.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

MARGIN_TOL = 1e-8  # the CLI's default --tol
MAZE_SCORE_TOL = 1e-6  # the maze solver's margin tolerance

EUCLID_N, EUCLID_D = 2000, 8
GRAM_N = 600
PORTFOLIO_ASSETS, PORTFOLIO_ROWS, PORTFOLIO_FACTORS = 40, 250, 3
RISK_FREE = 0.0002
MAZE_GRID, MAZE_CELL = 120, 0.05
RING_INNER, RING_OUTER, RING_GAP_DEG = 0.85, 1.15, 25.0


@dataclass
class Workload:
    """Inputs of one workload, the reference data behind them, and its jobs."""

    name: str
    inputs: dict  # role -> path of a generated input file
    reference: dict = field(default_factory=dict)  # arrays for the checks

    def outputs(self, out_dir):
        return {role: os.path.join(out_dir, fname) for role, fname in OUTPUTS[self.name]}

    def job(self, out_dir):
        """The argv lists of one job; outputs land in out_dir."""
        return JOBS[self.name](self.inputs, self.outputs(out_dir))

    def check(self, out_dir, stdout):
        """Problems with one job's outputs; an empty list means correct."""
        return CHECKS[self.name](self, self.outputs(out_dir), stdout)


INPUTS = {
    "euclid-diagnose": {"problem": "problem.json"},
    "gram-exchange": {"problem": "problem.json"},
    "portfolio-returns": {"returns": "returns.csv"},
    "maze-ring": {"mask": "mask.txt"},
}


def locate(name, in_dir):
    """The workload whose inputs were already generated into in_dir; it has
    no reference data, so it can run jobs but not check them."""
    return Workload(name, _input_paths(name, in_dir))


def _input_paths(name, in_dir):
    return {role: os.path.join(in_dir, fname) for role, fname in INPUTS[name].items()}


def _rng(seed, name):
    # one independent stream per (seed, workload)
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), key])


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _problem(kernel_block, psi):
    return {"format_version": 1, "kernel": kernel_block, "psi": psi.tolist()}


# -- generators ----------------------------------------------------------------

def gen_euclid(seed, in_dir):
    rng = _rng(seed, "euclid-diagnose")
    points = rng.standard_normal((EUCLID_N, EUCLID_D))
    psi = rng.uniform(-1.0, 1.0, EUCLID_N)
    inputs = _input_paths("euclid-diagnose", in_dir)
    _write_json(inputs["problem"],
                _problem({"type": "euclidean", "points": points.tolist()}, psi))
    return Workload("euclid-diagnose", inputs, {"gram": points @ points.T, "psi": psi})


def gen_gram(seed, in_dir):
    rng = _rng(seed, "gram-exchange")
    a = rng.standard_normal((GRAM_N, GRAM_N + 2))
    gram = a @ a.T
    gram = (gram + gram.T) / 2.0
    psi = rng.uniform(-1.0, 1.0, GRAM_N)
    inputs = _input_paths("gram-exchange", in_dir)
    _write_json(inputs["problem"], _problem({"type": "gram", "gram": gram.tolist()}, psi))
    return Workload("gram-exchange", inputs, {"gram": gram, "psi": psi})


def gen_portfolio(seed, in_dir):
    """Daily returns from a factor model, written with 6 decimals."""
    rng = _rng(seed, "portfolio-returns")
    n, rows, k = PORTFOLIO_ASSETS, PORTFOLIO_ROWS, PORTFOLIO_FACTORS
    loadings = rng.uniform(0.2, 1.5, (n, k))
    factors = rng.normal(0.0, 0.01, (rows, k))
    idio = rng.normal(0.0, 0.03, (rows, n)) * rng.uniform(0.8, 1.2, n)
    drift = rng.uniform(0.0, 0.001, n)
    returns = factors @ loadings.T + idio + drift
    cells = [["%.6f" % v for v in row] for row in returns]
    labels = ["A%02d" % j for j in range(n)]
    inputs = _input_paths("portfolio-returns", in_dir)
    with open(inputs["returns"], "w", encoding="utf-8") as handle:
        handle.write(",".join(labels) + "\n")
        handle.writelines(",".join(row) + "\n" for row in cells)
    # the program sees only the rounded text, so the reference moments do too
    table = np.array([[float(c) for c in row] for row in cells])
    cov = np.zeros((n + 1, n + 1))  # cash: the zero row and column
    cov[:n, :n] = np.cov(table, rowvar=False, ddof=1)
    psi = np.append(table.mean(axis=0), RISK_FREE)
    return Workload("portfolio-returns", inputs, {"gram": cov, "psi": psi})


def ring_mask(seed):
    """Annulus of obstacle cells with one gap at a seed-drawn angle."""
    rng = _rng(seed, "maze-ring")
    gap = rng.uniform(0.0, 360.0)
    centre = (np.arange(MAZE_GRID) - (MAZE_GRID - 1) / 2.0) * MAZE_CELL
    x = centre[None, :]
    y = -centre[:, None]  # top row has the largest imaginary part
    radius = np.hypot(x, y)
    angle = np.degrees(np.arctan2(y, x))
    off = np.abs((angle - gap + 180.0) % 360.0 - 180.0)
    return (radius >= RING_INNER) & (radius <= RING_OUTER) & (off > RING_GAP_DEG / 2.0)


def gen_maze(seed, in_dir):
    mask = ring_mask(seed)
    inputs = _input_paths("maze-ring", in_dir)
    with open(inputs["mask"], "w", encoding="utf-8") as handle:
        handle.writelines("".join("#" if c else "." for c in row) + "\n" for row in mask)
    return Workload("maze-ring", inputs, {"cells": int(mask.sum())})


GENERATORS = {
    "euclid-diagnose": gen_euclid,
    "gram-exchange": gen_gram,
    "portfolio-returns": gen_portfolio,
    "maze-ring": gen_maze,
}

# -- jobs ----------------------------------------------------------------------

OUTPUTS = {
    "euclid-diagnose": [("result", "result.json"), ("capm", "capm.csv"),
                        ("jc", "jc.csv"), ("sml", "sml.csv")],
    "gram-exchange": [("result", "result.json")],
    "portfolio-returns": [("portfolio", "portfolio.json"), ("capm", "capm.csv"),
                          ("sml", "sml.csv")],
    "maze-ring": [("field", "field.pgm"), ("conjugate", "conjugate.pgm"),
                  ("path", "path.csv")],
}

JOBS = {
    "euclid-diagnose": lambda i, o: [
        ["solve", "--input", i["problem"], "--output", o["result"]],
        ["diagnose", "--input", i["problem"], "--solution", o["result"],
         "--capm", o["capm"], "--jc", o["jc"], "--sml", o["sml"]],
    ],
    "gram-exchange": lambda i, o: [
        ["solve", "--input", i["problem"], "--output", o["result"]],
    ],
    "portfolio-returns": lambda i, o: [
        ["portfolio", "--returns", i["returns"], "--risk-free", repr(RISK_FREE),
         "--output", o["portfolio"]],
    ],
    # --json puts the maze payload (trichotomy, score, status) on stdout
    "maze-ring": lambda i, o: [
        ["maze", "--mask", i["mask"], "--cell-size", repr(MAZE_CELL),
         "--field", o["field"], "--conjugate", o["conjugate"], "--path", o["path"],
         "--json"],
    ],
}


# -- checks --------------------------------------------------------------------

def certificate_problems(gram, psi, weights, tol=MARGIN_TOL):
    """Recompute the margins of a weighted support and test the certificate.

    weights maps point id -> weight. The certificate holds when every margin
    is at most tol and every support margin is at least -tol.
    """
    if not weights:
        return ["no weights in the output"]
    ids = np.array(sorted(weights), dtype=int)
    w = np.array([weights[i] for i in ids])
    if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
        return ["weights are not a probability measure (sum %.17g)" % w.sum()]
    mu = gram[:, ids] @ w
    rate = float(psi[ids] @ w - w @ mu[ids])
    margins = psi - mu - rate
    problems = []
    if margins.max() > tol:
        problems.append("max margin %.3g > %.0e at point %d"
                        % (margins.max(), tol, int(margins.argmax())))
    if margins[ids].min() < -tol:
        problems.append("support margin %.3g < -%.0e" % (margins[ids].min(), tol))
    return problems


def _load_weights(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {int(e["point"]): float(e["weight"]) for e in payload["weights"]}


def _csv_rows(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]


def _certificate(wl, path):
    return certificate_problems(wl.reference["gram"], wl.reference["psi"],
                                _load_weights(path))


def check_euclid(wl, out, stdout):
    problems = _certificate(wl, out["result"])
    n = len(wl.reference["psi"])
    for role in ("capm", "sml"):
        rows = len(_csv_rows(out[role])) - 1
        if rows != n:
            problems.append("%s has %d rows, expected %d" % (role, rows, n))
    if len(_csv_rows(out["jc"])) < 2:
        problems.append("jc report is empty")
    return problems


def check_maze(wl, out, stdout):
    payload = json.loads(stdout)
    problems = []
    if payload["trichotomy"] != "solved":
        problems.append("trichotomy %r" % payload["trichotomy"])
    if not payload["score"] <= MAZE_SCORE_TOL:
        problems.append("score %.3g > %.0e" % (payload["score"], MAZE_SCORE_TOL))
    if payload["status"] != "escaped":
        problems.append("path status %r" % payload["status"])
    if payload["cells"] != wl.reference["cells"]:
        problems.append("%d cells, mask has %d" % (payload["cells"], wl.reference["cells"]))
    with open(out["path"], "r", encoding="utf-8") as handle:
        if not handle.read().endswith("# status: escaped\n"):
            problems.append("path CSV does not end escaped")
    return problems


CHECKS = {
    "euclid-diagnose": check_euclid,
    "gram-exchange": lambda wl, out, stdout: _certificate(wl, out["result"]),
    "portfolio-returns": lambda wl, out, stdout: _certificate(wl, out["portfolio"]),
    "maze-ring": check_maze,
}


def output_digest(paths, stdout=""):
    """sha256 over the job's output files (by role) and its standard output."""
    digest = hashlib.sha256()
    for role in sorted(paths):
        digest.update(role.encode() + b"\0")
        with open(paths[role], "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    digest.update(stdout.encode())
    return digest.hexdigest()
