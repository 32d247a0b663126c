"""Deterministic file I/O: JSON/CSV writers, mask and PGM codecs.

Two hard requirements hold for every writer here: identical inputs produce
byte-identical output (floats at 17 significant digits, fixed key and row
orders, bare "\\n" line endings) and files land atomically (temp file in
the target directory, then rename). Readers check the JSON structure
(objects, lists, required keys) and hand every number, raw, to the
constructor that owns it; any InvalidInput carries the file name, and
nothing is silently repaired.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np

from .errors import InvalidInput
from . import diagnostics as dgn
from . import kernel as krn
from . import measure as msr
from . import objective as obj
from . import portfolio as pf

FORMAT_VERSION = 1


# -- float and JSON rendering ----------------------------------------------

def fmt(x):
    """17 significant digits; enough to round-trip a double exactly."""
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInput("non-finite value %r in output" % x)
    return format(x, ".17g")


def _render(value, indent):
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = " " * (indent + 2)
        items = (
            "%s%s: %s" % (pad, json.dumps(str(k)), _render(v, indent + 2))
            for k, v in value.items()
        )
        return "{\n%s\n%s}" % (",\n".join(items), " " * indent)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_render(v, indent + 2) for v in value]
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in value):
            return "[%s]" % ", ".join(items)
        pad = " " * (indent + 2)
        return "[\n%s\n%s]" % (",\n".join(pad + it for it in items), " " * indent)
    raise InvalidInput("cannot serialize %r" % type(value).__name__)


def json_dumps(payload):
    """Pretty JSON with deterministic float text and key order as given."""
    return _render(payload, 0) + "\n"


# -- atomic writes ----------------------------------------------------------

def atomic_write_bytes(path, data):
    """Write via a sibling temp file and rename; no torn output on crash."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, payload):
    atomic_write_text(path, json_dumps(payload))


@contextlib.contextmanager
def _named(path):
    """Put the file name in front of any InvalidInput raised inside."""
    try:
        yield
    except InvalidInput as exc:
        exc.args = ("%s: %s" % (path, exc),)
        raise


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InvalidInput("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(payload, dict):
        raise InvalidInput("%s: top level must be a JSON object" % path)
    version = payload.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise InvalidInput(
            "%s: format_version %r is not supported (expected %d)"
            % (path, version, FORMAT_VERSION)
        )
    return payload


# -- problem JSON ------------------------------------------------------------

def _coord_pairs(kern):
    coords = kern.coords
    if kern.variant == "euclidean":
        return [[float(c) for c in row] for row in np.atleast_2d(coords)]
    return [[float(z.real), float(z.imag)] for z in coords]


def problem_payload(kern, psi=None):
    block = {"type": "gram" if kern.variant == "explicit-gram" else kern.variant}
    if kern.variant == "explicit-gram":
        block["gram"] = [[float(v) for v in row] for row in kern.gram]
    else:
        block["points"] = _coord_pairs(kern)
    labels = kern.labels()
    if any(lab is not None for lab in labels):
        block["labels"] = labels
    psi = obj.as_psi(psi, kern)
    return {
        "format_version": FORMAT_VERSION,
        "kernel": block,
        "psi": [float(v) for v in psi.values],
    }


def write_problem(path, kern, psi=None):
    write_json(path, problem_payload(kern, psi))


# -- readers -------------------------------------------------------------------

def _atoms(raw, field):
    """(point id, weight) pairs, unchecked, from a list of {"point", "weight"}
    objects."""
    if not (isinstance(raw, list) and all(
            isinstance(e, dict) and "point" in e and "weight" in e for e in raw)):
        raise InvalidInput("%s must be a list of {point, weight} objects" % field)
    return tuple((e["point"], e["weight"]) for e in raw)


def read_problem(path):
    """Load a problem file, returning (Kernel, PsiSpec)."""
    payload = _load_json(path)
    with _named(path):
        block = payload.get("kernel")
        if not isinstance(block, dict):
            raise InvalidInput("missing kernel object")
        ktype, labels = block.get("type"), block.get("labels")
        if ktype == "gram":
            kern = krn.explicit_gram(block.get("gram"), labels=labels)
        elif ktype in ("euclidean", "fock", "hardy"):
            kern = getattr(krn, ktype)(block.get("points"), labels=labels)
        else:
            raise InvalidInput("unknown kernel type %r" % (ktype,))
        return kern, obj.as_psi(payload.get("psi"), kern)


# -- measure JSON ------------------------------------------------------------

def measure_payload(measure):
    atoms = sorted(measure.atoms)
    return {
        "format_version": FORMAT_VERSION,
        "kind": measure.kind,
        "atoms": [{"point": i, "weight": w} for i, w in atoms],
    }


def write_measure(path, measure):
    write_json(path, measure_payload(measure))


def read_measure(path):
    """A measure file (atoms and kind), or a result file whose weights are
    the solved probability measure."""
    payload = _load_json(path)
    field = "atoms" if "atoms" in payload else "weights"
    with _named(path):
        if field not in payload:
            raise InvalidInput("has neither atoms nor weights")
        kind = payload.get("kind", msr.PROBABILITY)
        return msr.AtomicMeasure(_atoms(payload[field], field), kind=kind)


# -- result JSON -------------------------------------------------------------

def _weight_entries(measure, labels):
    entries = sorted(measure.atoms, key=lambda iw: (-iw[1], iw[0]))
    return [
        {"point": i, "label": labels[i] if labels else None, "weight": w}
        for i, w in entries
    ]


def result_payload(result, kern):
    return {
        "format_version": FORMAT_VERSION,
        "weights": _weight_entries(result.measure, kern.labels()),
        "objective": result.objective,
        "rate": result.rate,
        "score": result.score,
        "index": [int(i) for i in result.index],
        "iterations": result.iterations,
        "algorithm": result.algorithm,
    }


def write_result(path, result, kern):
    write_json(path, result_payload(result, kern))


# -- CSV helpers -------------------------------------------------------------

def _cell(value):
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    return str(value)


def _csv_text(header, rows, preamble=None):
    out = io.StringIO()
    if preamble:
        out.write(preamble)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return out.getvalue()


def trace_csv(trace):
    rows = (
        (
            row.iteration,
            row.objective,
            row.score,
            row.support_size,
            "" if row.added_point is None else row.added_point,
            ";".join(str(i) for i in row.dropped_points),
        )
        for row in trace
    )
    return _csv_text(
        ("iteration", "objective", "score", "support_size", "added_point", "dropped_points"),
        rows,
    )


def write_trace(path, trace):
    atomic_write_text(path, trace_csv(trace))


def margin_csv(measure, psi, kern):
    """Full margin table: every ground point with its CAPM coordinates."""
    iota = obj.margins(measure, psi, kern)
    rows = (
        (r.point_id, "" if r.label is None else r.label, r.psi, r.mu_value,
         iota[r.point_id], r.beta, r.alpha_margin)
        for r in dgn.capm_report(measure, kern, psi)
    )
    return _csv_text(("point", "label", "psi", "mu", "margin", "beta", "alpha"), rows)


def capm_csv(rows):
    data = (
        (
            row.point_id,
            "" if row.label is None else row.label,
            row.psi,
            row.mu_value,
            row.beta,
            row.alpha_margin,
            row.in_index,
        )
        for row in rows
    )
    return _csv_text(("id", "label", "psi", "mu", "beta", "alpha", "in_index"), data)


def jc_csv(rows):
    data = ((r.x, r.y, r.d, r.psi_slope, r.mu_slope) for r in rows)
    return _csv_text(("x", "y", "d", "psi_slope", "mu_slope"), data)


def sml_csv(report):
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "rate": float(report.rate),
            "mu_norm": float(report.mu_norm),
            "objective": float(report.objective),
        }
    )
    data = (
        (p.point_id, p.x_coord, p.y_coord, p.classification) for p in report.points
    )
    return _csv_text(("id", "mu", "psi", "class"), data, preamble="# %s\n" % header)


# -- portfolio ----------------------------------------------------------------

def portfolio_spec_payload(spec):
    return {
        "format_version": FORMAT_VERSION,
        "labels": list(spec.labels),
        "mean": [float(v) for v in spec.mean],
        "covariance": [[float(v) for v in row] for row in spec.covariance],
        "risk_free_rate": spec.risk_free_rate,
        "mean_shrink": spec.mean_shrink,
        "var_inflate": spec.var_inflate,
        "annualize_factor": spec.annualize_factor,
        "rf_index": spec.rf_index,
        "reference": None
        if spec.reference is None
        else measure_payload(spec.reference)["atoms"],
    }


def read_portfolio_spec(path):
    payload = _load_json(path)
    with _named(path):
        for key in ("labels", "mean", "covariance"):
            if key not in payload:
                raise InvalidInput("portfolio spec needs %r" % key)
        fields = {f.name: payload[f.name] for f in dataclasses.fields(pf.PortfolioSpec)
                  if payload.get(f.name) is not None}
        if "reference" in fields:
            fields["reference"] = msr.AtomicMeasure(_atoms(fields["reference"], "reference"))
        return pf.PortfolioSpec(**fields)


def portfolio_payload(report):
    spec_echo = portfolio_spec_payload(report.spec)
    del spec_echo["format_version"]
    return {
        "format_version": FORMAT_VERSION,
        "spec": spec_echo,
        "corrections": {
            "mean_shrink": report.corrections[0],
            "var_inflate": report.corrections[1],
            "flagged": [int(i) for i in report.flagged],
        },
        "weights": [
            {"label": label, "point": i, "weight": w}
            for label, i, w in report.weights
        ],
        "rate": report.rate,
        "variance": report.variance,
        "objective": report.result.objective,
        "score": report.result.score,
        "iterations": report.result.iterations,
        "algorithm": report.result.algorithm,
        "adaptive_constant": report.adaptive_constant,
    }


def write_portfolio(path, report):
    write_json(path, portfolio_payload(report))


def read_returns(path):
    """returns.csv: header of labels, then one row of decimals per period.

    Cells stay raw; ingest_returns owns numeric validation so its errors
    carry file coordinates.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput("cannot read %s: %s" % (path, exc))
    if not rows:
        raise InvalidInput("%s: empty returns file" % path)
    labels = tuple(cell.strip() for cell in rows[0])
    if any(not lab for lab in labels):
        raise InvalidInput("%s: blank label in header" % path)
    body = tuple(tuple(cell.strip() for cell in row) for row in rows[1:])
    return pf.ReturnsTable(labels=labels, rows=body)


# -- maze artifacts ------------------------------------------------------------

def read_mask(path):
    """Obstacle mask from a '#'/'.' grid or a P1 PBM (1 = obstacle)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput("cannot read %s: %s" % (path, exc))
    lines = [ln.rstrip() for ln in text.splitlines()]
    stripped = [ln for ln in lines if ln.strip()]
    if not stripped:
        raise InvalidInput("%s: empty mask file" % path)
    if stripped[0].strip() == "P1":
        return _read_pbm(path, text)
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = line.strip()
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise InvalidInput(
                "%s: line %d has %d cells, expected %d"
                % (path, lineno, len(cells), width)
            )
        row = []
        for col, ch in enumerate(cells):
            if ch == "#":
                row.append(True)
            elif ch == ".":
                row.append(False)
            else:
                raise InvalidInput(
                    "%s: line %d column %d: %r is not '#' or '.'"
                    % (path, lineno, col + 1, ch)
                )
        rows.append(row)
    return np.array(rows, dtype=bool)


def _read_pbm(path, text):
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P1":
        raise InvalidInput("%s: not a P1 PBM" % path)
    try:
        width, height = int(tokens[1]), int(tokens[2])
        bits = [int(t) for t in tokens[3:]]
    except (IndexError, ValueError):
        raise InvalidInput("%s: malformed PBM header or bitmap" % path)
    if len(bits) != width * height or any(b not in (0, 1) for b in bits):
        raise InvalidInput(
            "%s: PBM needs %d binary cells, got %d" % (path, width * height, len(bits))
        )
    return np.array(bits, dtype=bool).reshape(height, width)


def pgm_text(raster):
    """P2 PGM, maxval 255, top raster row first, lines kept within 70 chars."""
    raster = np.asarray(raster)
    if raster.ndim != 2:
        raise InvalidInput("PGM raster must be 2-D")
    height, width = raster.shape
    flat = [str(int(v)) for v in raster.reshape(-1)]
    lines = ["P2", "%d %d" % (width, height), "255"]
    for start in range(0, len(flat), 17):
        lines.append(" ".join(flat[start:start + 17]))
    return "\n".join(lines) + "\n"


def write_pgm(path, raster):
    atomic_write_text(path, pgm_text(raster))


def path_csv(trace):
    """Path CSV: x,y per step, terminal comment line carrying the status."""
    rows = ((float(z.real), float(z.imag)) for z in trace.points)
    body = _csv_text(("x", "y"), rows)
    return body + "# status: %s\n" % trace.status


def write_path(path, trace):
    atomic_write_text(path, path_csv(trace))


def maze_payload(mres, trace=None):
    res = mres.result
    return {
        "format_version": FORMAT_VERSION,
        "rescale_factor": mres.scale,
        "escape_radius": mres.escape_radius,
        "trichotomy": mres.trichotomy,
        "cells": len(mres.points),
        "support_size": len(res.support()),
        "objective": res.objective,
        "rate": res.rate,
        "score": res.score,
        "iterations": res.iterations,
        "status": None if trace is None else trace.status,
        "clearance": None if trace is None else trace.clearance,
        "steps": None if trace is None else len(trace.points),
    }
