"""Command line front end.

One executable, six subcommands, file-based I/O. Every run prints a one
line summary (objective, rate, score, support size) and exits with a code
classifying any failure: 2 bad input, 3 numerical trouble, 4 ran out of
iterations, 5 broken invariant (always a bug). Machine-readable JSON goes
to files, or to standard output under --json, never mixed into the summary
stream. TOPIARY_LOG={error,warn,info,debug} turns on diagnostics on
standard error.

Output is one decision, made in `run`: a subcommand reads and computes,
then returns its summary, its payload and the text of each file asked for;
only then does `run` write the files and print. The files go to temp files
first and are renamed once all are written, so a refused run, whatever its
exit code, leaves none of its outputs, and a write that fails is refused
(exit 2) like any other. An output path that names a directory, an input or
another output is refused before any work, like a missing input.
"""

import argparse
import functools
import logging
import os
import sys
from dataclasses import replace

from . import diagnostics as dgn
from . import formats as fm
from . import maze as mz
from . import objective as obj
from . import portfolio as pf
from . import solver as slv
from .errors import EmptyMask, InvalidInput, TopiaryError, exit_code_for

log = logging.getLogger("topiary")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging():
    raw = os.environ.get("TOPIARY_LOG", "")
    if not raw:
        return
    level = _LOG_LEVELS.get(raw.strip().lower())
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if level is None else level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if level is None:
        log.warning("TOPIARY_LOG=%r not recognized; using warn", raw)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parse_args reads it and
    never changes it."""
    parser = argparse.ArgumentParser(
        prog="topiary",
        description="Sparse optimal measures over kernel ground sets: "
        "solvers, diagnostics, portfolios, and harmonic mazes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    defaults = slv.SolveConfig()
    problem_flags = argparse.ArgumentParser(add_help=False)
    problem_flags.add_argument("--input", required=True, help="problem JSON")
    problem_flags.add_argument("--output", help="result JSON destination")
    problem_flags.add_argument(
        "--tol", type=float, default=defaults.margin_tol, help="margin tolerance"
    )
    problem_flags.add_argument("--json", action="store_true", help="machine JSON on stdout")
    solver_flags = argparse.ArgumentParser(add_help=False, parents=[problem_flags])
    solver_flags.add_argument(
        "--algorithm", choices=slv.ALGORITHMS, default=defaults.algorithm
    )
    solver_flags.add_argument("--max-iter", type=int, default=defaults.max_iter)
    solver_flags.add_argument("--trace", metavar="PATH", help="iteration trace CSV")
    solver_flags.add_argument("--seed-point", type=int, metavar="ID")

    sub.add_parser("solve", parents=[solver_flags], help="run an iterative solver")
    sub.add_parser("oracle", parents=[problem_flags], help="exhaustive small-problem optimum")
    sub.add_parser(
        "deconstruct",
        parents=[solver_flags],
        help="order the converged index so every prefix is an index",
    )

    p = sub.add_parser("diagnose", help="margin, CAPM, and slope reports")
    p.add_argument("--input", required=True, help="problem JSON")
    p.add_argument("--solution", required=True, help="measure or result JSON")
    p.add_argument("--capm", metavar="PATH", help="CAPM rows CSV")
    p.add_argument("--jc", metavar="PATH", help="slope pairs CSV")
    p.add_argument("--sml", metavar="PATH", help="security market line CSV")
    p.add_argument("--base", metavar="IDS", help="comma-separated base point ids")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("portfolio", help="long-only portfolio from returns or a spec")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--returns", metavar="PATH", help="returns CSV (header + periods)")
    src.add_argument("--spec", metavar="PATH", help="portfolio spec JSON")
    p.add_argument("--risk-free", type=float, metavar="R")
    p.add_argument("--mean-shrink", type=float, metavar="S")
    p.add_argument("--var-inflate", type=float, metavar="L")
    p.add_argument(
        "--annualize", type=int, metavar="N", help="periods per year, applied at ingestion"
    )
    p.add_argument("--reference", metavar="PATH", help="reference measure JSON")
    p.add_argument("--output", metavar="PATH", help="portfolio JSON (capm/sml CSVs beside it)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("maze", help="harmonic escape from an obstacle mask")
    p.add_argument("--mask", required=True, metavar="PATH", help="'#'/'.' grid or P1 PBM")
    p.add_argument("--cell-size", required=True, type=float, metavar="X")
    p.add_argument("--target", metavar="A,B", help="target point, default escape")
    p.add_argument("--escape-radius", default="auto", metavar="R|auto")
    p.add_argument("--field", metavar="PATH", help="potential PGM")
    p.add_argument("--field-res", type=int, default=256, metavar="N")
    p.add_argument("--conjugate", metavar="PATH", help="conjugate level-set PGM")
    p.add_argument("--path", metavar="PATH", help="gradient path CSV")
    p.add_argument("--step", type=float, metavar="SZ", help="path step, default cell/4")
    p.add_argument("--max-steps", type=int, default=10000, metavar="N")
    p.add_argument("--json", action="store_true")

    return parser


# -- shared plumbing ---------------------------------------------------------

def _check_paths(inputs, outputs):
    """Fail fast on missing inputs, output paths that name a directory, an
    input or an earlier output, and unwritable output directories."""
    for path in inputs:
        if path is not None and not os.path.isfile(path):
            raise InvalidInput("input file %s does not exist" % path)
    taken = {os.path.realpath(path) for path in inputs if path is not None}
    for path in outputs:
        if path is None:
            continue
        if os.path.isdir(path):
            raise InvalidInput("%s: output path is a directory" % path)
        real = os.path.realpath(path)
        if real in taken:
            raise InvalidInput("%s: output path names an input or another output" % path)
        taken.add(real)
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise InvalidInput("output directory %s does not exist" % parent)


def _asked(*outputs):
    """(path, text) for each (path, render) whose path was given; render()
    makes the text, so an output no one asked for costs nothing."""
    return [(path, render()) for path, render in outputs if path]


def _emit(summary, shown):
    """Summary to stdout, or, with the --json payload shown: payload stdout,
    summary stderr."""
    if shown is None:
        sys.stdout.write(summary + "\n")
    else:
        sys.stdout.write(shown)
        sys.stderr.write(summary + "\n")


def _summary(tag, objective, rate, score, support_size, extra=""):
    return "%s: objective %.12g rate %.12g score %.3g support %d%s" % (
        tag, objective, rate, score, support_size, extra)


def _solve_config(args):
    return slv.SolveConfig(
        algorithm=args.algorithm,
        margin_tol=args.tol,
        max_iter=args.max_iter,
        trace=args.trace is not None,
        seed_point=args.seed_point,
    )


# -- subcommands --------------------------------------------------------------
#
# Each reads and computes, then returns (summary, payload, files): files
# lists (path, text) for the outputs that were asked for. `run` writes them.

def _cmd_solve(args):
    _check_paths([args.input], [args.output, args.trace])
    kern, psi = fm.read_problem(args.input)
    log.info("problem: %d points, kernel %s", kern.n, kern.variant)
    result = slv.solve(kern, psi, _solve_config(args))
    log.info("converged in %d iterations", result.iterations)
    payload = fm.result_payload(result, kern)
    files = _asked((args.trace, lambda: fm.trace_csv(result.trace)),
                   (args.output, lambda: fm.json_dumps(payload)))
    return _summary("solve", result.objective, result.rate, result.score,
                    len(result.support())), payload, files


def _cmd_oracle(args):
    _check_paths([args.input], [args.output])
    kern, psi = fm.read_problem(args.input)
    result = slv.oracle_solve(kern, psi, config=slv.SolveConfig(margin_tol=args.tol))
    payload = fm.result_payload(result, kern)
    files = _asked((args.output, lambda: fm.json_dumps(payload)))
    return _summary("oracle", result.objective, result.rate, result.score,
                    len(result.support())), payload, files


def _cmd_deconstruct(args):
    _check_paths([args.input], [args.output, args.trace])
    kern, psi = fm.read_problem(args.input)
    cfg = _solve_config(args)
    result = slv.solve(kern, psi, cfg)
    ordering = slv.construction_ordering(kern, psi, result.index, cfg)
    payload = {
        "format_version": fm.FORMAT_VERSION,
        "index": [int(i) for i in result.index],
        "ordering": [int(i) for i in ordering],
        "objective": result.objective,
        "rate": result.rate,
        "score": result.score,
        "algorithm": result.algorithm,
    }
    extra = " ordering %s" % ",".join(str(i) for i in ordering)
    files = _asked((args.trace, lambda: fm.trace_csv(result.trace)),
                   (args.output, lambda: fm.json_dumps(payload)))
    return _summary("deconstruct", result.objective, result.rate, result.score,
                    len(result.support()), extra), payload, files


def _parse_base(raw):
    if not raw:
        return None
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInput("--base must list point ids, got %r" % raw) from None


def _cmd_diagnose(args):
    _check_paths([args.input, args.solution], [args.capm, args.jc, args.sml])
    kern, psi = fm.read_problem(args.input)
    measure = fm.read_measure(args.solution)
    table = obj.margin_table(measure, psi, kern)
    sml = dgn.sml_points(measure, kern, psi)
    files = _asked(
        (args.capm, lambda: fm.capm_csv(dgn.capm_report(measure, kern, psi))),
        (args.jc, lambda: fm.jc_csv(
            dgn.jc_report(measure, kern, psi, base_points=_parse_base(args.base)))),
        (args.sml, lambda: fm.sml_csv(sml)),
    )
    payload = {
        "format_version": fm.FORMAT_VERSION,
        "objective": table.objective,
        "rate": table.rate,
        "score": table.score,
        "support_size": len(measure.support()),
        "mu_norm": sml.mu_norm,
    }
    return _summary("diagnose", table.objective, table.rate, table.score,
                    len(measure.support())), payload, files


def _cmd_portfolio(args):
    if args.spec and args.annualize is not None:
        raise InvalidInput("--annualize applies at returns ingestion, not to --spec")
    outputs = []
    if args.output:
        outdir = os.path.dirname(os.path.abspath(args.output))
        outputs = [args.output] + [os.path.join(outdir, name) for name in ("capm.csv", "sml.csv")]
    _check_paths([args.returns, args.spec, args.reference], outputs)
    if args.returns:
        table = fm.read_returns(args.returns)
        with fm._named(args.returns):
            mean, cov = pf.ingest_returns(table, annualize_factor=args.annualize)
        spec = pf.PortfolioSpec(labels=table.labels, mean=mean, covariance=cov,
                                annualize_factor=args.annualize)
    else:
        spec = fm.read_portfolio_spec(args.spec)
    overrides = {}
    if args.risk_free is not None:
        overrides["risk_free_rate"] = args.risk_free
    if args.mean_shrink is not None:
        overrides["mean_shrink"] = args.mean_shrink
    if args.var_inflate is not None:
        overrides["var_inflate"] = args.var_inflate
    if args.reference is not None:
        overrides["reference"] = fm.read_measure(args.reference)
    if overrides:
        spec = replace(spec, **overrides)
    log.info("portfolio: %d assets, risk-free %s", spec.n, spec.risk_free_rate)
    report = pf.optimize_portfolio(spec)
    payload = fm.portfolio_payload(report)
    files = []
    if outputs:
        texts = (fm.json_dumps(payload), fm.capm_csv(report.capm), fm.sml_csv(report.sml))
        files = list(zip(outputs, texts))
    top = report.weights[0]
    extra = " top %s %.4f" % (top[0] if top[0] is not None else top[1], top[2])
    return _summary("portfolio", report.result.objective, report.rate, report.result.score,
                    len(report.weights), extra), payload, files


def _parse_target(raw):
    parts = raw.split(",")
    if len(parts) != 2:
        raise InvalidInput("target must be 'a,b', got %r" % raw)
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise InvalidInput("target coordinates must be numbers, got %r" % raw)


def _cmd_maze(args):
    _check_paths([args.mask], [args.field, args.conjugate, args.path])
    mask = fm.read_mask(args.mask)
    escape = args.escape_radius
    if escape != "auto":
        try:
            escape = float(escape)
        except ValueError:
            raise InvalidInput("escape radius must be a number or 'auto', got %r" % escape)
    target = None if args.target is None else _parse_target(args.target)
    with fm._named(args.mask, EmptyMask):
        spec = mz.MazeSpec(mask=mask, cell_size=args.cell_size, target=target,
                           escape_radius=escape)
    mres = mz.solve_maze(spec)
    res = mres.result
    log.info("maze: %d cells, trichotomy %s, support %d",
             len(mres.points), mres.trichotomy, len(res.support()))
    files = []
    if args.field or args.conjugate:
        # only the rasters are kept, so the fields' values are freed before encoding
        rasters = [f.raster for f in mz.fields(mres, resolution=args.field_res)]
        files = [(path, fm.pgm_text(r))
                 for path, r in zip((args.field, args.conjugate), rasters) if path]
    trace = None
    extra = " trichotomy %s" % mres.trichotomy
    if args.path:
        trace = mz.trace_path(mres, step_size=args.step, max_steps=args.max_steps)
        files.append((args.path, fm.path_csv(trace)))
        extra += " path %s clearance %.4g" % (trace.status, trace.clearance)
    return (_summary("maze", res.objective, res.rate, res.score, len(res.support()), extra),
            fm.maze_payload(mres, trace), files)


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "deconstruct": _cmd_deconstruct,
    "diagnose": _cmd_diagnose,
    "portfolio": _cmd_portfolio,
    "maze": _cmd_maze,
}


def run(argv=None):
    """Parse argv, execute the subcommand, then write its files and print its
    result; return the exit code."""
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        summary, payload, files = _COMMANDS[args.subcommand](args)
        shown = fm.json_dumps(payload) if args.json else None
        fm.write_all(files)
    except TopiaryError as exc:
        sys.stderr.write("error: %s\n" % exc)
        log.debug("failure detail", exc_info=True)
        return exit_code_for(exc)
    _emit(summary, shown)
    return 0


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
