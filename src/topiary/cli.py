"""Command line front end.

One executable, six subcommands, file-based I/O. Every run prints a one
line summary (objective, rate, score, support size) and exits with a code
classifying any failure: 2 bad input, 3 numerical trouble, 4 ran out of
iterations, 5 broken invariant (always a bug). Machine-readable JSON goes
to files, or to standard output under --json, never mixed into the summary
stream. TOPIARY_LOG={error,warn,info,debug} turns on diagnostics on
standard error.
"""

import argparse
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
from .errors import InvalidInput, TopiaryError, exit_code_for

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


def build_parser():
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
    """Fail fast on missing inputs or unwritable output directories."""
    for path in inputs:
        if path is not None and not os.path.isfile(path):
            raise InvalidInput("input file %s does not exist" % path)
    for path in outputs:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise InvalidInput("output directory %s does not exist" % parent)


def _emit(args, summary, payload):
    """Summary to stdout, or under --json: payload stdout, summary stderr."""
    if getattr(args, "json", False):
        sys.stdout.write(fm.json_dumps(payload))
        sys.stderr.write(summary + "\n")
    else:
        sys.stdout.write(summary + "\n")


def _summary(tag, objective, rate, score, support_size, extra=""):
    line = "%s: objective %.12g rate %.12g score %.3g support %d" % (
        tag,
        objective,
        rate,
        score,
        support_size,
    )
    return line + extra


def _solve_config(args):
    return slv.SolveConfig(
        algorithm=args.algorithm,
        margin_tol=args.tol,
        max_iter=args.max_iter,
        trace=args.trace is not None,
        seed_point=args.seed_point,
    )


# -- subcommands --------------------------------------------------------------

def _cmd_solve(args):
    _check_paths([args.input], [args.output, args.trace])
    kern, psi = fm.read_problem(args.input)
    log.info("problem: %d points, kernel %s", kern.n, kern.variant)
    result = slv.solve(kern, psi, _solve_config(args))
    log.info("converged in %d iterations", result.iterations)
    if args.trace:
        fm.write_trace(args.trace, result.trace)
    if args.output:
        fm.write_result(args.output, result, kern)
    _emit(
        args,
        _summary("solve", result.objective, result.rate, result.score,
                 len(result.support())),
        fm.result_payload(result, kern),
    )
    return 0


def _cmd_oracle(args):
    _check_paths([args.input], [args.output])
    kern, psi = fm.read_problem(args.input)
    result = slv.oracle_solve(kern, psi, config=slv.SolveConfig(margin_tol=args.tol))
    if args.output:
        fm.write_result(args.output, result, kern)
    _emit(
        args,
        _summary("oracle", result.objective, result.rate, result.score,
                 len(result.support())),
        fm.result_payload(result, kern),
    )
    return 0


def _cmd_deconstruct(args):
    _check_paths([args.input], [args.output, args.trace])
    kern, psi = fm.read_problem(args.input)
    cfg = _solve_config(args)
    result = slv.solve(kern, psi, cfg)
    if args.trace:
        fm.write_trace(args.trace, result.trace)
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
    if args.output:
        fm.write_json(args.output, payload)
    extra = " ordering %s" % ",".join(str(i) for i in ordering)
    _emit(
        args,
        _summary("deconstruct", result.objective, result.rate, result.score,
                 len(result.support()), extra),
        payload,
    )
    return 0


def _cmd_diagnose(args):
    _check_paths([args.input, args.solution], [args.capm, args.jc, args.sml])
    kern, psi = fm.read_problem(args.input)
    measure = fm.read_measure(args.solution)
    table = obj.margin_table(measure, psi, kern)
    if args.capm:
        fm.atomic_write_text(
            args.capm, fm.capm_csv(dgn.capm_report(measure, kern, psi))
        )
    if args.jc:
        base = None
        if args.base:
            try:
                base = [int(tok) for tok in args.base.split(",") if tok.strip()]
            except ValueError:
                raise InvalidInput("--base must list point ids, got %r" % args.base) from None
        fm.atomic_write_text(
            args.jc, fm.jc_csv(dgn.jc_report(measure, kern, psi, base_points=base))
        )
    sml = dgn.sml_points(measure, kern, psi)
    if args.sml:
        fm.atomic_write_text(args.sml, fm.sml_csv(sml))
    payload = {
        "format_version": fm.FORMAT_VERSION,
        "objective": table.objective,
        "rate": table.rate,
        "score": table.score,
        "support_size": len(measure.support()),
        "mu_norm": sml.mu_norm,
    }
    _emit(
        args,
        _summary("diagnose", table.objective, table.rate, table.score,
                 len(measure.support())),
        payload,
    )
    return 0


def _cmd_portfolio(args):
    _check_paths([args.returns, args.spec, args.reference], [args.output])
    if args.returns:
        table = fm.read_returns(args.returns)
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
    if args.output:
        fm.write_portfolio(args.output, report)
        outdir = os.path.dirname(os.path.abspath(args.output))
        fm.atomic_write_text(os.path.join(outdir, "capm.csv"), fm.capm_csv(report.capm))
        fm.atomic_write_text(os.path.join(outdir, "sml.csv"), fm.sml_csv(report.sml))
    top = report.weights[0]
    extra = " top %s %.4f" % (top[0] if top[0] is not None else top[1], top[2])
    _emit(
        args,
        _summary("portfolio", report.result.objective, report.rate,
                 report.result.score, len(report.weights), extra),
        fm.portfolio_payload(report),
    )
    return 0


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
    spec = mz.MazeSpec(
        mask=mask,
        cell_size=args.cell_size,
        target=None if args.target is None else _parse_target(args.target),
        escape_radius=escape,
    )
    mres = mz.solve_maze(spec)
    res = mres.result
    log.info("maze: %d cells, trichotomy %s, support %d",
             len(mres.points), mres.trichotomy, len(res.support()))
    # compute everything before writing anything, so a refused flag leaves no output
    rasters = [(path, draw(mres, resolution=args.field_res).raster)
               for path, draw in ((args.field, mz.potential_field),
                                  (args.conjugate, mz.conjugate_field)) if path]
    trace = None
    if args.path:
        trace = mz.trace_path(mres, step_size=args.step, max_steps=args.max_steps)
    for path, raster in rasters:
        fm.write_pgm(path, raster)
    if trace is not None:
        fm.write_path(args.path, trace)
    extra = " trichotomy %s" % mres.trichotomy
    if trace is not None:
        extra += " path %s clearance %.4g" % (trace.status, trace.clearance)
    _emit(
        args,
        _summary("maze", res.objective, res.rate, res.score,
                 len(res.support()), extra),
        fm.maze_payload(mres, trace),
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "deconstruct": _cmd_deconstruct,
    "diagnose": _cmd_diagnose,
    "portfolio": _cmd_portfolio,
    "maze": _cmd_maze,
}


def run(argv=None):
    """Parse argv, execute the subcommand, return the exit code."""
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except TopiaryError as exc:
        sys.stderr.write("error: %s\n" % exc)
        log.debug("failure detail", exc_info=True)
        return exit_code_for(exc)


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
