"""The import path and the public names of the package, pinned.

`import topiary` is most of a short job's start-up time, so a new
module-level import is an edit to this set, to be backed by a measurement
of that start-up time (the benchmark's `setup_s`). A name
added to or removed from the `topiary` namespace is an edit to PUBLIC_NAMES,
so every change of the package's API shows in the diff.
"""

import ast
import os
import pathlib
import subprocess
import sys
import types

import topiary

MODULE_LEVEL_IMPORTS = {
    "argparse", "contextlib", "csv", "dataclasses", "functools", "io", "itertools", "json",
    "logging", "math", "numbers", "numpy", "os", "sys", "tempfile", "typing",
    "warnings",
}

PUBLIC_NAMES = {
    "ALGORITHMS", "AccessibilityFailure", "AtomRescueWarning", "AtomicMeasure",
    "BaseNotInIndex", "CapmRow", "ConvergenceError", "ConvergenceSummary", "CycleDetected",
    "DECONSTRUCT_CAP", "DEFAULT_MARGIN_TOL", "DomainError", "DuplicatePointsWarning",
    "ESCAPE_FACTOR", "EmptyMask", "ExchangeOutcome", "FOCK_EXPONENT_GUARD", "Field",
    "InvalidInput", "InvariantViolation", "JcRow", "Kernel", "MAZE_MARGIN_TOL",
    "MarginTable", "MaxIterExceeded", "MazeResult", "MazeSpec", "MonotonicityError",
    "NoProgress", "NonNumericCell", "NonPSD", "NotAnIndex", "NotPrunable", "NumericalError",
    "ORACLE_CAP", "PROBABILITY", "PSD_TOL", "PathTrace", "PortfolioReport", "PortfolioSpec",
    "PsiSpec", "RISK_FREE_LABEL", "RaggedRow", "RequiresOracle", "ReturnsTable", "SIGNED",
    "SmlPoint", "SmlReport", "SolveConfig", "SolverState", "StartInsideObstacle",
    "TOutOfRange", "TooFewRows", "TooLarge", "TopiaryError", "TopiaryResult", "TraceRow",
    "UnknownReferencePoint", "ZeroPortfolio", "add_risk_free", "aesthetic_objective",
    "alpha", "apply_risk_belief", "as_psi", "beta", "capm_report", "conjugate_field",
    "construction_ordering", "convergence_summary", "convex_combine", "delta",
    "discrete_boundary", "drop_small_atoms", "embedded_distance", "euclidean",
    "exchange_add", "exit_code_for", "explicit_gram", "fields", "fock", "greedy_step",
    "grow_set", "hardy", "hedge", "ingest_returns", "inner", "invisible_residual",
    "is_topiaric_index", "jc_report", "margin", "margin_table", "margins", "mu_eval",
    "norm_sq", "optimize_portfolio", "oracle_solve", "potential_field", "probability",
    "prune", "prune_set", "rasterize", "reduce_adaptive", "representatives", "score",
    "signed", "sml_points", "solve", "solve_maze", "solve_subset", "step_gain",
    "topiaric_rate", "trace_path",
}


def _module_level_imports(tree):
    """Absolute imports run when the module is imported: every import
    statement outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_the_package_imports_a_fixed_set_of_modules():
    sources = sorted(pathlib.Path(topiary.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = set()
    for path in sources:
        found.update(_module_level_imports(ast.parse(path.read_text(), str(path))))
    assert found == MODULE_LEVEL_IMPORTS


def test_the_package_exports_a_fixed_set_of_names():
    """Submodules are left out: which of them are attributes of the package
    depends on what else has been imported (`topiary.cli` adds `cli` and
    `formats`)."""
    names = {n for n in dir(topiary)
             if not n.startswith("_") and not isinstance(getattr(topiary, n), types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_the_command_line_loads_no_scipy():
    """A fresh interpreter that imports the command line has no scipy module
    loaded, at the top or below it."""
    probe = "import sys, topiary.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(pathlib.Path(topiary.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert out.stdout.strip() == "[]"
