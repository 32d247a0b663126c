"""The import path of the package, pinned.

`import topiary` is most of a short job's start-up time (scipy.linalg alone
takes about a quarter of a second), so a new module-level import is an edit
to this set, to be backed by a measurement of that start-up time.
"""

import ast
import pathlib

import topiary

MODULE_LEVEL_IMPORTS = {
    "argparse", "contextlib", "csv", "dataclasses", "functools", "io", "itertools", "json",
    "logging", "math", "numbers", "numpy", "os", "scipy.linalg", "sys", "tempfile", "typing",
    "warnings",
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
