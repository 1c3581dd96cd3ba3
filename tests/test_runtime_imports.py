"""The package imports only the standard library and numpy, at any depth.

``pip install copulagrid`` brings numpy alone; scipy, networkx and hypothesis
come with the test extra as oracles and input generators.  An import of one
of them inside a function would pass every test and fail only for a user who
reaches that function, so every import statement counts, not just the
module-level ones.
"""

import ast
import sys

from helpers import sources

RUNTIME = sys.stdlib_module_names | {"numpy"}


def foreign_imports(text):
    """``(line, module)`` of each absolute import of a package outside ``RUNTIME``."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        yield from ((node.lineno, m) for m in modules if m.split(".")[0] not in RUNTIME)


def test_the_scan_finds_an_import_inside_a_function():
    text = "import math\nfrom . import cli\n\ndef f():\n    import scipy.optimize\n"
    assert list(foreign_imports(text)) == [(5, "scipy.optimize")]


def test_the_package_imports_only_the_standard_library_and_numpy():
    found = {name: list(foreign_imports(text)) for name, text in sources().items()}
    assert {name: imports for name, imports in found.items() if imports} == {}
