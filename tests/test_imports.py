"""Every module-level import under ``src/hsgt`` is used in its module.

An ``ast`` scan in place of a linter: a name bound by a top-level ``import`` or
``from ... import`` must be read somewhere in the same module.  The package's
``__init__.py`` is exempt, as its imports are the public API it re-exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hsgt")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_module_level_imports_are_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_scan_finds_an_unused_import():
    source = "import numpy as np\nfrom typing import List, Optional\nx: Optional[int] = None\n"
    assert unused_imports(source) == [(1, "np"), (2, "List")]
