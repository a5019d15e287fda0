"""Every module-level import under ``src/hsgt`` is used, every ``def`` and
module-level name is read, and no module-level function calls itself.

An ``ast`` scan in place of a linter: a name bound by a top-level ``import`` or
``from ... import`` must be read somewhere in the same module.  The package's
``__init__.py`` is exempt, as its imports are the public API it re-exports.
A function defined under ``src/hsgt`` must have its name read (as a name or an
attribute) somewhere in ``src/``, ``scripts/`` or ``perfbench/``, and a method
must be read as an attribute of something other than an imported module, so
that ``np.full`` is no read of a method ``full``.  A name that a module-level
assignment binds must be read there too, as a name or an attribute.  Code and
tables that only tests use belong in ``tests/``.  A module-level function must
not load its own name: recursion on a config's input ends in a
``RecursionError`` once the input is deep enough, so tree walks are loops.
"""

import ast
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "hsgt")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
READERS = ("src", "scripts", "perfbench")
# defs kept without a reader in READERS, besides the package exports and dunders
ALLOWED_UNREAD = {
    "evaluate",  # a by-name call of compile_expr, kept because perfbench/tracer.py wraps it
    "directional_bounds",  # perfbench/tracer.py wraps it by its name as a string
}


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


def module_aliases(tree: ast.AST) -> set:
    """Names that ``tree`` binds to a module: by ``import``, or by a ``from``
    import out of a package (``from . import expr as ex``, ``from hsgt import expr``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "hsgt"):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def reads(readers: list) -> tuple:
    """The names that ``readers`` load, as names or as attributes of an imported
    module, and the attributes they load of anything else."""
    names, attrs = set(), set()
    for source in readers:
        tree = ast.parse(source)
        aliases = module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                of_module = isinstance(node.value, ast.Name) and node.value.id in aliases
                (names if of_module else attrs).add(node.attr)
    return names, attrs


def unread_defs(modules: dict, readers: list, allowed: set) -> list:
    """``(module, line, name)`` of each def in ``modules`` (name -> source) that
    no source in ``readers`` reads.  A function is read where its name is loaded
    as a name or an attribute; a method only where it is loaded as an attribute
    of something other than an imported module."""
    names, attrs = reads(readers)
    unread = []
    for module, source in modules.items():
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                    (node.name.startswith("__") and node.name.endswith("__")):
                continue
            read = attrs if id(node) in methods else names | attrs
            if node.name not in read | allowed:
                unread.append((module, node.lineno, node.name))
    return sorted(unread)


def unread_names(modules: dict, readers: list, allowed: set) -> list:
    """``(module, line, name)`` of each name that a module-level assignment in
    ``modules`` binds and that no source in ``readers`` loads, as a name or an
    attribute.  Dunders (``__all__``) are exempt."""
    names, attrs = reads(readers)
    unread = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id not in names | attrs | allowed \
                            and not (name.id.startswith("__") and name.id.endswith("__")):
                        unread.append((module, node.lineno, name.id))
    return sorted(unread)


def _sources(top: str) -> dict:
    out = {}
    for root, _dirs, files in os.walk(os.path.join(REPO, top)):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    out[os.path.relpath(os.path.join(root, name), REPO)] = fh.read()
    return out


def recursive_functions(modules: dict) -> list:
    """``(module, line, name)`` of each module-level function in ``modules``
    (name -> source) that loads its own name."""
    found = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Name) and n.id == node.name and isinstance(n.ctx, ast.Load)
                    for n in ast.walk(node)):
                found.append((module, node.lineno, node.name))
    return sorted(found)


def test_no_module_level_function_recurses():
    assert recursive_functions({m: open(os.path.join(SRC, m), encoding="utf-8").read()
                                for m in MODULES}) == []


def test_scan_finds_a_recursive_function():
    module = ("def walk(t):\n    return [walk(c) for c in t]\n\n\n"
              "def loop(t):\n    stack = [t]\n    while stack:\n        stack.pop()\n\n\n"
              "class C:\n    def m(self):\n        return self.m\n\n\n"
              "def outer():\n    def inner():\n        return inner\n    return inner\n")
    assert recursive_functions({"m.py": module}) == [("m.py", 1, "walk")]


def test_every_def_is_read_outside_tests():
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        exports = {alias.asname or alias.name for node in ast.parse(fh.read()).body
                   if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {path: text for top in READERS for path, text in _sources(top).items()}
    modules = {path: text for path, text in sources.items() if path.startswith("src/hsgt/")}
    assert unread_defs(modules, list(sources.values()), ALLOWED_UNREAD | exports) == []


def test_every_module_level_name_is_read_outside_tests():
    sources = {path: text for top in READERS for path, text in _sources(top).items()}
    modules = {path: text for path, text in sources.items() if path.startswith("src/hsgt/")}
    assert unread_names(modules, list(sources.values()), set()) == []


def test_scan_finds_an_unread_module_level_name():
    module = ("__all__ = ['A']\nA, (B, C) = 1, (2, 3)\nD: int = 4\nE = F = 5\n"
              "G = [A]\n\n\ndef f():\n    H = 6\n    return H\n")
    reader = "from m import G\nG, E\nimport m\nm.C\nB = 7\n"  # a store is no read
    assert unread_names({"m.py": module}, [module, reader], set()) == [
        ("m.py", 2, "B"), ("m.py", 3, "D"), ("m.py", 4, "F")]
    assert unread_names({"m.py": module}, [module, reader], {"B", "D"}) == [("m.py", 4, "F")]


def test_scan_finds_an_unread_def():
    module = ("def used():\n    pass\n\n\ndef unused():\n    return used\n\n\n"
              "class C:\n    def method(self):\n        pass\n\n"
              "    def __repr__(self):\n        return ''\n\n"
              "    def kept(self):\n        pass\n\n"
              "    def full(self):\n        pass\n\n"
              "    def render(self):\n        pass\n\n\n"
              "def render():\n    pass\n")
    reader = ("import numpy as np\nfrom . import m as mm\nfrom m import used\nused()\n"
              "C().other\nkept = 1\n"  # a store is no read
              "np.full(3, 0.0)\nmm.render()\n")  # a module's attribute reads no method
    assert unread_defs({"m.py": module}, [reader], set()) == [
        ("m.py", 5, "unused"), ("m.py", 10, "method"), ("m.py", 16, "kept"),
        ("m.py", 19, "full"), ("m.py", 22, "render")]
    assert unread_defs({"m.py": module}, [reader + "C().full\n"], {"method", "kept"}) == [
        ("m.py", 5, "unused"), ("m.py", 22, "render")]
