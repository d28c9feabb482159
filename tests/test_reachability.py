"""Every function, method and class defined in src/signrank has a use in the
package itself, not only in the tests: its name is referenced somewhere in
src/signrank outside its own definition.  An import in __init__.py is an
export, not a use; dunders are called by Python itself.  And every name a
module other than __init__.py imports is read in that module."""

import ast
from collections import defaultdict
from pathlib import Path

import signrank

SRC = Path(signrank.__file__).parent
# the package's entry point for callers outside it (perfbench, the tests)
EXEMPT = {"harness.run"}


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name of each definition whose name is loaded nowhere outside
    the definition's own lines, over modules given as name -> source."""
    defs, uses = [], defaultdict(list)  # name -> (module, line) of each load
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((mod, node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses[node.id].append((mod, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                uses[node.attr].append((mod, node.lineno))
    return sorted(
        f"{mod}.{node.name}" for mod, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and all(m == mod and node.lineno <= line <= node.end_lineno
                for m, line in uses[node.name]))


def test_detector_flags_a_definition_used_only_by_itself():
    sources = {
        "a": "def used():\n    return 1\n\ndef unused(k):\n    return unused(k - 1) + used()\n",
        "b": "from .a import unused\n\nclass Box:\n    def size(self):\n        return 0\n",
    }
    assert unreferenced(sources) == ["a.unused", "b.Box", "b.size"]


def test_every_definition_has_a_use_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert [name for name in unreferenced(sources) if name not in EXEMPT] == []


def unused_imports(sources: dict[str, str]) -> list[str]:
    """module.name of each name that a module other than __init__ imports
    (from __future__ aside) and never loads, over modules given as
    name -> source."""
    unused = []
    for mod, text in sources.items():
        if mod == "__init__":
            continue
        tree = ast.parse(text)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                # "import a.b" binds a
                name = (alias.asname or alias.name).split(".")[0]
                if name not in loaded:
                    unused.append(f"{mod}.{name}")
    return sorted(unused)


def test_detector_flags_an_import_the_module_never_reads():
    sources = {
        "__init__": "from .a import f\n",
        "a": "from __future__ import annotations\nimport os.path\nimport json\n"
             "from .b import x, y as z\n\ndef f() -> z:\n    return os.path.sep\n",
        "b": "def g():\n    from .a import f\n    return 1\n",
    }
    assert unused_imports(sources) == ["a.json", "a.x", "b.f"]


def test_every_import_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_imports(sources) == []
