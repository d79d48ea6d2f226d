"""Static checks on the package source that need only the standard library."""

import ast
from pathlib import Path

import infrasense

PACKAGE = Path(infrasense.__file__).resolve().parent
# the code that may read a name the package defines
READERS = [Path(__file__).resolve().parents[1] / d for d in ("src", "tests", "perfbench")]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names in `__all__` count as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport os.path as p\nfrom a import b, c\n__all__ = ['c']\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)", "p (line 2)"]


def test_no_unused_imports_in_package():
    found = {str(path.relative_to(PACKAGE)): unused_imports(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def defined_names(source: str) -> dict[str, int]:
    """Names a module defines at its top level (functions, classes and
    assigned names), with their line numbers."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update((n.id, node.lineno) for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return names


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attribute names, imported names,
    and each dotted part of a string constant (the tracer names what it
    wraps in strings, such as "SimNode.best_packet")."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def test_unread_names_detected():
    source = ("import os\nA = 1\nB, (C, D) = 2, (3, 4)\nE: int = 5\n"
              "def f(): return A\nclass K: pass\nos.path.join(f.__name__, 'C', 'x.D')\n")
    unread = set(defined_names(source)) - read_names(source)
    assert unread == {"B", "E", "K"}


def test_no_unread_module_names():
    read = set()
    for folder in READERS:
        for path in folder.rglob("*.py"):
            read |= read_names(path.read_text())
    found = {str(path.relative_to(PACKAGE)): sorted(set(defined_names(path.read_text())) - read)
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}
