"""Static checks on the package source that need only the standard library."""

import ast
from pathlib import Path

import infrasense

PACKAGE = Path(infrasense.__file__).resolve().parent


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
