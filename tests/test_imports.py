"""Every name a package module imports is used in it or re-exported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "restartlp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# an import kept on purpose is marked on its line
KEEP = "# noqa: F401"


def unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or KEEP in lines[node.lineno - 1]:
            continue
        imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def _referenced_names(trees):
    """Every name read, every attribute taken and every name imported
    across ``trees``, plus each module's ``__all__``."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                names.update(ast.literal_eval(node.value))
    return names


def _definitions(tree):
    """The module-level names ``tree`` defines, and the private methods of
    its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name.startswith("_"))


def test_every_definition_is_referenced():
    # a definition nothing in the package reads, takes as an attribute,
    # imports or exports is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = _referenced_names(trees.values())
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _definitions(tree)
              if not (name.startswith("__") and name.endswith("__")) and name not in referenced]
    assert unused == []
