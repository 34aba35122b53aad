"""Every name a package module imports is used in it or re-exported, every
definition is referenced, every reduction over a vector goes through
``lp_core._dot``, and every source file parses as Python 3.10."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "restartlp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
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


# Where a reduction may be taken other than through lp_core._dot, which
# holds the one ``@`` on vectors, and _norm, which calls it
REDUCTION_HELPERS = {("lp_core.py", "_dot"), ("lp_core.py", "_norm")}
REDUCTION_EXEMPTIONS = {
    ("lp_core.py", "SparseMatrix.gram"): "a sparse matrix product",
    ("steps.py", "NormalFactor.__init__"): "the dense inverse's matrix-vector product",
    ("bilinear.py", "_sum_sq"): "Table 3's sums of squares in Python floats",
    ("bilinear.py", "_fit_slope"): "np.polyfit's least-squares fit",
}
# numpy's reductions other than ``@``: any ``.dot`` (np.dot, an array's
# dot), these functions of numpy, and ``linalg.norm``
NUMPY_REDUCTIONS = {"dot", "vdot", "inner", "einsum"}


def _is_reduction(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Attribute):
        owner = node.value
        return (node.attr == "dot"
                or (node.attr in NUMPY_REDUCTIONS and isinstance(owner, ast.Name)
                    and owner.id in ("np", "numpy"))
                or (node.attr == "norm" and isinstance(owner, ast.Attribute)
                    and owner.attr == "linalg"))
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] in ("numpy", "scipy") and any(
            alias.name in NUMPY_REDUCTIONS | {"norm"} for alias in node.names)
    return False


def _scoped_nodes(node, scope=""):
    """(qualified name of the enclosing function or class, or "", node) for
    every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}" if scope else child.name)
        else:
            yield scope, child
            yield from _scoped_nodes(child, scope)


def _package_nodes():
    """(module file name, scope, node) for every node of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            yield path.name, scope, node


def test_every_reduction_goes_through_the_helpers():
    allowed = REDUCTION_HELPERS | set(REDUCTION_EXEMPTIONS)
    stray = [f"{module}:{node.lineno} in {scope or 'module'}"
             for module, scope, node in _package_nodes()
             if _is_reduction(node) and (module, scope) not in allowed]
    assert stray == []


def test_every_reduction_home_exists():
    # an exemption whose function was renamed or deleted would excuse
    # nothing and go unnoticed
    scopes = {(module, scope) for module, scope, _ in _package_nodes()}
    assert REDUCTION_HELPERS | set(REDUCTION_EXEMPTIONS) <= scopes


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    """pyproject.toml declares Python >= 3.10: syntax newer than 3.10, such
    as ``except*``, fails here on any interpreter.  Only the grammar is
    checked: a library API newer than 3.10 (``tomllib``, ``datetime.UTC``)
    passes, so CI's 3.10 job stays the real check."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
