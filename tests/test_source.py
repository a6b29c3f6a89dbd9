"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "echosim"


def _defined(node) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced(node) -> set[str]:
    """The names a statement reads, as bare names or as attributes."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_every_private_module_name_is_used():
    # a private helper, class or constant that no other statement in the
    # package reads is dead code; an import alone does not count as a use,
    # and neither does a recursive call from the helper's own body
    statements = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    unused = [
        f"{module}: {name}"
        for module, node in statements
        for name in _defined(node)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in _referenced(other) for _, other in statements if other is not node)
    ]
    assert unused == []


def test_range_errors_are_worded_only_in_core():
    # every config number's range goes through core.require_int or
    # core.require_finite, so no other module words a range error itself
    phrases = ("must be at least", "must be at most", "must be nonnegative", "must lie in")
    found = [
        f"{path.name}: {phrase}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "core.py"
        for phrase in phrases
        if phrase in path.read_text()
    ]
    assert found == []
