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


def _readers(path: Path, test) -> set[str]:
    """The module-level statements of path, by name, with a node that passes test."""
    return {
        f"{path.name}: {name}"
        for node in ast.parse(path.read_text()).body
        for name in _defined(node) or ["<module>"]
        if any(test(n) for n in ast.walk(node))
    }


def test_only_the_graph_constructor_reads_the_windows_record_outside_core():
    # core._windows's record belongs to core; graph._graph is the one place
    # where it becomes an InfluenceGraph, so no other module spells out its
    # layout (order is left out: a graph has an order field too)
    fields = {"lo_r", "hi_r", "run", "mask", "edges", "bounds", "ties", "same"}
    readers = set().union(
        *(
            _readers(path, lambda n: isinstance(n, ast.Attribute) and n.attr in fields)
            for path in sorted(SRC.glob("*.py"))
            if path.name != "core.py"
        )
    )
    assert readers == {"graph.py: _graph"}


def test_the_window_edge_test_is_written_once():
    # _settle and _windows_slack read one edge test, core._edge_margins:
    # no other code subtracts an opinion from a padded one
    def subtracts_from_padded(n):
        return (
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Sub)
            and any(isinstance(m, ast.Name) and m.id == "padded" for m in ast.walk(n.left))
        )

    assert _readers(SRC / "core.py", subtracts_from_padded) == {"core.py: _edge_margins"}


def test_returned_text_is_built_once_in_core():
    # core._text is the one loop that appends a chunk stream into returned
    # text: islice and its piece constant appear in no other module, and
    # export_graph and write_trajectory_csv both return through it
    def names_piece_loop(n):
        wanted = {"islice", "_APPENDS"}
        return (
            (isinstance(n, ast.Name) and n.id in wanted)
            or (isinstance(n, ast.Attribute) and n.attr in wanted)
            or (isinstance(n, ast.alias) and n.name in wanted)
        )

    def calls_text(n):
        return isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_text"

    owners = set().union(*(_readers(path, names_piece_loop) for path in sorted(SRC.glob("*.py"))))
    assert {owner.split(":")[0] for owner in owners} == {"core.py"}
    callers = _readers(SRC / "core.py", calls_text) | _readers(SRC / "graph.py", calls_text)
    assert callers == {"core.py: write_trajectory_csv", "graph.py: export_graph"}
