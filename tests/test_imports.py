import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "clanmc").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def _top_level_private(stmt) -> list[str]:
    """The private names (one leading underscore) a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reached(stmt) -> set[str]:
    """The names a statement loads, reaches as an attribute or imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_name_has_a_caller():
    # code whose only caller is its own unit test goes: every private top-level
    # name must be used somewhere in the package outside its own definition
    statements = [stmt for path in sorted(MODULES[0].parent.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reached = [_reached(stmt) for stmt in statements]
    unused = [name for k, stmt in enumerate(statements) for name in _top_level_private(stmt)
              if not any(name in r for j, r in enumerate(reached) if j != k)]
    assert not unused, unused


FAMILY_NAMES = {"gaussian", "uniform", "twopoint"}
FAMILY_CONSTANTS = {"GAUSSIAN", "UNIFORM", "TWOPOINT"}


def _names_a_family(node) -> bool:
    return ((isinstance(node, ast.Constant) and node.value in FAMILY_NAMES)
            or (isinstance(node, ast.Name) and node.id in FAMILY_CONSTANTS)
            or (isinstance(node, ast.Attribute) and node.attr in FAMILY_CONSTANTS))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "env_model.py"],
                         ids=lambda p: p.name)
def test_family_names_compared_only_in_env_model(path):
    # the environment laws are env_model's decision: no other module branches
    # on a family name, so a new law touches one module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(_names_a_family(sub) for operand in (node.left, *node.comparators)
                        for sub in ast.walk(operand))]
    assert not compared, compared


def test_clan_index_called_only_in_estimators():
    # the clan is named by a RegimeRule, and each estimator derives its own
    # index from it: no other module turns a rule into an index
    calls = [f"{path.name}:{node.lineno}" for path in MODULES if path.name != "estimators.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "clan_index"]
    assert not calls, calls
