"""Every module-level function, class and constant of the package is used
somewhere in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "escape_solver"


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def test_every_module_level_definition_is_referenced():
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update({node.name, node.asname})
    unused = [f"{module}:{node.lineno} {node.name}"
              for module, tree in sorted(trees.items()) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in used]
    assert trees and unused == []


def test_every_module_level_constant_is_loaded():
    """A module-level name bound by assignment (dunders aside) is read somewhere
    in the package, by name or as an attribute; an import alone does not count."""
    trees = _trees()
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assigned = [(module, node.lineno, target.id)
                for module, tree in sorted(trees.items()) for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for top in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for target in ast.walk(top) if isinstance(target, ast.Name)]
    unused = [f"{module}:{line} {name}" for module, line, name in assigned
              if not (name.startswith("__") and name.endswith("__")) and name not in loaded]
    assert assigned and unused == []
