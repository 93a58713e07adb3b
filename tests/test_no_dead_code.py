"""Every module-level function and class of the package is used somewhere in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "escape_solver"


def test_every_module_level_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
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
