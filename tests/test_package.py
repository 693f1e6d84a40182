"""The package holds what the command line runs: references and fixtures that
only tests use live in tests/oracles.py."""

import ast
from pathlib import Path

import consensus_dyn

PACKAGE = Path(consensus_dyn.__file__).resolve().parent


def _top_level_names(tree: ast.Module):
    """(name, defining node) of every top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        yield t.id, node


def _used_names(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_top_level_name_is_used_by_the_package():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    # a name counts as used when code outside its own definition names it
    uses = {}
    for module, tree in trees.items():
        for node in tree.body:
            for name in _used_names(node):
                uses.setdefault(name, set()).add(id(node))
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name, node in _top_level_names(tree)
              if not name.startswith("__") and uses.get(name, set()) - {id(node)} == set()]
    assert not unused, f"defined in consensus_dyn but used by none of it: {unused}"
