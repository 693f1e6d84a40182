"""The package holds what the command line runs: references and fixtures that
only tests use live in tests/oracles.py, and take from the package no more
than they share with it."""

import ast
from pathlib import Path

import consensus_dyn

PACKAGE = Path(consensus_dyn.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"


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


def test_oracles_import_nothing_of_the_package_but_shared_stages_and_types():
    # a reference that calls the code it checks agrees with it by
    # construction; the oracles may take the tolerance and the rank cut and
    # hull stage they share with the centroid kernel, the types they read,
    # and the audits' hull membership, which shares no stage with the kernel
    allowed = {"geometry": {"DUP_TOL", "GeometryError", "_rank_cut", "_reduced_hull"},
               "algorithms": {"AlgorithmKind"},
               "simulator": {"RANGE_FLOOR", "RunTrace"}, "verification": {"in_hull"}}
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("consensus_dyn"):
            # `from consensus_dyn import geometry` names the package: nothing allowed
            module = node.module.rsplit(".", 1)[-1]
            extra = {a.name for a in node.names} - allowed.get(module, set())
            assert not extra, (node.module, extra)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("consensus_dyn") for a in node.names)
