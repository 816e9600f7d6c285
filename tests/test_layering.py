"""The modules of `rbcm` are layered: each imports, at module top level,
only modules that come before it in LAYERS, so there is no import cycle;
`ilp` imports the standard library only."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rbcm"
LAYERS = ("errors", "machine", "regular", "ilp", "transducer", "fileformat", "corpus",
          "constructions", "decide", "cli", "__init__", "__main__")


def _trees():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _rbcm_imports(node):
    """The `rbcm` modules that an import statement names ("__init__" for
    the package itself); empty for any other statement."""
    if isinstance(node, ast.Import):
        parts = [a.name.split(".") for a in node.names]
        return [p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "rbcm"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        if node.module is None or node.module.split(".")[0] != "rbcm":
            return []
        path = node.module.split(".")[1:]
    else:
        path = node.module.split(".") if node.module else []
    if path:
        return [path[0]]
    return [a.name if a.name in LAYERS else "__init__" for a in node.names]


def test_every_module_has_a_layer():
    assert set(_trees()) == set(LAYERS)


def test_rbcm_imports_sit_at_module_top_level():
    misplaced = []
    for name, tree in _trees().items():
        top = set(map(id, tree.body))
        misplaced += [(name, node.lineno) for node in ast.walk(tree)
                      if _rbcm_imports(node) and id(node) not in top]
    assert misplaced == []


def test_imports_go_to_earlier_layers():
    upward = [(name, target)
              for name, tree in _trees().items() for node in tree.body
              for target in _rbcm_imports(node)
              if LAYERS.index(target) >= LAYERS.index(name)]
    assert upward == []


def test_ilp_imports_only_the_standard_library():
    tree = _trees()["ilp"]
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, node.lineno
            modules.add(node.module.split(".")[0])
    assert modules <= sys.stdlib_module_names, modules


def _names_used(node, skip=None):
    """Every name that `node` reads, as a bare name or an attribute,
    outside the subtree `skip`."""
    used = set()
    work = [node]
    while work:
        n = work.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        work += ast.iter_child_nodes(n)
    return used


def test_every_top_level_definition_is_exported_or_used():
    """Each top-level function and class of `src/rbcm` is exported by
    `rbcm/__init__.py` or named elsewhere in `src/rbcm`: code that only
    tests call belongs in the tests."""
    trees = _trees()
    exported = {a.asname or a.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if not any(node.name in _names_used(other, skip=node) for other in trees.values()):
                unused.append(f"{name}.{node.name}")
    assert unused == []
