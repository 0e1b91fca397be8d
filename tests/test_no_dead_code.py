"""Nothing in `src/perhom` is left over: no module but the package's
``__init__.py`` (which re-exports) imports a name it never reads, and every
private top-level definition is referenced somewhere in the package.  A
read is a name loaded anywhere in the module, annotations included; a
reference is a loaded name, an attribute or an imported name in any
module other than the definition itself."""

import ast
from pathlib import Path

import pytest

import perhom

PACKAGE = Path(perhom.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _imported(tree):
    """(bound name, line) of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)


def _loaded(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _private_definitions(tree):
    """(name, node) of every private top-level function, class or
    assignment target, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _references(tree, skip=None):
    """Every name a module loads, reads as an attribute or imports, outside
    the top-level node `skip`."""
    out = set()
    for top in tree.body:
        if top is skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_read(name):
    tree = TREES[name]
    loaded = _loaded(tree)
    assert [(n, line) for n, line in _imported(tree) if n not in loaded] == []


def test_every_private_definition_is_referenced():
    references = {name: _references(tree) for name, tree in TREES.items()}
    unreferenced = []
    for module, tree in TREES.items():
        others = set().union(*(refs for m, refs in references.items() if m != module))
        for definition, node in _private_definitions(tree):
            if definition not in others | _references(tree, skip=node):
                unreferenced.append(f"{module}:{node.lineno} {definition}")
    assert unreferenced == []
