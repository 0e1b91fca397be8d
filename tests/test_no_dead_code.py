"""Nothing in `src/perhom` is left over: no module but the package's
``__init__.py`` (which re-exports) imports a name it never reads, every
private top-level definition is referenced somewhere in the package,
every method or property of a class is read as an attribute somewhere in
the sources, the tests or the benchmark, and every defaulted parameter of
a function is passed at some call there.  A read is a name loaded anywhere
in the module, annotations included; a reference is a loaded name, an
attribute or an imported name in any module other than the definition
itself."""

import ast
from pathlib import Path

import pytest

import perhom

PACKAGE = Path(perhom.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
# Where a member may be read: the sources, the tests and the benchmark.
READERS = [PACKAGE.parent, Path(__file__).resolve().parent, Path(__file__).resolve().parent.parent / "perfbench"]


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


def _members(tree):
    """(class, member, line) of every method or property defined in a
    class body, dunders excluded."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    yield cls.name, node.name, node.lineno


def test_every_member_is_read_as_an_attribute():
    attributes = set()
    for root in READERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            attributes.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    unread = [
        f"{module}:{line} {cls}.{member}"
        for module, tree in TREES.items()
        for cls, member, line in _members(tree)
        if member not in attributes
    ]
    assert unread == []


def _defaulted(tree):
    """(function, parameter, positional index or None, line) of every
    parameter with a default; the index of a method's parameter counts from
    the first argument after self, as a call through an attribute passes
    it."""
    methods = {
        node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        skip = fn in methods
        for k, arg in enumerate(positional[first:], first):
            yield fn.name, arg.arg, k - skip, fn.lineno
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None, fn.lineno


def _passes(call, parameter, index):
    """Whether a call passes the parameter, by keyword or by position; a
    starred argument may pass any of them."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    args = call.args
    if any(isinstance(a, ast.Starred) for a in args):
        return index is not None
    return index is not None and len(args) > index


def test_every_default_is_passed_somewhere():
    calls = {}
    for root in READERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    unset = [
        f"{module}:{line} {fn}({parameter})"
        for module, tree in TREES.items()
        for fn, parameter, index, line in _defaulted(tree)
        if not any(_passes(call, parameter, index) for call in calls.get(fn, ()))
    ]
    assert unset == []
