"""Static checks on the package source, parsed with the stdlib ``ast``: no
module imports a name it never uses, every name an ``__all__`` lists exists,
no module reads another package module's private names, no private
top-level name goes unused, every function reads each of its parameters, and
every import is relative or of numpy or the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzzylinsys"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


def _defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _top_level_names(tree):
    yield from _defined_names(tree)
    yield from _imported_names(tree)


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    tree = ast.parse(path.read_text(), str(path))
    assert sorted(set(_all(tree)) - set(_top_level_names(tree))) == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree):
    """``module._name`` reads and ``from .module import _name`` imports of
    another package module's private names."""
    stems = {p.stem for p in PACKAGE.glob("*.py")}
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == PACKAGE.name
        ):
            for alias in node.names:
                if alias.name in stems:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    yield f"from {node.module or '.'} import {alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE.name + ".") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            yield f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_name_of_another_module(path):
    tree = ast.parse(path.read_text(), str(path))
    assert sorted(_private_reads(tree)) == []


def _loaded_names():
    """Every name the package source reads, as a bare name or an attribute;
    a mention in a docstring or comment is not a read."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    private = {name for name in _defined_names(tree) if _private(name)}
    assert sorted(private - set(_loaded_names())) == []


def _unused_parameters(tree):
    """``function(parameter)`` for each parameter of a function or method
    that its body never reads, ``self`` excepted."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for param in params:
                if param.arg != "self" and param.arg not in read:
                    yield f"{node.name}({param.arg})"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), str(path))
    assert sorted(_unused_parameters(tree)) == []


def _foreign_imports(tree):
    """Each module an import names that is not relative, numpy or in the
    standard library, at any depth of the module (a function's lazy import
    too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                yield name


def test_package_imports_only_numpy_and_the_standard_library():
    found = {f"{path.stem}: {name}" for path in PACKAGE.glob("*.py")
             for name in _foreign_imports(ast.parse(path.read_text(), str(path)))}
    assert sorted(found) == []
