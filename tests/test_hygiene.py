"""Static checks on the package source, parsed with the stdlib ``ast``: no
module imports a name it never uses, every name an ``__all__`` lists exists
and the package exports it, no module reads another package module's
private names, no private top-level name goes unused, every function reads
each of its parameters, every import is relative or of numpy or the
standard library, every cross-reference in a docstring names something that
exists, and every numerical failure opens its message with a cause from the
command-line contract test's fixed list."""

import ast
import re
import sys
from pathlib import Path

import pytest
from test_cli_contract import FAILURE_CAUSES

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_the_package_exports_every_all_name(path):
    # a name a module lists as public is public at the package level too
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    tree = ast.parse(path.read_text(), str(path))
    assert sorted(set(_all(tree)) - set(_imported_names(init))) == []


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


_REFERENCE = re.compile(r":(?:func|meth|attr|class|data):`~?([\w.]+)`")


def _namespace(tree):
    """Each top-level name of a module, mapped to its class if it is one."""
    names = dict.fromkeys(_top_level_names(tree))
    names.update((node.name, node) for node in tree.body if isinstance(node, ast.ClassDef))
    return names


def _members(cls):
    """The names a class defines: its methods and class-level names, and the
    attributes its ``__init__`` assigns to ``self``."""
    members = set(_defined_names(cls))
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            members.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                           and isinstance(n.ctx, ast.Store)
                           and isinstance(n.value, ast.Name) and n.value.id == "self")
    return members


def _docstrings(node, cls=None):
    """``(docstring, enclosing class)`` for the module, every class and every
    function below ``node``."""
    if isinstance(node, ast.ClassDef):
        cls = node
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield doc, cls
    for child in ast.iter_child_nodes(node):
        yield from _docstrings(child, cls)


def _resolves(reference, cls, namespaces):
    """Whether a dotted docstring reference names something: a name of its
    own module or of another package module, a member of a class named so,
    or a member of the enclosing class ``cls``."""
    parts = reference.split(".")
    if parts[0] == PACKAGE.name:
        parts = parts[1:]
    scopes = list(namespaces)
    if len(parts) > 1 and parts[0] in namespaces:
        scopes, parts, cls = [parts[0]], parts[1:], None
    if len(parts) == 1 and cls is not None and parts[0] in _members(cls):
        return True
    for scope in scopes:
        names = namespaces[scope]
        if parts[0] in names and (len(parts) == 1 or (
                len(parts) == 2 and isinstance(names[parts[0]], ast.ClassDef)
                and parts[1] in _members(names[parts[0]]))):
            return True
    return False


def test_every_docstring_reference_resolves():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}
    namespaces = {stem: _namespace(tree) for stem, tree in trees.items()}
    references, stale = 0, []
    for stem, tree in trees.items():
        for doc, cls in _docstrings(tree):
            for reference in _REFERENCE.findall(doc):
                references += 1
                if not _resolves(reference, cls, namespaces):
                    stale.append(f"{stem}: {reference}")
    assert references > 0
    assert stale == []


# The errors that exit 4; each message opens with its cause.
_FAILURES = ("NumericalFailureError", "IndexTooLargeError")


def _openings(message, func, calls):
    """The literal text that a message can open with: the leading literal
    parts of a string or an f-string, where a leading ``{parameter}`` of the
    enclosing function ``func`` is replaced by the string each call of
    ``func`` passes for it, or by ``"<parameter>"`` where a call passes
    something else."""
    parts = list(message.values) if isinstance(message, ast.JoinedStr) else [message]
    params = [a.arg for a in func.args.args] if func else []
    param = None
    if isinstance(parts[0], ast.FormattedValue) and getattr(parts[0].value, "id", None) in params:
        param = parts.pop(0).value.id
    text = ""
    for part in parts:
        if not (isinstance(part, ast.Constant) and isinstance(part.value, str)):
            break
        text += part.value
    if param is None:
        yield text
        return
    index = params.index(param) - (params[0] == "self")  # a call passes self before the list
    for call in calls.get(func.name, [None]):
        passed = ([k.value for k in call.keywords if k.arg == param]
                  or call.args[index:index + 1]) if call else []
        value = passed[0].value if passed and isinstance(passed[0], ast.Constant) else None
        yield (value if isinstance(value, str) else f"<{param}>") + text


def _failure_messages():
    """``(module, line, opening)`` for each message of a failure that the
    package raises."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    for stem, tree in trees.items():
        enclosing = {}  # ast.walk reaches an outer function first; an inner one overwrites it
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                enclosing.update((id(node), func) for node in ast.walk(func))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in _FAILURES:
                message = exc.args[0] if exc.args else ast.Constant("")
                for opening in _openings(message, enclosing.get(id(node)), calls):
                    yield stem, node.lineno, opening


def test_every_failure_names_a_listed_cause():
    messages = list(_failure_messages())
    unlisted = [f"{stem}:{line}: {opening!r}" for stem, line, opening in messages
                if not opening.startswith(FAILURE_CAUSES)]
    assert unlisted == []
    # and the list names no cause that the package no longer raises
    assert [c for c in FAILURE_CAUSES if not any(m[2].startswith(c) for m in messages)] == []
