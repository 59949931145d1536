"""Every library name is used by the program: no exported helper that nothing
or only a test calls, and no optional parameter that no call passes.

A top-level def, class or assignment, or a method, of ``src/kleinian/*.py``
counts as used when some ``.py`` file under src/, demos/ or perfbench/,
outside any ``tests`` directory and other than the re-exports of
``src/kleinian/__init__.py``, names it: as an ``ast.Name`` that it does not
assign, an ``ast.Attribute`` attribute, an import alias, or a whole string
constant that is no dict key (``perfbench/layers.py`` wraps library
functions by name, the values of its ``TARGETS``; the keys name modules).
A name that only tests call belongs in the tests.  Only dunder names are
exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kleinian"
SCANNED = ("src", "tests", "demos", "perfbench")
REEXPORTS = PACKAGE / "__init__.py"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Top-level defs, classes and assignment targets, and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}"


def _uses(tree: ast.Module):
    keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in keys:
            yield node.value


def _program_files():
    """The scanned files that are not tests and not the package's re-exports."""
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts and path != REEXPORTS:
                yield path


def test_every_library_name_is_used():
    used: set = set()
    for path in _program_files():
        used.update(_uses(ast.parse(path.read_text(), filename=str(path))))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname in _definitions(ast.parse(path.read_text(), filename=str(path))):
            name = qualname.rsplit(".", 1)[-1]
            if not _is_dunder(name) and name not in used:
                unused.append(f"{path.name}: {qualname}")
    assert not unused, "defined but used by no program file:\n" + "\n".join(unused)


def _optional_parameters(tree: ast.Module):
    """(qualname, call name, positional index or None, parameter name) for
    every parameter with a default of a top-level function, a method or a
    constructor.  A method's index counts past ``self``, as its callers do;
    a keyword-only parameter has no index."""
    scopes = [(None, node) for node in tree.body]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(node.name, item) for item in node.body]
    for owner, fn in scopes:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if owner is None:
            call, qualname, skip = fn.name, fn.name, 0
        elif fn.name == "__init__":
            call, qualname, skip = owner, f"{owner}.__init__", 1
        else:
            call, qualname, skip = fn.name, f"{owner}.{fn.name}", 1
        args = fn.args.posonlyargs + fn.args.args
        for k, arg in enumerate(args[len(args) - len(fn.args.defaults):]):
            yield qualname, call, len(args) - len(fn.args.defaults) + k - skip, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualname, call, None, arg.arg


def _passed(tree: ast.Module):
    """(call name, positional index or keyword) for every argument of every
    call; a ``*`` or ``**`` argument passes every index or keyword ("*")."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        for k, arg in enumerate(node.args):
            yield name, "*" if isinstance(arg, ast.Starred) else k
        for kw in node.keywords:
            yield name, kw.arg or "*"


def test_every_optional_parameter_is_passed():
    """An optional parameter that no call passes, by keyword or by position,
    is a constant in disguise; a ``*args``/``**kwargs`` call counts as
    passing every parameter of the name it calls."""
    passed: set = set()
    for top in SCANNED + ("scripts",):
        for path in sorted((ROOT / top).rglob("*.py")):
            passed.update(_passed(ast.parse(path.read_text(), filename=str(path))))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, call, index, param in _optional_parameters(
            ast.parse(path.read_text(), filename=str(path))
        ):
            keys = {(call, param), (call, "*")}
            if index is not None:
                keys.add((call, index))
            if not keys & passed:
                unused.append(f"{path.name}: {qualname}({param})")
    assert not unused, "optional parameters never passed:\n" + "\n".join(unused)
