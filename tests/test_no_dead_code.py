"""Every library name is used somewhere: no exported helper that nothing calls.

A top-level def, class or assignment, or a method, of ``src/kleinian/*.py``
counts as used when some ``.py`` file under src/, tests/, demos/ or
perfbench/ names it: as an ``ast.Name`` that it does not assign, an
``ast.Attribute`` attribute, an import alias, or a whole string constant
(``perfbench/layers.py`` wraps library functions by name).  Only dunder
names are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kleinian"
SCANNED = ("src", "tests", "demos", "perfbench")


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
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_library_name_is_used():
    used: set = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used.update(_uses(ast.parse(path.read_text(), filename=str(path))))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname in _definitions(ast.parse(path.read_text(), filename=str(path))):
            name = qualname.rsplit(".", 1)[-1]
            if not _is_dunder(name) and name not in used:
                unused.append(f"{path.name}: {qualname}")
    assert not unused, "defined but never used:\n" + "\n".join(unused)
