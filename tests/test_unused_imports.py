"""Every name a module of the package imports at module level is used in
that module: an import that nothing reads is dead code.  __init__.py is
left out, as its imports are the package's re-exports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heiscurve"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names bound by the module-level imports of tree, __future__
    imports aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def read_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_scan_finds_imports():
    found = {(path.name, name) for path in MODULES
             for name in imported_names(ast.parse(path.read_text(encoding="utf-8")))}
    assert {("cli.py", "argparse"), ("elliptic.py", "find_field_roots"),
            ("quadfield.py", "isqrt"), ("covers.py", "HeisenbergElement")} <= found
    assert ("cli.py", "annotations") not in found


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = read_names(tree)
        unused += ["%s: %s" % (path.name, name)
                   for name in imported_names(tree) if name not in used]
    assert unused == []
