"""Every private name of the package is used somewhere besides its
definition: a helper that nothing calls is dead code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heiscurve"
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined_names(tree):
    """Names bound at module level by a def, class or assignment, and the
    methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def private_names():
    return sorted(
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name in set(_defined_names(ast.parse(path.read_text(encoding="utf-8"))))
        if _is_private(name)
    )


def test_the_scan_finds_names():
    names = {name for _, name in private_names()}
    assert {"_reduce", "_cyclic_split", "_word", "_DISPATCH"} <= names


def test_every_private_name_is_used():
    text = "\n".join(p.read_text(encoding="utf-8") for p in SOURCES)
    unused = [
        "%s: %s" % (module, name)
        for module, name in private_names()
        if len(re.findall(r"(?<!\w)%s(?!\w)" % re.escape(name), text)) < 2
    ]
    assert unused == []
