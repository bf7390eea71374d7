"""Every name a module of lndkit imports is read in that module.

A deletion that leaves an import behind leaves a dead name; this test
finds it. A name counts as read when the module loads it as a name
(annotations included) or lists it in ``__all__``, the re-export list of
the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lndkit"


def imported_names(tree):
    """(bound name, line) of each module-level and nested import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield name, node.lineno


def read_names(tree):
    """Names loaded anywhere in the module, and the strings of ``__all__``."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return read


def test_every_imported_name_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unread = []
    for path in modules:
        tree = ast.parse(path.read_text())
        read = read_names(tree)
        unread += [f"{path.name}:{line}: {name}"
                   for name, line in imported_names(tree) if name not in read]
    assert not unread, "imported but never read: " + ", ".join(unread)


def test_an_unread_import_is_reported():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\n"
                     "__all__ = ['lcm']\nprint(gcd)\n")
    read = read_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in read] == ["os"]
