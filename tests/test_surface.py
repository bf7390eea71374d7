"""Every public name of lndkit has a caller outside the tests.

A function, class or method that only tests call belongs in the tests: as
a reference implementation in ``oracles.py``, or nowhere. A name counts as
called when lndkit itself or the benchmark harness in ``perfbench/``
refers to it: a module-level name by name, import or attribute, a method
by attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_all(directory):
    return {p.name: ast.parse(p.read_text()) for p in sorted(directory.glob("*.py"))}


def public_definitions(tree):
    """(qualified name, name, is method) of the public module-level defs and
    classes, and of the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name, True


def references(trees):
    """Identifiers read as names or imported, and attribute names read."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_name_has_a_caller_outside_the_tests():
    src = parse_all(ROOT / "src" / "lndkit")
    names, attrs = references(list(src.values())
                              + list(parse_all(ROOT / "perfbench").values()))
    uncalled = [f"{module}:{qualified}"
                for module, tree in src.items()
                for qualified, name, is_method in public_definitions(tree)
                if name not in attrs and (is_method or name not in names)]
    assert len(src) > 5
    assert not uncalled, "called only from tests: " + ", ".join(uncalled)
