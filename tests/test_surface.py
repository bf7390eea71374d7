"""Every public name of lndkit has a caller outside the tests.

A function, class or method that only tests call belongs in the tests: as
a reference implementation in ``oracles.py``, or nowhere. A name counts as
called when lndkit itself or the benchmark harness in ``perfbench/``
refers to it: a module-level name by name, import or attribute, a method
by attribute. A public dataclass field counts as read when one of them
loads an attribute of that name.
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


def dataclass_fields(tree):
    """(class name, field name) of the public fields of each module-level
    dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                (dec.func if isinstance(dec, ast.Call) else dec).id == "dataclass"
                for dec in node.decorator_list):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and not sub.target.id.startswith("_"):
                    yield node.name, sub.target.id


def attributes_read(trees):
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_outside_the_tests():
    # a field that only tests read is a result nobody asked for; like a
    # method, it is matched by its bare name, so a field that shares its
    # name with an attribute read elsewhere passes unseen
    src = parse_all(ROOT / "src" / "lndkit")
    read = attributes_read(list(src.values())
                           + list(parse_all(ROOT / "perfbench").values()))
    fields = [(module, cls, name) for module, tree in src.items()
              for cls, name in dataclass_fields(tree)]
    assert len(fields) > 40
    unread = [f"{module}:{cls}.{name}" for module, cls, name in fields
              if name not in read]
    assert not unread, "fields no module reads: " + ", ".join(unread)


def test_an_unread_dataclass_field_is_reported():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
                     "@dataclass\nclass B:\n    z: int\n    _w: int\n"
                     "class C:\n    v: int\n")
    assert list(dataclass_fields(tree)) == [("A", "x"), ("A", "y"), ("B", "z")]
    read = attributes_read([tree, ast.parse("a.x = 1\nprint(a.y, b.w)\n")])
    assert [f for _, f in dataclass_fields(tree) if f not in read] == ["x", "z"]


# The checks above match a method or a field by its bare name and exempt
# dunders. So they cannot see a method or field that only tests read when
# another class's method or field of the same name is read, nor a dunder
# that nothing in lndkit uses. These pins fail on any change to those sets:
# check the readers of each name by hand, then update the pin.
SHARED_METHOD_NAMES = {"apply", "is_zero"}
SHARED_FIELD_NAMES = {"generators", "complete", "maximal", "witness", "order",
                      "maximality", "symmetries", "derivation"}
DUNDERS = {
    "Polynomial": {"__slots__", "__init__", "__eq__", "__str__", "__repr__"},
    "ParamPoly": {"__slots__", "__init__", "__add__", "__mul__", "__eq__",
                  "__str__", "__repr__"},
}


def class_body_names(tree):
    """(class name, name) of every method defined and name assigned in the
    body of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield node.name, sub.name
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            yield node.name, target.id


def test_shared_method_names_and_polynomial_dunders_are_pinned():
    owners, dunders = {}, {}
    for tree in parse_all(ROOT / "src" / "lndkit").values():
        for cls, name in class_body_names(tree):
            if name.startswith("__") and name.endswith("__"):
                dunders.setdefault(cls, set()).add(name)
            elif not name.startswith("_"):
                owners.setdefault(name, set()).add(cls)
    assert {name for name, classes in owners.items() if len(classes) > 1} \
        == SHARED_METHOD_NAMES
    assert {cls: dunders.get(cls) for cls in DUNDERS} == DUNDERS


def test_shared_field_names_are_pinned():
    owners = {}
    for tree in parse_all(ROOT / "src" / "lndkit").values():
        for cls, name in dataclass_fields(tree):
            owners.setdefault(name, set()).add(cls)
    assert {name for name, classes in owners.items() if len(classes) > 1} \
        == SHARED_FIELD_NAMES
