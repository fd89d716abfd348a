"""No module of the package imports a name it never uses, none imports
a package module inside a function or method, and none imports another
package module's underscore (private) name.  Every module-level name of
the package but the dunders, private ones included, is reached from the
CLI or from a point the benchmark traces, and the package reads the name
of every method of its classes, so code that only tests run lives beside
the tests.  Every annotated
field of a package class is read by name somewhere in the package or its
tests, so a report carries no field that nothing looks at.

Only module-level imports are checked for use.  ``__init__.py`` re-exports
by design, and a name a module lists in ``__all__`` is a re-export too;
``from __future__`` imports are compiler directives, not names.  An import
inside a function body is how an import cycle between two modules hides,
so the package has none.
"""

import ast
import pathlib

from conftest import layer_points

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gpdgalois"
TESTS = pathlib.Path(__file__).resolve().parent


def unused_imports(path):
    """(line, name) for each module-level import the module never reads."""
    tree = ast.parse(path.read_text())
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported
            if name not in used and name not in exported]


def test_no_unused_imports():
    found = {
        path.name: unused_imports(path)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def nested_package_imports(path):
    """(line, module) for each import of a gpdgalois module, relative or
    absolute, inside a function or method body."""
    tree = ast.parse(path.read_text())
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                if name.startswith(".") or name.split(".")[0] == "gpdgalois":
                    found.add((node.lineno, name))
    return sorted(found)


def test_no_function_level_package_imports():
    found = {path.name: nested_package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def private_package_imports(path):
    """(line, module, name) for each underscore name the module imports
    from another module of the package, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if not (module.startswith(".") or module.split(".")[0] == "gpdgalois"):
            continue
        found += [(node.lineno, module, alias.name)
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_private_names_across_package_modules():
    found = {path.name: private_package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def defined_names(node) -> list:
    """The names a module-level statement defines: a function, a class,
    or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def referenced_names(node) -> set:
    """Every name and attribute name read anywhere inside node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreached_names(src) -> list:
    """(module, name) for each module-level name of the package at src,
    dunders aside, that no chain of references reaches from the roots: the
    names cli.py reads and the functions, classes and methods that
    bench/spans.py traces.  A name reaches every module-level statement
    that defines it, and a statement reaches every name its body reads;
    a class's body includes its methods.  A private name is listed too: a
    helper that only the tests call is code that only tests run."""
    defs: dict = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in defined_names(node):
                defs.setdefault(name, []).append((path.name, node))
    todo = referenced_names(ast.parse((src / "cli.py").read_text()))
    todo |= {part for _, point, _ in layer_points() for part in point.split(".")}
    reached: set = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, node in defs.get(name, []):
            todo |= referenced_names(node) - reached
    return sorted((module, name) for name, sites in defs.items() for module, _ in sites
                  if not (name.startswith("__") and name.endswith("__")) and name not in reached)


def test_every_public_name_is_reached_from_cli_or_bench():
    assert unreached_names(SRC) == []


def test_reachability_guard_names_an_unreached_function(tmp_path):
    (tmp_path / "cli.py").write_text("from .m import used\n\nused()\n")
    (tmp_path / "m.py").write_text(
        "__all__ = []\nLIMIT = 3\n_HIDDEN = 1\n\n\ndef used():\n    return _helper()\n\n\n"
        "def _helper():\n    return 1\n\n\ndef unused():\n    return LIMIT\n"
    )
    assert unreached_names(tmp_path) == [
        ("m.py", "LIMIT"), ("m.py", "_HIDDEN"), ("m.py", "unused")]


# FieldSpec.frobenius(x, e) is the field's Frobenius x -> x^(p^e) with its
# exponent range checked: the one named form of the maps the package reads
# through frobenius_table, and the one the field tests check them against.
UNREAD_METHODS_KEPT = {("scalar.py", "FieldSpec", "frobenius")}


def unread_methods(src) -> list:
    """(module, class, name) for each method or property of a class of the
    package at src whose name no module of the package reads as an
    attribute.  Python calls the dunder methods itself, so they are not
    listed.  A name read on any object counts, so a method that shares
    its name with one that is read passes unseen, except on ``args``: the
    CLI's argparse namespace holds options, not methods."""
    read, methods = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and not (isinstance(n.value, ast.Name) and n.value.id == "args")}
        methods += [
            (path.name, cls.name, fn.name)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
    return [(module, cls, name) for module, cls, name in methods
            if not (name.startswith("__") and name.endswith("__")) and name not in read]


def test_every_method_is_read_in_the_package():
    assert [m for m in unread_methods(SRC) if m not in UNREAD_METHODS_KEPT] == []


def test_method_guard_names_an_unread_method(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Ring:\n    def mul(self, x):\n        return x\n\n"
        "    def unused(self):\n        return 1\n\n"
        "    @property\n    def size(self):\n        return 2\n\n"
        "    def __len__(self):\n        return 3\n\n\n"
        "def square(R, x):\n    return R.mul(x)\n\n\n"
        "def main(args):\n    return args.unused\n"
    )
    assert unread_methods(tmp_path) == [("m.py", "Ring", "unused"), ("m.py", "Ring", "size")]


def unread_fields(src, readers) -> list:
    """(module, class, name) for each annotated field of a class of the
    package at src whose name no module in the directories readers reads
    as an attribute.  A name read on any object counts, as for methods."""
    read, fields = set(), []
    for directory in readers:
        for path in sorted(directory.glob("*.py")):
            read |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    for path in sorted(src.glob("*.py")):
        fields += [
            (path.name, cls.name, node.target.id)
            for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        ]
    return [(module, cls, name) for module, cls, name in fields if name not in read]


def test_every_field_is_read_in_the_package_or_its_tests():
    assert unread_fields(SRC, [SRC, TESTS]) == []


def test_field_guard_names_an_unread_field(tmp_path):
    # a field that is only written is not read
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass\nclass Report:\n"
        "    ok: bool\n    size: int\n    spare: int = 0\n\n\n"
        "def check(rep):\n    rep.spare = rep.size\n    return rep.ok\n"
    )
    assert unread_fields(tmp_path, [tmp_path]) == [("m.py", "Report", "spare")]
