"""The package has one error vocabulary: the five categories of
``errors.py``, each of which the CLI maps to a status.

``errors.py`` defines the categories and the one base that holds the
witness, and nothing else; no other module defines an exception class;
every ``raise`` names a category (or a constructor on one, such as
``ValidationError.axiom``) or a builtin exception, or re-raises.
"""

import ast
import builtins
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gpdgalois"
CATEGORIES = {
    "ValidationError", "InvalidInput", "SizeBoundExceeded", "HypothesisFailure",
    "OracleMismatch",
}
BUILTIN_ERRORS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def raised_names(tree):
    """(line, name) for each raise: the class it names, or the class whose
    constructor it calls; re-raises are skipped."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Attribute):
            exc = exc.value
        out.append((node.lineno, exc.id if isinstance(exc, ast.Name) else ast.dump(exc)))
    return out


def test_errors_defines_only_the_categories():
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == CATEGORIES | {"_Error"}


def test_no_other_module_defines_an_exception():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                if bases & (CATEGORIES | BUILTIN_ERRORS):
                    found.setdefault(path.name, []).append(node.name)
    assert found == {}


def test_every_raise_names_a_category_or_a_builtin():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for line, name in raised_names(ast.parse(path.read_text())):
            if name not in CATEGORIES | BUILTIN_ERRORS:
                found.setdefault(path.name, []).append((line, name))
    assert found == {}
