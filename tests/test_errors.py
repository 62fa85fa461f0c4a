"""The exit-code contract: every error the package raises is one of five classes.

``cli.main`` maps ``InvalidParams`` to exit 2 and ``NumericalError`` to exit
3; any other exception escapes as a traceback and exit 1.  These tests scan
the package source, so a stray ``ValueError`` or a new error class fails
here rather than at the command line.  Sizes and counts are bounded in one
place: ``linalg.as_integer`` with a minimum, so only ``linalg`` names
``MAX_LENGTH``.  The same scan keeps one normal-draw loop
(``processes._fill_column``) and one column-seed rule
(``ErrorMatrixSpec.column_draws``).
"""

import ast
from pathlib import Path

import pytest

import eivtls
from eivtls import errors
from eivtls.estimator import FIT_FAILURES

CLASSES = {"EivError", "InvalidParams", "NumericalError", "NonGeneric", "IllConditioned"}
SOURCES = sorted(Path(eivtls.__file__).parent.glob("*.py"))


def test_errors_module_defines_the_five_classes():
    tree = ast.parse(Path(errors.__file__).read_text(encoding="utf-8"))
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == CLASSES


def test_fit_failures_are_the_two_tls_failures():
    assert {error for error, _ in FIT_FAILURES.values()} == {errors.NonGeneric, errors.IllConditioned}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_names_one_of_the_five(path):
    stray = []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if exc is None:  # not a raise, or a bare re-raise
            continue
        name = exc.func.id if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) else None
        # tls_fit raises the class it looks up in FIT_FAILURES.
        if name in CLASSES or (name == "error" and path.name == "estimator.py"):
            continue
        stray.append(f"{path.name}:{node.lineno}: raise {ast.unparse(exc)}")
    assert not stray


def test_only_linalg_names_the_size_bound():
    named = []
    for path in SOURCES:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "MAX_LENGTH":
                named.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not named


# Each name may be used at one site only: the draw loop every process filters
# after, and the rule that gives error-matrix column j its stream seed.
ONE_SITE = {
    "standard_normal": ["processes.py:_fill_column"],
    "column_subseed": ["processes.py:ErrorMatrixSpec.column_draws"],
}


def test_one_draw_loop_and_one_column_seed_rule():
    found = {name: [] for name in ONE_SITE}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name in found:
                found[name].append(f"{path.name}:{'.'.join(scope)}")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, path, scope + (child.name,) if named else scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, ())
    assert found == ONE_SITE
