"""The exit-code contract: every error the package raises is one of five classes.

``cli.main`` maps ``InvalidParams`` to exit 2 and ``NumericalError`` to exit
3; any other exception escapes as a traceback and exit 1.  These tests scan
the package source, so a stray ``ValueError`` or a new error class fails
here rather than at the command line.  Sizes and counts are bounded in one
place: ``linalg.as_integer`` with a minimum, so only ``linalg`` names
``MAX_LENGTH``.
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
