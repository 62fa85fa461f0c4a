"""The exit-code contract: every error the package raises is one of five classes.

``cli.main`` maps ``InvalidParams`` to exit 2 and ``NumericalError`` to exit
3; any other exception escapes as a traceback and exit 1.  These tests scan
the package source, so a stray ``ValueError`` or a new error class fails
here rather than at the command line.  Sizes and counts are bounded in one
place: ``linalg.as_integer`` with a minimum, so only ``linalg`` names
``MAX_LENGTH``.  The same scan keeps one normal-draw loop
(``processes._fill_column``), one column-seed rule
(``ErrorMatrixSpec.column_draws``), one nested-spec reader
(``linalg.as_spec``, beside the two config loaders of ``cli``), one
kind guard (``linalg.check_kind``) and one check that beta and the error
columns agree with the design (``model.check_model``).  Each process kind
is named only in its ``processes.KINDS`` row and its factory function, and
no process module branches on a kind.  ``cli`` states no numeric flag
default: each belongs to the config class that reads it.
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


# Each name, or string part, may be used at its own sites only: the draw loop
# every process filters after, the rule that gives error-matrix column j its
# stream seed, the reader of a nested spec (the two config files are read at
# the top), the guard that refuses a field its kind does not read, and the
# check that beta and the error columns agree with the design.
ONE_SITE = {
    "standard_normal": ["processes.py:_fill_column"],
    "column_subseed": ["processes.py:ErrorMatrixSpec.column_draws"],
    "PCG64": ["seeding.py:stream", "seeding.py:bit_generators"],
    "from_dict": ["cli.py:_load_experiment", "cli.py:_cmd_clt_check", "linalg.py:as_spec"],
    " takes no ": ["linalg.py:check_kind"],
    " entries, design has p=": ["model.py:check_model"],
    " columns, expected p + 1 = ": ["model.py:check_model"],
}


def _sites() -> dict:
    """The sites where each entry of ``ONE_SITE`` is used in the package source."""
    found = {name: [] for name in ONE_SITE}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            site = f"{path.name}:{'.'.join(scope)}"
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name in found:
                found[name].append(site)
            # A key that starts with a space is message text: it is looked for in
            # string constants, the literal parts of f-strings included.
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                for part in found:
                    if part.startswith(" ") and part in child.value:
                        found[part].append(site)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, path, scope + (child.name,) if named else scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, ())
    return found


def test_one_draw_loop_and_one_column_seed_rule():
    found = _sites()
    for name in ("standard_normal", "column_subseed"):
        assert found[name] == ONE_SITE[name]


def test_generators_are_built_in_seeding_alone():
    # The reference stream and the many-seed bit generators; no other module seeds one.
    assert _sites()["PCG64"] == ONE_SITE["PCG64"]


def test_one_nested_spec_reader_and_one_kind_guard():
    found = _sites()
    for name in ("from_dict", " takes no "):
        assert found[name] == ONE_SITE[name]


def test_one_model_agreement_check():
    found = _sites()
    for part in (" entries, design has p=", " columns, expected p + 1 = "):
        assert found[part] == ONE_SITE[part]


def test_each_process_kind_is_named_in_its_row_and_its_factory():
    kinds = ("iid_gaussian", "ma", "ar1")
    named, compared = {kind: set() for kind in kinds}, []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            # A statement is known by the name it binds: a function, a class or a table.
            name = ast.unparse(top.targets[0]) if isinstance(top, ast.Assign) else None
            site = f"{path.name}:{name or getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and node.value in named:
                    named[node.value].add(site)
                sides = (node.left, *node.comparators) if isinstance(node, ast.Compare) else ()
                if path.name in ("processes.py", "mixing.py") and any(
                    getattr(side, "attr", None) == "kind" for side in sides
                ):
                    compared.append(f"{path.name}:{node.lineno}")
    assert named == {kind: {"processes.py:KINDS", f"processes.py:{kind}"} for kind in kinds}
    assert not compared


def test_cli_states_no_number_default():
    path = next(path for path in SOURCES if path.name == "cli.py")
    stated = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"):
            continue
        for keyword in node.keywords:
            if keyword.arg != "default":
                continue
            try:
                value = ast.literal_eval(keyword.value)
            except ValueError:
                continue
            if type(value) in (int, float):
                stated.append(f"cli.py:{node.lineno}: default={value!r}")
    assert not stated
