"""Every planner configuration field has a reader and a setter.

A field that no code reads does nothing when set, so it does not belong in
a configuration.  The reader scan parses every module of ``src/repro`` and
collects attribute reads (``x.field`` in load context) outside the field's
own class body, so ``__post_init__`` validation alone does not count as a
use.

A field that only tests set is a code path no user of the library reaches.
The setter scan parses ``src/``, ``benchmarks/`` and ``examples/`` and
collects keyword arguments to a config constructor or
``dataclasses.replace`` (``SynthesisConfig(beam_width=8)``) and attribute
stores (``config.enable_load_balancer = False``, not ``self.x = ...``).  A
field with no such setter fails unless :data:`SET_ONLY_BY_TESTS` lists it
with a reason, and the same scan over ``tests/`` must find a setter for every
listed field: a knob that nothing sets at all should be a constant.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core import HierarchicalConfig, SynthesisConfig

CONFIG_TYPES = (SynthesisConfig, HierarchicalConfig)

FIELDS = [(t, f.name) for t in CONFIG_TYPES for f in dataclasses.fields(t)]

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Fields that nothing outside ``tests/`` sets, each with why it stays.
SET_ONLY_BY_TESTS = {
    "SynthesisConfig.search_strategy":
        "the exact oracle the tests check the beam search against",
}


class _AttributeReads(ast.NodeVisitor):
    """Attribute names read in load context, with their enclosing classes."""

    def __init__(self) -> None:
        self.classes = []
        self.reads = set()  # (attribute name, enclosing class names)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.reads.add((node.attr, tuple(self.classes)))
        self.generic_visit(node)


@pytest.fixture(scope="module")
def attribute_reads():
    visitor = _AttributeReads()
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.reads


@pytest.mark.parametrize(
    "config_type,field_name", FIELDS, ids=[f"{t.__name__}.{n}" for t, n in FIELDS]
)
def test_every_config_field_is_read(attribute_reads, config_type, field_name):
    assert any(
        name == field_name and config_type.__name__ not in classes
        for name, classes in attribute_reads
    ), f"nothing in src/repro reads {config_type.__name__}.{field_name}"


class _ConfigSets(ast.NodeVisitor):
    """Config-field names set by keyword or by attribute store."""

    CALLEES = {t.__name__ for t in CONFIG_TYPES} | {"replace"}

    def __init__(self) -> None:
        self.sets = set()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if callee in self.CALLEES:
            self.sets.update(kw.arg for kw in node.keywords if kw.arg is not None)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if isinstance(node.ctx, ast.Store) and not on_self:
            self.sets.add(node.attr)
        self.generic_visit(node)


def _scan_sets(*tops):
    visitor = _ConfigSets()
    for top in tops:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.sets


@pytest.fixture(scope="module")
def config_sets():
    return _scan_sets("src", "benchmarks", "examples")


@pytest.mark.parametrize(
    "config_type,field_name", FIELDS, ids=[f"{t.__name__}.{n}" for t, n in FIELDS]
)
def test_every_config_field_is_set_outside_tests(config_sets, config_type, field_name):
    qualified = f"{config_type.__name__}.{field_name}"
    if qualified in SET_ONLY_BY_TESTS:
        assert field_name not in config_sets, (
            f"{qualified} is now set outside tests/; drop it from SET_ONLY_BY_TESTS"
        )
    else:
        assert field_name in config_sets, (
            f"only tests set {qualified}; delete it, or add it to SET_ONLY_BY_TESTS with a reason"
        )


def test_allowlist_names_real_fields():
    qualified = {f"{t.__name__}.{n}" for t, n in FIELDS}
    assert set(SET_ONLY_BY_TESTS) <= qualified


def test_allowlisted_fields_are_set_by_tests():
    test_sets = _scan_sets("tests")
    unset = [name for name in SET_ONLY_BY_TESTS if name.split(".")[1] not in test_sets]
    assert not unset, f"nothing sets {unset}; make each a constant and drop it"
