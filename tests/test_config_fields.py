"""Every planner configuration field has a reader.

A field that no code reads does nothing when set, so it does not belong in
a configuration.  The scan parses every module of ``src/repro`` and collects
attribute reads (``x.field`` in load context) outside the field's own class
body, so ``__post_init__`` validation alone does not count as a use.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core import HierarchicalConfig, LoadBalancerConfig, PlannerConfig, SynthesisConfig

CONFIG_TYPES = (SynthesisConfig, LoadBalancerConfig, PlannerConfig, HierarchicalConfig)

FIELDS = [(t, f.name) for t in CONFIG_TYPES for f in dataclasses.fields(t)]


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
