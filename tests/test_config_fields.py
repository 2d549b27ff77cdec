"""Every option has a reader and a setter.

The options are every field of the two planner configurations and every
defaulted field of the hardware and simulator descriptions (a required
field such as ``Machine.gpu`` is part of what is described, not an option).

A field that no code reads does nothing when set, so it does not belong in
a configuration.  The reader scan parses every module of ``src/repro`` and
collects attribute reads (``x.field`` in load context).  A read inside the
type's own ``__post_init__`` does not count, so validation alone is not a
use, and neither does a read in ``core/plancache.py``: a cache key built from
a value that nothing else reads only makes equal plans miss each other.

A field that only tests set is a code path no user of the library reaches.
The setter scan parses ``src/``, ``benchmarks/`` and ``examples/`` and
collects keyword arguments to one of the scanned types' constructors or
``dataclasses.replace`` (``SynthesisConfig(beam_width=8)``) and attribute
stores (``config.enable_sfb = False``, not ``self.x = ...``).  A field with
no such setter fails unless :data:`SET_ONLY_BY_TESTS` lists it with a
reason, and the same scan over ``tests/`` must find a setter for every
listed field: a knob that nothing sets at all should be a constant.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.cluster import DeviceType, Machine, NetworkSpec
from repro.core import HierarchicalConfig, SynthesisConfig
from repro.simulator import OverheadModel

CONFIG_TYPES = (SynthesisConfig, HierarchicalConfig)

#: Descriptions whose defaulted fields are options.
HARDWARE_TYPES = (Machine, NetworkSpec, DeviceType, OverheadModel)

FIELDS = [(t, f.name) for t in CONFIG_TYPES for f in dataclasses.fields(t)] + [
    (t, f.name)
    for t in HARDWARE_TYPES
    for f in dataclasses.fields(t)
    if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
]

FIELD_IDS = [f"{t.__name__}.{n}" for t, n in FIELDS]

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Reads here build cache keys, which is not a use.
NOT_A_USE = Path(repro.__file__).parent / "core" / "plancache.py"

#: Fields that nothing outside ``tests/`` sets, each with why it stays.
SET_ONLY_BY_TESTS = {
    "NetworkSpec.kernel_launch_overhead":
        "part of the network description, priced by collectives/cost.py",
    "OverheadModel.noise": "ROADMAP item 14 deletes the run-to-run noise",
}


class _AttributeReads(ast.NodeVisitor):
    """Attribute names read in load context, each with the class whose
    ``__post_init__`` it sits in (``None`` elsewhere)."""

    def __init__(self) -> None:
        self.scopes = []  # enclosing ("class" | "def", name), outermost first
        self.reads = set()  # (attribute name, post-init class or None)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scopes.append(("class", node.name))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scopes.append(("def", node.name))
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _post_init_class(self):
        for (kind, name), inner in zip(self.scopes, self.scopes[1:]):
            if kind == "class" and inner == ("def", "__post_init__"):
                return name
        return None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.reads.add((node.attr, self._post_init_class()))
        self.generic_visit(node)


@pytest.fixture(scope="module")
def attribute_reads():
    visitor = _AttributeReads()
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        if path != NOT_A_USE:
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.reads


@pytest.mark.parametrize("config_type,field_name", FIELDS, ids=FIELD_IDS)
def test_every_config_field_is_read(attribute_reads, config_type, field_name):
    assert any(
        name == field_name and owner != config_type.__name__
        for name, owner in attribute_reads
    ), f"nothing in src/repro reads {config_type.__name__}.{field_name}"


class _ConfigSets(ast.NodeVisitor):
    """Option names set by keyword or by attribute store."""

    CALLEES = {t.__name__ for t in CONFIG_TYPES + HARDWARE_TYPES} | {"replace"}

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


@pytest.mark.parametrize("config_type,field_name", FIELDS, ids=FIELD_IDS)
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
    assert set(SET_ONLY_BY_TESTS) <= set(FIELD_IDS)


def test_allowlisted_fields_are_set_by_tests():
    test_sets = _scan_sets("tests")
    unset = [name for name in SET_ONLY_BY_TESTS if name.split(".")[1] not in test_sets]
    assert not unset, f"nothing sets {unset}; make each a constant and drop it"
