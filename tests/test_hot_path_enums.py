"""No Enum tax on the per-event paths.

The kernel touches a thread state on every context switch, and the
runtime, the manager and the bus subscribers touch a state event on
every PREPARE/ENTER/HOLD/UNHOLD.  On CPython 3.11 a member loaded
through its class (``ThreadState.READY``) costs ~100 ns more than a
module global bound to the same member, and ``.value``/``.name`` run a
Python-level property (docs/PERFORMANCE.md, "Enum members on the hot
path").  So each module that defines a hot enum exports its members as
module names, and the modules below use those names inside function
bodies; a subscriber reads ``_value_``/``_name_`` off a state event.

The walk covers function bodies only: argument defaults are evaluated
once, when the ``def`` runs, and may name a member through its class.
"""

import ast
import functools
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: Modules on the per-event paths, relative to ``src/repro``.
HOT_MODULES = (
    "sim/kernel.py",
    "sim/scheduler.py",
    "sim/thread.py",
    "core/events.py",
    "core/pbox.py",
    "core/rules.py",
    "core/runtime.py",
    "core/manager.py",
    "core/trace.py",
    "apps/base.py",
    "apps/eventdriven.py",
    "obs/spans.py",
    "obs/metrics.py",
    "obs/telemetry.py",
    "obs/attribution.py",
    "obs/critpath.py",
)

#: Hot enums and the modules that export their members as names.
HOT_ENUMS = (
    ("repro.sim.thread", "ThreadState"),
    ("repro.core.events", "StateEvent"),
    ("repro.core.pbox", "PBoxStatus"),
    ("repro.core.runtime", "BindFlag"),
    ("repro.core.rules", "Metric"),
)

_ENUM_BASES = {"Enum", "IntEnum", "Flag", "IntFlag"}


def _parse(path):
    with open(path) as handle:
        return ast.parse(handle.read(), filename=path)


@functools.lru_cache(maxsize=None)
def repo_enum_classes():
    """Names of the classes under ``src/repro`` that subclass an Enum."""
    names = set()
    for folder, _dirs, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            for node in ast.walk(_parse(os.path.join(folder, name))):
                if not isinstance(node, ast.ClassDef):
                    continue
                for base in node.bases:
                    base_name = (base.attr if isinstance(base, ast.Attribute)
                                 else getattr(base, "id", None))
                    if base_name in _ENUM_BASES:
                        names.add(node.name)
    return frozenset(names)


def _is_event_field(node):
    """``fields["event"]`` or ``fields.get("event")``."""
    if isinstance(node, ast.Subscript):
        key = node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "get" and node.args):
        key = node.args[0]
        node = node.func
    else:
        return False
    return (isinstance(node.value, ast.Name) and node.value.id == "fields"
            and isinstance(key, ast.Constant) and key.value == "event")


class _BodyWalk(ast.NodeVisitor):
    """Enum taxes inside function bodies, as ``(line, source)`` pairs."""

    def __init__(self, enums, source):
        self.enums = set(enums)
        self.source = source
        self.depth = 0
        self.found = []

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.name in self.enums and alias.asname:
                self.enums.add(alias.asname)

    def visit_FunctionDef(self, node):
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.visit(node.args)
        self.depth += 1
        for statement in node.body:
            self.visit(statement)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.visit(node.args)
        self.depth += 1
        self.visit(node.body)
        self.depth -= 1

    def visit_Attribute(self, node):
        if self.depth and isinstance(node.ctx, ast.Load):
            owner = node.value
            owner_name = (owner.attr if isinstance(owner, ast.Attribute)
                          else getattr(owner, "id", None))
            if (owner_name in self.enums
                    or (node.attr in ("value", "name")
                        and _is_event_field(owner))):
                self.found.append((node.lineno, ast.get_source_segment(
                    self.source, node)))
        self.generic_visit(node)


def enum_taxes(path, enums):
    """Every enum tax in the function bodies of the module at ``path``."""
    with open(path) as handle:
        source = handle.read()
    walk = _BodyWalk(enums, source)
    walk.visit(ast.parse(source, filename=path))
    return walk.found


def test_repo_enum_classes_are_found():
    assert {name for _module, name in HOT_ENUMS} <= repo_enum_classes()


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_enum_tax_in_function_bodies(module):
    found = enum_taxes(os.path.join(SRC, module), repo_enum_classes())
    assert not found, "%s: %s" % (module, ", ".join(
        "line %d %s" % hit for hit in found))


@pytest.mark.parametrize("module, enum", HOT_ENUMS)
def test_members_are_exported_as_themselves(module, enum):
    namespace = importlib.import_module(module)
    for member in getattr(namespace, enum):
        assert getattr(namespace, member._name_) is member


def test_walk_catches_each_tax(tmp_path):
    path = tmp_path / "hot.py"
    path.write_text(
        "from repro.core.events import StateEvent as SE\n"
        "def push(thread, state=ThreadState.NEW):\n"
        "    thread.state = ThreadState.READY\n"
        "def on_event(_name, now, fields):\n"
        "    return fields['event'].value, fields.get('event').name\n"
        "check = lambda event: event is SE.HOLD\n")
    found = enum_taxes(str(path), {"ThreadState", "StateEvent"})
    assert [line for line, _source in found] == [3, 5, 5, 6]
