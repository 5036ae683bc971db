"""Every public name is one object with a reader outside the unit tests.

A name counts as read when an AST `Name` or `Attribute` node loads it
outside the name's own definition, in the package, the demos, the
benchmark or the acceptance tests.  Imports, `__all__` entries and other
strings do not count, and names are matched by identifier alone, so a
read of any `.weight` counts for every public `weight`.
"""

import ast
import inspect
import sys
from collections import defaultdict
from pathlib import Path

import girardlab
from girardlab import cli

ROOT = Path(__file__).resolve().parents[1]
SCANNED = [
    *sorted((ROOT / "src" / "girardlab").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

# Exported names with no reader, each kept for the reason beside it.
UNREAD = {
    "stirling2": "the closed form the tests hold powersum._stirling2_row against",
    "colored_cycles": "named only as a string in perfbench/tracer.py's LAYERS",
    "total_subdigraph_sum": "named only as a string in perfbench/tracer.py's LAYERS",
}


class _Reads(ast.NodeVisitor):
    """(identifier, enclosing def and class names) of each load."""

    def __init__(self):
        self.scope = ()
        self.reads = []

    def _enter(self, node):
        outer, self.scope = self.scope, (*self.scope, node.name)
        self.generic_visit(node)
        self.scope = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.append((node.id, self.scope))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.append((node.attr, self.scope))
        self.generic_visit(node)


def _reads() -> dict[str, list[tuple[Path, tuple]]]:
    """identifier -> (file, scope) of each load of it in `SCANNED`."""
    out = defaultdict(list)
    for path in SCANNED:
        visitor = _Reads()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        for name, scope in visitor.reads:
            out[name].append((path, scope))
    return out


def _public_names():
    """(name, defining file, scope of its definition) of each name of
    `girardlab.__all__` and `girardlab.cli.__all__`, and of each public
    class attribute (method, property or field) of an exported class or
    of a package class it derives from."""
    modules = [m for m in vars(girardlab).values() if inspect.ismodule(m)]
    for name in [*girardlab.__all__, *cli.__all__]:
        home = next(m for m in modules if name in getattr(m, "__all__", ()))
        yield name, Path(home.__file__), (name,)
        obj = getattr(home, name)
        if inspect.isclass(obj):
            for cls in obj.__mro__:
                if cls.__module__.startswith("girardlab"):
                    path = Path(sys.modules[cls.__module__].__file__)
                    for member in vars(cls):
                        if not member.startswith("_"):
                            yield member, path, (cls.__name__, member)


def test_no_two_exported_names_are_one_object():
    names = defaultdict(list)
    for name in girardlab.__all__:
        names[id(getattr(girardlab, name))].append(name)
    assert [group for group in names.values() if len(group) > 1] == []


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    reads = _reads()
    unread = set()
    for name, path, definition in _public_names():
        path = path.resolve()
        if all(where == path and scope[:len(definition)] == definition
               for where, scope in reads[name]):
            unread.add(".".join(definition))
    assert unread == set(UNREAD)
