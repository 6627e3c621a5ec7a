"""Every name the package exports is used by the package itself.

A name that ``blverify/__init__.py`` exports but no module of the package
calls is kept alive only by its tests: a second implementation or a dead
wrapper.  Such a name belongs in ``tests/`` as an oracle.  The scan reads
the source with ``ast``; a name that the benchmark's tracer wraps counts as
used, because a traced run replaces it.
"""

import ast
from pathlib import Path

from test_tracer_targets import _load_tracer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blverify"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


class _Uses(ast.NodeVisitor):
    """Names read anywhere, except inside the ``def`` or ``class`` that
    defines them; import lists and the strings of ``__all__`` hold no
    ``Name`` or ``Attribute`` nodes, so they never count."""

    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _visit_definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_definition
    visit_ClassDef = _visit_definition

    def _use(self, name: str) -> None:
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def used_names() -> set[str]:
    uses = _Uses()
    for path in sorted(PACKAGE.glob("*.py")):
        uses.visit(ast.parse(path.read_text(), filename=str(path)))
    return uses.names


def test_every_export_has_a_caller_in_the_package():
    traced = {attr for _, attr, _, _ in _load_tracer().blverify_targets()}
    unused = sorted(exported_names() - used_names() - traced)
    assert not unused, (f"exported but used only outside the package: "
                        f"{unused}; move them into tests/ as oracles")


def test_scan_sees_a_name_used_only_in_its_own_definition():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\n"
                     "class C:\n    x = C\n\n"
                     "def g():\n    return f(0)\n")
    uses = _Uses()
    uses.visit(tree)
    assert "f" in uses.names and "C" not in uses.names and "g" not in uses.names
