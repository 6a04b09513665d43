"""Import hygiene: the runtime imports only the standard library, and uses what it imports.

One module makes every fill decision: only ``horn`` names the fill tables and fills, or
reads a projection's factor mark.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "degenforge").glob("*.py")
                 if p.name != "__init__.py")


def _imports(tree: ast.Module):
    """(bound name, top-level module or None for a relative import) per imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = node.module.partition(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield alias.asname or alias.name, top


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_a_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    outside = sorted({top for _, top in _imports(tree)
                      if top is not None and top not in sys.stdlib_module_names})
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(name for name, _ in _imports(tree) if name not in used) == []


def test_only_the_command_line_touches_the_collector():
    # the library never pauses or runs the cyclic collector; ``cli.run`` pauses it per command
    package = SOURCES[0].parent
    importers = [p.name for p in sorted(package.glob("*.py"))
                 if "gc" in {top for _, top in _imports(ast.parse(p.read_text(encoding="utf-8")))}]
    assert importers == ["cli.py"]


# the names that make a fill decision: the tables it reads, the fills from them, and the mark
FILL_NAMES = {"_lowest", "_separates", "_spanned_fill", "_pair_fill"}


def _fill_uses(tree: ast.Module):
    """(name, line, stored) for every use of a fill name, and every ``.factor`` attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FILL_NAMES:
            yield node.id, node.lineno, isinstance(node.ctx, ast.Store)
        elif isinstance(node, ast.alias) and node.name in FILL_NAMES:
            yield node.name, node.lineno, False
        elif isinstance(node, ast.Attribute) and (node.attr in FILL_NAMES or node.attr == "factor"):
            yield node.attr, node.lineno, isinstance(node.ctx, ast.Store)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "horn.py"], ids=lambda p: p.name)
def test_only_horn_decides_a_fill(path):
    # horn._fill is the one fill rule: no other module reads a fill table, fills from one, or
    # reads a projection's factor mark; sset stores the tables' caches and the mark on the
    # objects, and product is what marks a projection
    uses = list(_fill_uses(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name == "sset.py":
        uses = [use for use in uses if not use[2]]
    assert uses == []
