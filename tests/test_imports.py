"""Import hygiene: the runtime imports only the standard library, and uses what it imports."""

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
