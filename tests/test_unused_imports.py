"""No module of the package imports a name it never reads.

``__init__.py`` is exempt, since its imports are the package's exports,
and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liemarkov"


def _unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_read(name):
    assert _unread_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom json import dumps as d, loads\nd(sys.argv)\n"
    assert _unread_imports(source) == ["loads", "os"]
