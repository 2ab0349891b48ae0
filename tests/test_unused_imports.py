"""Every name a package module or a test file imports is used in that file.

`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import yyfilter

MODULES = sorted(p for p in Path(yyfilter.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", MODULES + TEST_FILES,
    ids=lambda p: p.name if p in MODULES else f"tests/{p.name}",
)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nfrom .tables import csv_table\n"
    assert _unused_imports(source) == [(2, "math"), (3, "csv_table")]
    assert _unused_imports(source + "math.pi\ncsv_table\n") == []
