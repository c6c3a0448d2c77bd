"""Every imported name is read somewhere in its module.

A stand-in for a linter's unused-import rule (F401), which no CI step
runs: it parses the package's modules (except ``__init__.py``, whose
imports are its exports) and the test modules.  An import whose line says
``# noqa: F401`` is kept on purpose and skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "rootcons").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def unused_imports(path: Path) -> list:
    """(line, name) of each name ``path`` imports and never reads."""
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        imported += [(a.lineno, name) for a, name in names if "noqa: F401" not in lines[a.lineno - 1]]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport os.path as osp\nfrom json import dumps, loads  # noqa: F401\n"
        "from typing import (\n    List,\n    Optional,\n)\n\nx: Optional[int] = osp\n"
    )
    assert unused_imports(module) == [(1, "os"), (5, "List")]
