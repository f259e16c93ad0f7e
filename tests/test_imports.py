"""Every module under src/ and tests/ uses each name it imports.

Package `__init__.py` files are skipped (their imports are re-exports), as
are `from __future__` imports. A name counts as used when it appears as a
Name node anywhere in the module, including as the base of an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
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
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_detected():
    src = "import os\nimport a.b\nfrom c import d, e as f\nfrom __future__ import annotations\nd(a)\n"
    assert unused_imports(src) == ["os (line 1)", "f (line 3)"]


def test_no_unused_imports():
    found = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                names = unused_imports(path.read_text(encoding="utf-8"))
                found += [f"{path.relative_to(ROOT)}: {name}" for name in names]
    assert found == []
