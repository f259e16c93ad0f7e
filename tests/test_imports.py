"""Every module under src/ and tests/ uses each name it imports, and every
module-level private name in src/ is referenced somewhere in src/.

Package `__init__.py` files are skipped (their imports are re-exports), as
are `from __future__` imports. A name counts as used when it appears as a
Name node anywhere in the module, including as the base of an attribute.
A private name (one leading underscore: a `def`, a `class` or an assignment
at module level) counts as referenced when some src/ module loads it as a
Name, reads it as an attribute or imports it.
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


def private_definitions(source: str) -> dict[str, int]:
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def referenced_names(source: str) -> set[str]:
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_unused_private_names_detected():
    src = "_A = 1\n_B, C = 2, 3\n__all__ = []\ndef _f():\n    return _A\nclass _K:\n    pass\n"
    assert private_definitions(src) == {"_A": 1, "_B": 2, "_f": 4, "_K": 6}
    assert referenced_names(src) & set(private_definitions(src)) == {"_A"}


def test_no_unused_private_names():
    sources = {
        path.relative_to(ROOT): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    refs = set().union(*(referenced_names(text) for text in sources.values()))
    found = [
        f"{path}: {name} (line {line})"
        for path, text in sources.items()
        for name, line in private_definitions(text).items()
        if name not in refs
    ]
    assert found == []
