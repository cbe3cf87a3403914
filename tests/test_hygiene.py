"""Source hygiene: every imported name in the package is used.

Parses ``src/proofkit/*.py`` with ``ast``; the package ``__init__``
re-exports names, and ``from __future__ import annotations`` is a
compiler directive, so both are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "proofkit"


def _annotation_names(tree) -> set:
    """Names inside string annotations such as ``left: "Formula"``."""
    out = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                expr = ast.parse(a.value, mode="eval")
                out |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return out


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return [name for name in imported if name not in used]


def test_modules_use_every_imported_name():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules, "no modules found under %s" % SRC
    unused = {p.name: unused_imports(p) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}
