"""Source hygiene: every imported name in the package is used, every
module-level function and class of the package is used somewhere, and
the package's module-level tables and caches are the known ones.

Parses ``src/proofkit/*.py`` with ``ast``; the package ``__init__``
re-exports names, and ``from __future__ import annotations`` is a
compiler directive, so both are exempt.  A definition counts as used
when its name, or an attribute of its module by that name, is read in
``src/``, ``tests/`` or ``perfbench/`` outside its own body and outside
``__init__.py`` files.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "proofkit"
SCANNED = ("src", "tests", "perfbench")


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


def _module_aliases(tree) -> dict:
    """Local names bound to package modules, such as ``fin`` in
    ``from . import finitary as fin``, mapped to the module's name."""
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (
            n.module == "proofkit" or (n.level == 1 and n.module is None)
        ):
            out.update({a.asname or a.name: a.name for a in n.names})
    return out


def _references(node, aliases: dict) -> set:
    """What a syntax tree reads: bare names, names in string annotations,
    and ``module.name`` for an attribute of a package module.  An
    attribute of anything else, such as a method call, names no
    module-level definition."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            if n.value.id in aliases:
                out.add("%s.%s" % (aliases[n.value.id], n.attr))
    return out | _annotation_names(node)


def unreferenced_definitions() -> dict:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    }
    aliases = {path: _module_aliases(tree) for path, tree in trees.items()}
    refs = {path: _references(tree, aliases[path]) for path, tree in trees.items()}
    dead = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = trees[path].body
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        for i, stmt in enumerate(body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            used = elsewhere.union(*(
                _references(s, aliases[path]) for j, s in enumerate(body) if j != i))
            if not {stmt.name, "%s.%s" % (path.stem, stmt.name)} & used:
                dead.setdefault(path.name, []).append(stmt.name)
    return dead


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == {}


#: The module-level tables a function of the package writes into, and
#: its ``lru_cache``d functions.  Each lives as long as the process, so
#: one more is a decision, not a detail: add it here with its reason.
KNOWN_TABLES = {
    "ordinals._INTERNED",  # one object per ordinal code
    # ordinal arithmetic and checks, by interned argument
    "ordinals.cnf_is_valid",
    "ordinals.validate_nf",
    "ordinals._parts",
    "ordinals._cmp",
    "ordinals.add",
    "ordinals.omega_exp",
    "ordinals.render",
    "universe._hf_by_rank",  # the hereditarily finite sets by rank
}


def _decorator_name(d) -> str:
    if isinstance(d, ast.Call):
        d = d.func
    return d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", "")


def module_tables() -> set:
    """``module.name`` for each module-level name of the package that a
    function writes an entry into (``name[...] = ...``) and for each
    function decorated with ``lru_cache`` or ``cache``."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top = {t.id for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
               for t in ast.walk(stmt) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if {_decorator_name(d) for d in fn.decorator_list} & {"lru_cache", "cache"}:
                out.add("%s.%s" % (path.stem, fn.name))
            local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            local |= {n.id for n in ast.walk(fn)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            for n in ast.walk(fn):
                if (isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name)
                        and n.value.id in top - local):
                    out.add("%s.%s" % (path.stem, n.value.id))
    return out


def test_module_tables_are_the_known_ones():
    assert module_tables() == KNOWN_TABLES
