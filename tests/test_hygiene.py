"""Source hygiene: every imported name in the package is used, every
module-level function and class of the package is used somewhere, the
package's module-level tables and caches and its stores on objects are
the known ones, the formula table is weak, ``derivations`` binds no dict
at module level, each formula class declares the kind of every field,
no class of ``formulas``, ``universe`` or ``ordinals`` defines its own
``==``, every interned class hashes by identity, and every message of
the local checker, of the finitary calculus, of the derivation
constructors, of the ordinal parser, of evaluation, every
malformed-code message, every ``ValueError`` and ``TypeError`` of
``ordinals`` and ``universe`` and every ``ValueError``, ``TypeError``
and ``IndexError`` of ``formulas`` and ``derivations`` is named by some
test, and every line that ``cli`` writes to standard error or gives
argparse to report is named by ``tests/test_cli.py``.

Parses ``src/proofkit/*.py`` with ``ast``; ``from __future__ import
annotations`` is a compiler directive, so it is exempt.  A definition
counts as used when its name, or an attribute of its module by that
name, is read in ``src/``, ``tests/`` or ``perfbench/`` outside its own
body.
"""

import ast
import re
import weakref
from dataclasses import fields
from pathlib import Path

import pytest

from proofkit import finitary, formulas, ordinals, universe

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
    modules = sorted(SRC.glob("*.py"))
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
    }
    aliases = {path: _module_aliases(tree) for path, tree in trees.items()}
    refs = {path: _references(tree, aliases[path]) for path, tree in trees.items()}
    dead = {}
    for path in sorted(SRC.glob("*.py")):
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
    # one object per ordinal code, hereditarily finite set, abstract
    # parameter, hull and bounded index set
    "ordinals._INTERNED",
    # one object per live formula and term; weak, as a strong table keeps
    # every formula ever built (see test_the_formula_table_is_weak)
    "formulas._FORMULAS",
    # whether an argument is a code, by interned argument; the benchmark's
    # tracer reads its cache (perfbench/tracer.py, cache_counts)
    "ordinals.validate_nf",
    # ordinal arithmetic, by interned argument
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


def test_the_formula_table_is_weak():
    """The formula table holds its formulas by weak reference and keys
    them by their class, names and the ``id``s of their parts, so it
    keeps no formula alive."""
    A = formulas.parse_formula("(bex x {{}} (or (in x 0) (all y (notin y x))))")
    formulas.negate(A)
    table = formulas._FORMULAS.copy()
    assert len(table) >= 10
    assert all(isinstance(ref, weakref.ref) for ref in table.values())
    classes = {formulas.Var, formulas.Name, *formulas.BY_HEAD.values()}
    assert all(key[0] in classes for key in table)
    assert all(type(part) in (str, int) for key in table for part in key[1:])


#: Calls that build a dict.
DICT_BUILDERS = {"dict", "defaultdict", "OrderedDict", "Counter",
                 "WeakKeyDictionary", "WeakValueDictionary"}


def module_dicts(source: str) -> list:
    """The module-level names that ``source`` binds to a dict: a dict
    display, a dict comprehension or a call of a dict builder."""
    out = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if isinstance(value, ast.Call):
            is_dict = _decorator_name(value) in DICT_BUILDERS
        else:
            is_dict = isinstance(value, (ast.Dict, ast.DictComp))
        if is_dict:
            out += [ast.unparse(t) for t in targets]
    return out


def test_derivations_keep_no_module_level_dict():
    """A premise used twice is shared by the terms themselves, not by a
    cache that lives as long as the process."""
    assert module_dicts("A = 1\nB: dict = {}\nC = {k: 0 for k in ()}\n"
                        "D = collections.defaultdict(list)\nE = frozenset()\n") == [
        "B", "C", "D"]
    assert module_dicts((SRC / "derivations.py").read_text(encoding="utf-8")) == []


def premise_restatements(source: str) -> list:
    """The ``fit(...)`` and ``premise(...)`` calls in ``source`` with an
    argument ``<expr> | {...}``: a premise sequent written out by hand
    instead of read from the premise's own derivation."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        if not (isinstance(f, ast.Name) and f.id in ("fit", "premise")):
            continue
        if any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.BitOr)
               and isinstance(a.right, ast.Set) for a in n.args):
            out.append(ast.unparse(n))
    return out


def test_premises_are_weakened_by_the_conclusion_not_restated():
    """A premise's sequent is its own joined with the conclusion; the
    premise rules live in the node classes' ``wants``."""
    assert premise_restatements(
        "fit(d, h, m, s | {C})\npremise(0, P, seq | {a, b})\n"
        "fit(d, h, m, s | d.sig.seq)\npremise(0, {v: b})\nf(s | {C})\n") == [
        "fit(d, h, m, s | {C})", "premise(0, P, seq | {a, b})"]
    assert premise_restatements((SRC / "derivations.py").read_text(encoding="utf-8")) == []


#: The attributes a function of the package keeps on an object with
#: ``object.__setattr__(x, "<name>", ...)``, by module.  Each is a store
#: on every object of its kind that ``==``, ``hash`` and ``repr`` must
#: not see, so one more is a decision, not a detail: add it here with
#: its reason.
KNOWN_STORES = {
    # a formula's negation, its quantifier instances by index, its record
    # of syntactic facts and its text
    "formulas": {"_negation", "_instances", "_facts", "_text"},
    # a concrete set's record of facts and its closure in witness-pool order
    "universe": {"_facts", "_closure"},
}


def object_stores() -> dict:
    """The literal attribute names that each module of the package sets
    with ``object.__setattr__``.  The ordinal intern table also sets a
    new code's fields this way, by a computed name, which is no store."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for n in ast.walk(tree):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "__setattr__"
                    and isinstance(n.func.value, ast.Name) and n.func.value.id == "object"
                    and len(n.args) == 3 and isinstance(n.args[1], ast.Constant)):
                out.setdefault(path.stem, set()).add(n.args[1].value)
    return out


def test_object_stores_are_the_known_ones():
    assert object_stores() == KNOWN_STORES


def module_classes(module) -> list:
    """The classes that ``module`` defines."""
    return [C for C in vars(module).values()
            if isinstance(C, type) and C.__module__ == module.__name__]


@pytest.mark.parametrize("module", [formulas, universe, ordinals], ids=lambda m: m.__name__)
def test_no_value_class_defines_its_own_equality(module):
    """The formulas, terms, desk sets, index sets, hulls and ordinal
    codes are interned, so ``==`` is identity: no class of the module
    has an ``__eq__`` of its own, generated or written.  A named tuple
    and an exception inherit theirs."""
    classes = module_classes(module)
    assert len(classes) >= 3
    assert [C.__name__ for C in classes if "__eq__" in vars(C)] == []


#: The interned classes: the intern table's, and the formula table's.
INTERNED = (ordinals._Interned, formulas._Formula, formulas.Var, formulas.Name)


@pytest.mark.parametrize("module, least", [(formulas, 13), (universe, 3), (ordinals, 3)],
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_every_interned_class_hashes_by_identity(module, least):
    """One object per value, so the hash reads identity, ``object``'s,
    as ``==`` does: no interned class of the module has a hash of its
    own."""
    classes = [C for C in module_classes(module) if issubclass(C, INTERNED)]
    assert len(classes) >= least
    assert [C.__name__ for C in classes if C.__hash__ is not object.__hash__] == []


#: The field kind that each field annotation of a formula class stands for.
KIND_OF_ANNOTATION = {"str": str, "Term": formulas.Term, "'Formula'": formulas.Formula}


def test_each_formula_class_declares_one_kind_per_field():
    """Every class of ``formulas.BY_HEAD`` declares exactly one kind per
    dataclass field, in field order, that fits the field's annotation; a
    variable field comes only first, before the fields it binds in; and
    each class has the fields of its dual."""
    for head, C in formulas.BY_HEAD.items():
        declared = [f.name for f in fields(C)]
        kinds = [KIND_OF_ANNOTATION[f.type] for f in fields(C)]
        assert C.shape == tuple(zip(declared, kinds)), head
        assert str not in kinds[1:], head
        assert [(f.name, f.type) for f in fields(C.dual)] == [
            (f.name, f.type) for f in fields(C)], head


def check_local_messages() -> set:
    """The texts ``checking.check_local`` reports: each string it passes
    to ``bad(...)`` or appends to ``report.notes``, and for a format
    string the text before its first ``%``."""
    tree = ast.parse((SRC / "checking.py").read_text(encoding="utf-8"))
    [fn] = [n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef) and n.name == "check_local"]
    texts = []
    for n in ast.walk(fn):
        if not isinstance(n, ast.Call):
            continue
        if isinstance(n.func, ast.Name) and n.func.id == "bad":
            texts.append(n.args[1])
        elif (isinstance(n.func, ast.Attribute) and n.func.attr == "append"
              and ast.unparse(n.func.value) == "report.notes"):
            texts.append(n.args[0].elts[1])
    out = set()
    for t in texts:
        if isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mod):
            t = t.left
        assert isinstance(t, ast.Constant) and isinstance(t.value, str), ast.unparse(t)
        out.add(t.value.split("%", 1)[0])
    return out


def test_every_check_local_message_is_tested():
    messages = check_local_messages()
    assert len(messages) > 20
    tests = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted((ROOT / "tests").rglob("*.py")))
    assert sorted(m for m in messages if m not in tests) == []


def raised_messages(module: str, exception: str) -> set:
    """The texts ``module`` raises as ``exception``: a string as it is, a
    format string (``text % args``) as its text, an f-string as a format
    string with ``%s`` for each field, both texts of a conditional
    expression (``a if c else b``), every text of a module-level table
    that a message is looked up in (``TABLE[key]``, or ``TABLE.get(key,
    default)`` and its default), and every text that a class of the
    module binds to the attribute a message reads (``self.outside``)."""
    tree = ast.parse((SRC / (module + ".py")).read_text(encoding="utf-8"))
    tables = {t.id: stmt.value.values for stmt in tree.body
              if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
              for t in stmt.targets if isinstance(t, ast.Name)}
    attributes = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
                    for t in stmt.targets:
                        attributes.setdefault(ast.unparse(t), []).append(stmt.value)

    def texts(t) -> list:
        if isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mod):
            return texts(t.left)
        if isinstance(t, ast.IfExp):
            return texts(t.body) + texts(t.orelse)
        if isinstance(t, ast.Subscript) and ast.unparse(t.value) in tables:
            return [x for v in tables[ast.unparse(t.value)] for x in texts(v)]
        if (isinstance(t, ast.Call) and isinstance(t.func, ast.Attribute) and t.func.attr == "get"
                and ast.unparse(t.func.value) in tables):
            table = tables[ast.unparse(t.func.value)]
            return [x for v in [*table, *t.args[1:]] for x in texts(v)]
        if isinstance(t, ast.Attribute) and t.attr in attributes:
            return [x for v in attributes[t.attr] for x in texts(v)]
        if isinstance(t, ast.JoinedStr):
            t = ast.Constant("".join(
                v.value if isinstance(v, ast.Constant) else "%s" for v in t.values))
        assert isinstance(t, ast.Constant) and isinstance(t.value, str), ast.unparse(t)
        return [t.value]

    out = set()
    for n in ast.walk(tree):
        if (isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                and ast.unparse(n.exc.func) == exception):
            out.update(texts(n.exc.args[0]))
    return out


def test_raised_messages_reads_tables_and_class_attributes(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    (tmp_path / "m.py").write_text(
        'T = {"a": "from a table", "b": "also %s"}\n'
        "class K:\n    outside = 'from a class'\n"
        "def f(k, x):\n"
        "    raise ValueError(T[k] if x else T.get(k, 'its default') % x)\n"
        "def g(self):\n    raise IndexError(self.outside)\n", encoding="utf-8")
    assert raised_messages("m", "ValueError") == {"from a table", "also %s", "its default"}
    assert raised_messages("m", "IndexError") == {"from a class"}


def untested(messages: set, rendered: dict, paths=None) -> list:
    """The messages that no test of ``paths``, by default every test
    module other than this one, names: a format string of ``rendered``
    as each text it renders from its rows of arguments, any other
    format string as a pattern in which each conversion stands for some
    text."""
    if paths is None:
        paths = [p for p in sorted((ROOT / "tests").rglob("*.py"))
                 if p.name != "test_hygiene.py"]
    tests = "\n".join(p.read_text(encoding="utf-8") for p in paths)
    missing = []
    for m in sorted(messages):
        if m in rendered:
            missing += [m % args for args in rendered[m] if m % args not in tests]
        elif not re.search(".+?".join(map(re.escape, re.split("%[sdr]", m))), tests):
            missing.append(m)
    return missing


def rule_messages() -> dict:
    """The format strings of ``finitary`` that take a rule, each with
    its arguments for every declared rule that raises it.  ``(%s) reads
    no %s`` is not among them: a test of ``test_finitary`` walks every
    rule and every witness it does not read."""
    return {
        "main formula of (%s) must be %s": list(finitary.MAIN_FORMULA.items()),
        "(%s) needs a witness term": [("bex",), ("ex",)],
        "(%s) needs an eigenvariable": [("ball",), ("all",)],
        "(%s) needs a %s": [(r, key) for r, (_, reads) in finitary.AXIOMS.items()
                            for key in reads],
    }


def test_every_finitary_message_is_tested():
    """Each ``ValueError`` text of ``finitary`` is named by a test."""
    messages = raised_messages("finitary", "ValueError")
    assert len(messages) > 25
    by_rule = rule_messages()
    assert set(by_rule) <= messages
    assert {args[0] for rows in by_rule.values() for args in rows} <= finitary.RULES
    assert untested(messages, by_rule) == []


def test_every_construction_message_is_tested():
    """Each ``ConstructionError`` text of ``derivations`` is named by a test."""
    messages = raised_messages("derivations", "ConstructionError")
    assert len(messages) > 20
    assert untested(messages, {}) == []


EVALUATION_MODULES = {"checking": 3, "derivations": 1, "formulas": 3, "universe": 3}


@pytest.mark.parametrize("module, least", EVALUATION_MODULES.items(), ids=list(EVALUATION_MODULES))
def test_every_evaluation_message_is_tested(module, least):
    """Each ``EvaluationError`` text of the module, at least ``least``
    of them, is named by a test."""
    messages = raised_messages(module, "EvaluationError")
    assert len(messages) >= least
    assert untested(messages, {}) == []


@pytest.mark.parametrize("module", ["derivations", "formulas", "ordinals", "universe"])
def test_every_value_and_type_message_is_tested(module):
    """Each ``ValueError``, ``TypeError`` and ``IndexError`` text of the
    module is named by a test."""
    messages = set().union(*(raised_messages(module, exception)
                             for exception in ("ValueError", "TypeError", "IndexError")))
    assert len(messages) >= 2
    assert untested(messages, {}) == []


def test_every_malformed_code_message_is_tested():
    """Each ``MalformedOrdinalError`` text of ``ordinals`` is named by a test."""
    messages = raised_messages("ordinals", "MalformedOrdinalError")
    assert len(messages) >= 1
    assert untested(messages, {}) == []


def test_every_ordinal_parser_message_is_tested():
    """Each ``OrdinalParseError`` text of ``ordinals`` is named by a test."""
    messages = raised_messages("ordinals", "OrdinalParseError")
    assert len(messages) == 10
    # one limit on the levels a text builds, beside the digit limit
    assert sorted(m for m in messages if "limit" in m) == [
        "number of %s digits is above the limit of %s digits",
        "tower levels are above the limit of %s"]
    assert untested(messages, {}) == []


def cli_messages() -> set:
    """The texts ``cli`` prints to ``sys.stderr`` or raises as
    ``argparse.ArgumentTypeError``, a format string as its text."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    out = set()
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        to_stderr = ast.unparse(n.func) == "print" and any(
            k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in n.keywords)
        if not (to_stderr or ast.unparse(n.func) == "argparse.ArgumentTypeError"):
            continue
        t = n.args[0]
        if isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mod):
            t = t.left
        assert isinstance(t, ast.Constant) and isinstance(t.value, str), ast.unparse(t)
        out.add(t.value)
    return out


def test_every_cli_message_is_named_by_its_tests():
    """Each line the command line writes to standard error, and each
    text it gives argparse to report, is named by ``tests/test_cli.py``."""
    messages = cli_messages()
    assert {"N must be at least 2", "error: %s"} <= messages and len(messages) >= 7
    assert untested(messages, {}, [ROOT / "tests" / "test_cli.py"]) == []
