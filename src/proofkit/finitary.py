"""Finitary one-sided sequent calculus for the base set theory with
bounded-formula separation and collection plus a reflection schema at
level Pi_{N+1} (N >= 2 a parameter).

Proofs are immutable, and a node may serve as premise more than once.
Every inference carries its conclusion and the witnesses (main formula,
witness term, eigenvariable, cut formula) that make checking
deterministic: from the witnesses the checker recomputes the expected
premise sequents and compares, no unification involved.

A line-oriented script format serializes proofs: one node per line,

    id rule [premise-ids] (seq ...) key=value ...

with ``param`` and ``assign`` header lines declaring abstract set
parameters and the variable assignment used when the proof is fed to
the infinitary embedding.  The last node line is the root, and every
other node must be a premise of it, hereditarily.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

from .formulas import (
    Ad,
    All,
    And,
    BAll,
    BEx,
    BY_HEAD,
    Ex,
    Formula,
    Mem,
    NotMem,
    Or,
    Reader,
    Sequent,
    Term,
    Var,
    _TOKEN,
    all_vars,
    as_formula,
    as_set,
    as_term,
    free_vars,
    fresh,
    is_delta0,
    member_pi,
    negate,
    not_equals,
    relativize,
    render_formula,
    render_sequent,
    render_term,
    subst,
)
from .ordinals import parse as parse_ord, render as render_ord
from .universe import Abstract, render_set


@dataclass(frozen=True, slots=True)
class ProofNode:
    rule: str
    conclusion: Sequent
    premises: tuple = ()
    main: Formula | None = None
    term: Term | None = None
    term2: Term | None = None
    term3: Term | None = None
    var: str | None = None
    var2: str | None = None
    formula: Formula | None = None

    def __init__(self, rule, conclusion, premises=(), main=None, term=None, term2=None,
                 term3=None, var=None, var2=None, formula=None):
        # each field through its slot's own setter, which the frozen
        # __setattr__ does not guard; the generated __init__ makes one
        # object.__setattr__ call per field, which looks the slot up first
        (set_rule, set_conclusion, set_premises, set_main, set_term, set_term2, set_term3,
         set_var, set_var2, set_formula) = _SETTERS
        set_rule(self, rule)
        set_conclusion(self, conclusion)
        set_premises(self, premises)
        set_main(self, main)
        set_term(self, term)
        set_term2(self, term2)
        set_term3(self, term3)
        set_var(self, var)
        set_var2(self, var2)
        set_formula(self, formula)


#: the slot setter of each field of ``ProofNode``, in field order
_SETTERS = tuple(getattr(ProofNode, f.name).__set__ for f in fields(ProofNode))

#: The witness fields of a node, in the order scripts write them.
WITNESSES = ("main", "formula", "term", "term2", "term3", "var", "var2")


def end_sequent(pi: ProofNode) -> Sequent:
    return pi.conclusion


# ---------------------------------------------------------------------------
# axiom instances


def _term_vars(*ts):
    return {t.name for t in ts if isinstance(t, Var)}


def ax_extensionality(a: Term, b: Term, c: Term) -> Formula:
    """a = b and a in c imply b in c."""
    return Or(not_equals(a, b), Or(NotMem(a, c), Mem(b, c)))


def ax_pair(a: Term, b: Term) -> Formula:
    z = fresh("z", _term_vars(a, b))
    return Ex(z, And(Mem(a, Var(z)), Mem(b, Var(z))))


def ax_union(a: Term) -> Formula:
    z = fresh("z", _term_vars(a))
    x = fresh("x", _term_vars(a) | {z})
    y = fresh("y", _term_vars(a) | {z, x})
    return Ex(z, BAll(x, a, BAll(y, Var(x), Mem(Var(y), Var(z)))))


def ax_separation(a: Term, x: str, phi: Formula) -> Formula:
    """There is z = {x in a : phi(x)}, for bounded phi."""
    if not is_delta0(phi):
        raise ValueError("separation needs a bounded formula")
    if a is Var(x):
        raise ValueError("separation variable %s is its own bounding term" % x)
    z = fresh("z", free_vars(phi) | _term_vars(a) | {x})
    inner = And(
        BAll(x, Var(z), And(Mem(Var(x), a), phi)),
        BAll(x, a, Or(negate(phi), Mem(Var(x), Var(z)))),
    )
    return Ex(z, inner)


def ax_collection(a: Term, x: str, y: str, phi: Formula) -> Formula:
    """Bounded collection: forall x in a exists y phi implies a bound z."""
    if not is_delta0(phi):
        raise ValueError("collection needs a bounded formula")
    z = fresh("z", free_vars(phi) | _term_vars(a) | {x, y})
    left = BEx(x, a, All(y, negate(phi)))
    right = Ex(z, BAll(x, a, BEx(y, Var(z), phi)))
    return Or(left, right)


def ax_infinity() -> Formula:
    return All("x", Ex("y", And(Mem(Var("x"), Var("y")), Ad(Var("y")))))


def ax_foundation(x: str, y: str, phi: Formula) -> Formula:
    """Progressiveness of phi along membership implies phi everywhere."""
    if y != x and y in free_vars(phi):
        raise ValueError("foundation variable %s occurs free in the formula" % y)
    prog_fails = Ex(x, And(BAll(y, Var(x), subst(phi, x, Var(y))), negate(phi)))
    return Or(prog_fails, All(x, phi))


def ax_reflection(A: Formula, a: Term, cvar: str = "c") -> Formula:
    """A implies a transitive admissible witness containing a reflects A."""
    c = fresh(cvar, all_vars(A) | _term_vars(a))
    body = And(Ad(Var(c)), And(Mem(a, Var(c)), relativize(A, Var(c))))
    return Or(negate(A), Ex(c, body))


#: Each axiom schema: its instance builder and the witnesses it reads,
#: in the builder's argument order.  Reflection also reads ``var``, the
#: admissible set's variable, which defaults to ``c``.
AXIOMS = {
    "axiom:extensionality": (ax_extensionality, ("term", "term2", "term3")),
    "axiom:pair": (ax_pair, ("term", "term2")),
    "axiom:union": (ax_union, ("term",)),
    "axiom:separation": (ax_separation, ("term", "var", "formula")),
    "axiom:collection": (ax_collection, ("term", "var", "var2", "formula")),
    "axiom:infinity": (ax_infinity, ()),
    "axiom:foundation": (ax_foundation, ("var", "var2", "formula")),
    "axiom:reflection": (ax_reflection, ("formula", "term")),
}

#: Each logical rule, named by its main formula's head word, and what
#: that formula must be.
MAIN_FORMULA = {
    "or": "a disjunction",
    "and": "a conjunction",
    "bex": "bounded-existential",
    "ball": "bounded-universal",
    "ex": "existential",
    "all": "universal",
}

#: Every rule a node may name.
RULES = frozenset({"logax", "cut", *MAIN_FORMULA, *AXIOMS})

#: The witnesses each rule reads: a logical rule its main formula and,
#: when it instantiates a quantifier, a witness term (bex, ex) or an
#: eigenvariable (ball, all); an axiom those its instance reads, and
#: reflection its optional ``var`` as well.  A node may set no other.
READS = {
    "logax": ("main",), "cut": ("formula",), "or": ("main",), "and": ("main",),
    "bex": ("main", "term"), "ex": ("main", "term"),
    "ball": ("main", "var"), "all": ("main", "var"),
    **{r: reads + ("var",) * (r == "axiom:reflection") for r, (_, reads) in AXIOMS.items()},
}

AXIOM_RULES = frozenset(AXIOMS)


def axiom_instance(node: ProofNode, N: int) -> Formula:
    """Rebuild the axiom formula a node claims, or raise ValueError."""
    r = node.rule
    if r not in AXIOMS:
        raise ValueError("unknown axiom rule %r" % r)
    build, reads = AXIOMS[r]
    args = []
    for key in reads:
        value = getattr(node, key)
        if value is None:
            raise ValueError("(%s) needs a %s" % (r, key))
        args.append(value)
    if r == "axiom:reflection":
        if not member_pi(node.formula, N + 1):
            raise ValueError("reflection class violation")
        args.append(node.var or "c")
    return build(*args)


# ---------------------------------------------------------------------------
# checking


@dataclass
class CheckResult:
    diagnostics: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def expected_premises(node: ProofNode, N: int) -> list:
    """The premise sequents the witnesses dictate, or raise ValueError
    naming the violated side condition."""
    r = node.rule
    concl = node.conclusion
    if r not in RULES:
        raise ValueError("unknown rule %r" % r)
    for key in WITNESSES:
        if getattr(node, key) is not None and key not in READS[r]:
            raise ValueError("(%s) reads no %s" % (r, key))
    if r == "logax":
        if node.main is None:
            raise ValueError("logical axiom needs a main formula")
        if node.main not in concl or negate(node.main) not in concl:
            raise ValueError("logical axiom lacks the complementary pair")
        return []
    if r in AXIOMS:
        inst = axiom_instance(node, N)
        if inst not in concl:
            raise ValueError("axiom instance not in conclusion")
        return []
    if r == "cut":
        if node.formula is None:
            raise ValueError("cut needs a cut formula")
        return [concl | {negate(node.formula)}, concl | {node.formula}]
    # a logical rule: its main formula is in the conclusion, of its class
    A = node.main
    if A is None or A not in concl:
        raise ValueError("main formula not in conclusion")
    if not isinstance(A, BY_HEAD[r]):
        raise ValueError("main formula of (%s) must be %s" % (r, MAIN_FORMULA[r]))
    side = concl - {A}
    if r == "or":
        return [side | {A.left, A.right}]
    if r == "and":
        return [side | {A.left}, side | {A.right}]
    if r in ("bex", "ex"):
        t = node.term
        if t is None:
            raise ValueError("(%s) needs a witness term" % r)
        inst = subst(A.body, A.var, t)
        return [concl | {inst}] if r == "ex" else [side | {Mem(t, A.bound)}, side | {inst}]
    # ball or all; a bounded formula's bound is among its free variables
    v = node.var
    if v is None:
        raise ValueError("(%s) needs an eigenvariable" % r)
    if v in free_vars(concl):
        raise ValueError("eigenvariable occurs in conclusion")
    inst = subst(A.body, A.var, Var(v))
    return [concl | {inst}] if r == "all" else [side | {NotMem(Var(v), A.bound), inst}]


def post_order(root: ProofNode) -> list:
    """The distinct nodes of a proof, each after its premises, which go
    left to right; told apart by identity, since hashing walks subproofs."""
    order, done, stack = [], set(), [(root, iter(root.premises))]
    while stack:
        node, todo = stack[-1]
        for p in todo:
            if id(p) not in done:
                stack.append((p, iter(p.premises)))
                break
        else:
            stack.pop()
            done.add(id(node))
            order.append(node)
    return order


def check_proof(pi: ProofNode, N: int = 2) -> CheckResult:
    """Verify each node once, in preorder, not below a faulty one; a fault
    is reported at the first path that reaches its node, and a premise
    sequent mismatch at the path of every edge that has one.

    Equal nodes under different parents are each walked, but their
    inference is derived once: for the length of the call, what
    ``expected_premises`` returns, or the message it raises, is kept
    under the node's rule, conclusion and witnesses.  The key holds no
    premise, so the premise count and each edge are checked per node.

    A path is kept as its index in ``links``, which holds the root's
    entry first and then one (parent index, premise index) pair per
    pushed edge; its text is written only for a diagnostic."""
    if N < 2:
        return CheckResult([("", "N must be at least 2")])
    diags, walked, stack, links = [], set(), [(pi, 0, False)], [(0, 0)]
    derived: dict = {}  # the premise sequents or fault of each inference, by value
    while stack:
        node, at, mismatch = stack.pop()
        if mismatch:
            diags.append((_path_text(links, at), "premise sequent mismatch"))
        if id(node) in walked:
            continue
        walked.add(id(node))
        # what decides the inference: the rule, conclusion and WITNESSES
        key = (node.rule, node.conclusion, node.main, node.formula, node.term, node.term2,
               node.term3, node.var, node.var2)
        need = derived.get(key)
        if need is None:
            try:
                need = expected_premises(node, N)
            except ValueError as e:
                need = str(e)
            derived[key] = need
        if isinstance(need, str):
            diags.append((_path_text(links, at), need))
            continue
        if len(need) != len(node.premises):
            diags.append((_path_text(links, at), "expected %d premises, found %d"
                          % (len(need), len(node.premises))))
            continue
        for i in reversed(range(len(need))):
            sub = node.premises[i]
            stack.append((sub, len(links), sub.conclusion != need[i]))
            links.append((at, i))
    return CheckResult(diags)


def _path_text(links: list, at: int) -> str:
    """The text of the path at index ``at`` of ``links``: ``0`` for the
    root, then ``.i`` per edge down to the node."""
    steps = []
    while at:
        at, i = links[at]
        steps.append(str(i))
    steps.append("0")
    return ".".join(reversed(steps))


# ---------------------------------------------------------------------------
# proof scripts


@dataclass
class ProofScript:
    root: ProofNode
    params: dict
    assignment: dict


def parse_script(text: str) -> ProofScript:
    """The proof a script holds.  One ``Reader`` memo serves the whole
    script, so each distinct member, value and literal text is read
    once; equal formulas are one object because formulas are interned.
    It also keeps a node line's conclusion and witnesses under the text
    after its premise ids once that text reads, so nodes with equal
    tails share them.  A ``param`` line clears it all."""
    params: dict = {}
    assignment: dict = {}
    memo: dict = {}  # the reader's formulas and sets by text, and node tails
    nodes: dict = {}
    unused: dict = {}  # node id -> line number, for the nodes no line uses yet
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            first, name, rest = (line.split(None, 2) + ["", ""])[:3]
            if first == "param":
                rank = rest.split(None, 1)
                if len(rank) != 2 or rank[0] != "rank":
                    raise ValueError("param lines read: param <name> rank <ordinal>")
                if name in params:
                    raise ValueError("duplicate param %s" % name)
                params[name] = Abstract(name, parse_ord(rank[1]))
                memo.clear()
                continue
            if first == "assign":
                items = Reader(rest, params, memo)
                value = items.item() if items.tokens(1) else None
                if value is None or items.tokens(1):
                    raise ValueError("assign lines read: assign <var> <set>")
                if name in assignment:
                    raise ValueError("duplicate assignment %s" % name)
                assignment[name] = as_set(value, params)
                continue
            node_id, rule = first, name
            if node_id in nodes:
                raise ValueError("duplicate node id %s" % node_id)
            premise_ids, concl, kwargs = _read_node(rule, rest, params, memo)
            undefined = [p for p in premise_ids if not isinstance(p, str) or p not in nodes]
            if undefined:
                raise ValueError("undefined premise id %r" % (undefined[0],))
            nodes[node_id] = ProofNode(rule, concl, tuple(nodes[p] for p in premise_ids), **kwargs)
            for p in premise_ids:
                unused.pop(p, None)
            unused[node_id] = lineno
        except ValueError as e:
            raise ValueError("line %d: %s" % (lineno, e)) from None
    if not nodes:
        raise ValueError("empty proof script")
    last, _ = unused.popitem()  # the root: the last node line, used by none
    for node_id, lineno in unused.items():
        raise ValueError("line %d: node %s is not used by the root" % (lineno, node_id))
    return ProofScript(nodes[last], params, assignment)


#: A flat premise list: ``[``, ids with no bracket, brace or ``=``, and
#: ``]``, after the whitespace and commas that the reader skips.
_FLAT_PREMISES = re.compile(r"[\s,]*\[([^()\[\]{}=]*)\]")

#: A conclusion's first tokens, ``(`` and ``seq``, and any further item.
_CONCLUSION = re.compile(r"[\s,]*\([\s,]*seq(?![^\s(){}\[\],])")
_MORE = re.compile(r"[\s,]*[^\s,]")


def _read_node(rule: str, rest: str, params: dict, memo: dict) -> tuple:
    """The premise ids, conclusion and witnesses after a node's rule,
    read through the script's ``memo``, which keeps the conclusion and
    witnesses under the text after the premise ids once they read, until
    the script is read or a ``param`` line clears it.  A flat premise
    list is split by one match and no ``Reader``; any other list goes
    through ``Reader``, which names its fault."""
    if rule not in RULES:
        raise ValueError("unknown rule %r" % rule)
    flat = _FLAT_PREMISES.match(rest)
    if flat:
        premise_ids, pos = _TOKEN.findall(flat[1]), flat.end()
    else:
        items = Reader(rest, params, memo)
        premise_ids = items.item() if items.tokens(1) == ["["] else []
        pos = items.pos
    # the reader's keys are texts and a 1-tuple, so this key is none of theirs
    tail = (None, rest[pos:].lstrip())
    kept = memo.get(tail)
    if kept is not None:
        return (premise_ids, *kept)
    if not _CONCLUSION.match(tail[1]):
        raise ValueError("missing conclusion sequent")
    items = Reader(tail[1], params, memo)
    concl = items.item()
    kwargs: dict = {}
    while _MORE.match(tail[1], items.pos):
        key = items.item()
        if not isinstance(key, str) or not key.endswith("="):
            raise ValueError("witnesses read key=value, got %r" % (
                render_formula(key) if isinstance(key, Formula) else key,))
        key = key[:-1]
        if key not in WITNESSES:
            raise ValueError("unknown witness key %r" % key)
        if key in kwargs:
            raise ValueError("repeated witness %s" % key)
        value = items.item()
        if key in ("main", "formula"):
            value = as_formula(value)
        elif key.startswith("term"):
            value = as_term(value, params)
        elif not isinstance(value, str):
            raise ValueError("%s takes a variable, got %r" % (key, value))
        kwargs[key] = value
    memo[tail] = concl, kwargs
    return premise_ids, concl, kwargs


def render_script(script: ProofScript) -> str:
    """Serialize a proof as a script; inverse of parse_script up to ids."""
    lines = []
    for name, p in sorted(script.params.items()):
        lines.append("param %s rank %s" % (name, render_ord(p.declared_rank)))
    for var, val in sorted(script.assignment.items()):
        lines.append("assign %s %s" % (var, render_set(val)))
    ids: dict = {}
    for node in post_order(script.root):
        nid = ids[id(node)] = "n%d" % (len(ids) + 1)
        parts = [nid, node.rule]
        if node.premises:
            parts.append("[%s]" % ",".join(ids[id(p)] for p in node.premises))
        parts.append(render_sequent(node.conclusion))
        for key in WITNESSES:
            val = getattr(node, key)
            if isinstance(val, Formula):
                val = render_formula(val)
            elif isinstance(val, Term):
                val = render_term(val)
            if val is not None:
                parts.append("%s=%s" % (key, val))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
