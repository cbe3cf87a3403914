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

from dataclasses import dataclass, field

from .formulas import (
    Ad,
    All,
    And,
    BAll,
    BEx,
    Ex,
    Formula,
    Mem,
    NotMem,
    Or,
    Reader,
    Sequent,
    Term,
    Var,
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

RULES = frozenset(
    {
        "logax",
        "or",
        "and",
        "bex",
        "ball",
        "ex",
        "all",
        "cut",
        "axiom:extensionality",
        "axiom:pair",
        "axiom:union",
        "axiom:separation",
        "axiom:collection",
        "axiom:infinity",
        "axiom:foundation",
        "axiom:reflection",
    }
)

AXIOM_RULES = frozenset(r for r in RULES if r.startswith("axiom:"))


@dataclass(frozen=True)
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
    if a == Var(x):
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


def axiom_instance(node: ProofNode, N: int) -> Formula:
    """Rebuild the axiom formula a node claims, or raise ValueError."""
    r = node.rule
    if r in ("axiom:foundation", "axiom:reflection") and node.formula is None:
        raise ValueError("(%s) needs a formula" % r)
    if r == "axiom:extensionality":
        return ax_extensionality(node.term, node.term2, node.term3)
    if r == "axiom:pair":
        return ax_pair(node.term, node.term2)
    if r == "axiom:union":
        return ax_union(node.term)
    if r == "axiom:separation":
        return ax_separation(node.term, node.var, node.formula)
    if r == "axiom:collection":
        return ax_collection(node.term, node.var, node.var2, node.formula)
    if r == "axiom:infinity":
        return ax_infinity()
    if r == "axiom:foundation":
        return ax_foundation(node.var, node.var2, node.formula)
    if r == "axiom:reflection":
        if not member_pi(node.formula, N + 1):
            raise ValueError("reflection class violation")
        return ax_reflection(node.formula, node.term, node.var or "c")
    raise ValueError("unknown axiom rule %r" % r)


# ---------------------------------------------------------------------------
# checking


@dataclass
class CheckResult:
    ok: bool
    diagnostics: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def expected_premises(node: ProofNode, N: int) -> list:
    """The premise sequents the witnesses dictate, or raise ValueError
    naming the violated side condition."""
    r = node.rule
    concl = node.conclusion
    if r not in RULES:
        raise ValueError("unknown rule %r" % r)
    if r == "logax":
        if node.main is None:
            raise ValueError("logical axiom needs a main formula")
        if node.main not in concl or negate(node.main) not in concl:
            raise ValueError("logical axiom lacks the complementary pair")
        return []
    if r in AXIOM_RULES:
        inst = axiom_instance(node, N)
        if inst not in concl:
            raise ValueError("axiom instance not in conclusion")
        return []
    if r == "cut":
        if node.formula is None:
            raise ValueError("cut needs a cut formula")
        return [concl | {negate(node.formula)}, concl | {node.formula}]
    # the remaining rules all have a main formula in the conclusion
    if node.main is None or node.main not in concl:
        raise ValueError("main formula not in conclusion")
    side = concl - {node.main}
    A = node.main
    if r == "or":
        if not isinstance(A, Or):
            raise ValueError("main formula of (or) must be a disjunction")
        return [side | {A.left, A.right}]
    if r == "and":
        if not isinstance(A, And):
            raise ValueError("main formula of (and) must be a conjunction")
        return [side | {A.left}, side | {A.right}]
    if r == "bex":
        if not isinstance(A, BEx):
            raise ValueError("main formula of (bex) must be bounded-existential")
        if node.term is None:
            raise ValueError("(bex) needs a witness term")
        return [
            side | {Mem(node.term, A.bound)},
            side | {subst(A.body, A.var, node.term)},
        ]
    if r == "ball":
        if not isinstance(A, BAll):
            raise ValueError("main formula of (ball) must be bounded-universal")
        v = node.var
        if v is None:
            raise ValueError("(ball) needs an eigenvariable")
        if v in free_vars(concl) or (isinstance(A.bound, Var) and A.bound.name == v):
            raise ValueError("eigenvariable occurs in conclusion")
        return [side | {NotMem(Var(v), A.bound), subst(A.body, A.var, Var(v))}]
    if r == "ex":
        if not isinstance(A, Ex):
            raise ValueError("main formula of (ex) must be existential")
        if node.term is None:
            raise ValueError("(ex) needs a witness term")
        return [concl | {subst(A.body, A.var, node.term)}]
    # r == "all", the last rule
    if not isinstance(A, All):
        raise ValueError("main formula of (all) must be universal")
    v = node.var
    if v is None:
        raise ValueError("(all) needs an eigenvariable")
    if v in free_vars(concl):
        raise ValueError("eigenvariable occurs in conclusion")
    return [concl | {subst(A.body, A.var, Var(v))}]


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
    sequent mismatch at the path of every edge that has one."""
    if N < 2:
        return CheckResult(False, [("", "N must be at least 2")])
    diags, walked, stack = [], set(), [(pi, "0", False)]
    while stack:
        node, path, mismatch = stack.pop()
        if mismatch:
            diags.append((path, "premise sequent mismatch"))
        if id(node) in walked:
            continue
        walked.add(id(node))
        try:
            need = expected_premises(node, N)
            if len(need) != len(node.premises):
                raise ValueError("expected %d premises, found %d"
                                 % (len(need), len(node.premises)))
        except ValueError as e:
            diags.append((path, str(e)))
            continue
        for i in reversed(range(len(need))):
            sub = node.premises[i]
            stack.append((sub, "%s.%d" % (path, i), sub.conclusion != need[i]))
    return CheckResult(not diags, diags)


# ---------------------------------------------------------------------------
# proof scripts


@dataclass
class ProofScript:
    root: ProofNode
    params: dict
    assignment: dict


def parse_script(text: str) -> ProofScript:
    """The proof a script holds.  One ``Reader`` memo serves the whole
    script, so each distinct member, value and literal text is read once
    and equal formulas are one object; a ``param`` line clears it."""
    params: dict = {}
    assignment: dict = {}
    memo: dict = {}  # the reader's formulas and sets by text and by parts
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


def _read_node(rule: str, rest: str, params: dict, memo: dict) -> tuple:
    """The premise ids, conclusion and witnesses after a node's rule,
    read through the script's ``memo``."""
    if rule not in RULES:
        raise ValueError("unknown rule %r" % rule)
    items = Reader(rest, params, memo)
    premise_ids = items.item() if items.tokens(1) == ["["] else []
    if items.tokens(2) != ["(", "seq"]:
        raise ValueError("missing conclusion sequent")
    concl = items.item()
    kwargs: dict = {}
    while items.tokens(1):
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
