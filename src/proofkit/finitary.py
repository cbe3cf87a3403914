"""Finitary one-sided sequent calculus for the base set theory with
bounded-formula separation and collection plus a reflection schema at
level Pi_{N+1} (N >= 2 a parameter).

Proofs are immutable trees.  Every inference carries its conclusion and
the witnesses (main formula, witness term, eigenvariable, cut formula)
that make checking deterministic: from the witnesses the checker
recomputes the expected premise sequents and compares, no unification
involved.

A line-oriented script format serializes proofs: one node per line,

    id rule [premise-ids] (seq ...) key=value ...

with ``param`` and ``assign`` header lines declaring abstract set
parameters and the variable assignment used when the proof is fed to
the infinitary embedding.
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
    Sequent,
    Term,
    Var,
    formula_from_tree,
    free_vars,
    is_delta0,
    member_pi,
    negate,
    not_equals,
    parse_sexp,
    relativize,
    render_formula,
    render_term,
    sequent_from_tree,
    subst,
    term_from_tree,
)
from .ordinals import parse as parse_ord, render as render_ord, Sub
from .universe import Abstract, parse_set, render_set

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


def end_sequent(pi: ProofNode) -> Sequent:
    return pi.conclusion


# ---------------------------------------------------------------------------
# axiom instances


def _fresh(base: str, avoid) -> str:
    if base not in avoid:
        return base
    i = 0
    while "%s%d" % (base, i) in avoid:
        i += 1
    return "%s%d" % (base, i)


def _term_vars(*ts):
    return {t.name for t in ts if isinstance(t, Var)}


def ax_extensionality(a: Term, b: Term, c: Term) -> Formula:
    """a = b and a in c imply b in c."""
    return Or(not_equals(a, b), Or(NotMem(a, c), Mem(b, c)))


def ax_pair(a: Term, b: Term) -> Formula:
    z = _fresh("z", _term_vars(a, b))
    return Ex(z, And(Mem(a, Var(z)), Mem(b, Var(z))))


def ax_union(a: Term) -> Formula:
    z = _fresh("z", _term_vars(a))
    x = _fresh("x", _term_vars(a) | {z})
    y = _fresh("y", _term_vars(a) | {z, x})
    return Ex(z, BAll(x, a, BAll(y, Var(x), Mem(Var(y), Var(z)))))


def ax_separation(a: Term, x: str, phi: Formula) -> Formula:
    """There is z = {x in a : phi(x)}, for bounded phi."""
    if not is_delta0(phi):
        raise ValueError("separation needs a bounded formula")
    if a == Var(x):
        raise ValueError("separation variable %s is its own bounding term" % x)
    z = _fresh("z", free_vars(phi) | _term_vars(a) | {x})
    inner = And(
        BAll(x, Var(z), And(Mem(Var(x), a), phi)),
        BAll(x, a, Or(negate(phi), Mem(Var(x), Var(z)))),
    )
    return Ex(z, inner)


def ax_collection(a: Term, x: str, y: str, phi: Formula) -> Formula:
    """Bounded collection: forall x in a exists y phi implies a bound z."""
    if not is_delta0(phi):
        raise ValueError("collection needs a bounded formula")
    z = _fresh("z", free_vars(phi) | _term_vars(a) | {x, y})
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
    c = _fresh(cvar, free_vars(A) | _term_vars(a))
    body = And(Ad(Var(c)), And(Mem(a, Var(c)), relativize(A, Var(c))))
    return Or(negate(A), Ex(c, body))


def axiom_instance(node: ProofNode, N: int) -> Formula:
    """Rebuild the axiom formula a node claims, or raise ValueError."""
    r = node.rule
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
    if r == "all":
        if not isinstance(A, All):
            raise ValueError("main formula of (all) must be universal")
        v = node.var
        if v is None:
            raise ValueError("(all) needs an eigenvariable")
        if v in free_vars(concl):
            raise ValueError("eigenvariable occurs in conclusion")
        return [concl | {subst(A.body, A.var, Var(v))}]
    raise ValueError("unknown rule %r" % r)


def check_proof(pi: ProofNode, N: int = 2) -> CheckResult:
    """Verify every node locally; diagnostics carry preorder node paths."""
    if N < 2:
        return CheckResult(False, [("", "N must be at least 2")])
    diags = []

    def walk(node, path):
        if node.rule not in RULES:
            diags.append((path, "unknown rule %r" % node.rule))
            return
        try:
            expect = expected_premises(node, N)
        except ValueError as e:
            diags.append((path, str(e)))
            return
        if len(expect) != len(node.premises):
            diags.append(
                (path, "expected %d premises, found %d"
                 % (len(expect), len(node.premises)))
            )
            return
        for i, (want, sub) in enumerate(zip(expect, node.premises)):
            child = "%s.%d" % (path, i)
            if sub.conclusion != want:
                diags.append((child, "premise sequent mismatch"))
            walk(sub, child)

    walk(pi, "0")
    return CheckResult(not diags, diags)


# ---------------------------------------------------------------------------
# proof scripts


@dataclass
class ProofScript:
    root: ProofNode
    params: dict
    assignment: dict


def _split_top_level(text: str) -> list:
    """Split on spaces outside parentheses and braces."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == " " and depth == 0:
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def parse_script(text: str) -> ProofScript:
    params: dict = {}
    assignment: dict = {}
    nodes: dict = {}
    last = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parts = _split_top_level(line)
            if parts[0] == "param":
                if len(parts) != 4 or parts[2] != "rank":
                    raise ValueError("param lines read: param <name> rank <ordinal>")
                r = parse_ord(parts[3])
                if not isinstance(r, Sub):
                    raise ValueError("parameter ranks lie below Omega")
                params[parts[1]] = Abstract(parts[1], r)
                continue
            if parts[0] == "assign":
                if len(parts) != 3:
                    raise ValueError("assign lines read: assign <var> <set>")
                assignment[parts[1]] = parse_set(parts[2], params)
                continue
            node_id, rule = parts[0], parts[1]
            if node_id in nodes:
                raise ValueError("duplicate node id %s" % node_id)
            if rule not in RULES:
                raise ValueError("unknown rule %r" % rule)
            idx = 2
            premise_ids: list = []
            if idx < len(parts) and parts[idx].startswith("["):
                inner = parts[idx][1:-1].strip()
                premise_ids = [p for p in inner.replace(",", " ").split() if p]
                idx += 1
            if idx >= len(parts) or not parts[idx].startswith("(seq"):
                raise ValueError("missing conclusion sequent")
            concl = sequent_from_tree(parse_sexp(parts[idx]), params)
            idx += 1
            kwargs: dict = {}
            for item in parts[idx:]:
                if "=" not in item:
                    raise ValueError("witnesses read key=value, got %r" % item)
                key, value = item.split("=", 1)
                if key in ("main", "formula"):
                    kwargs[key] = formula_from_tree(parse_sexp(value), params)
                elif key in ("term", "term2", "term3"):
                    kwargs[key] = term_from_tree(value, params)
                elif key in ("var", "var2"):
                    kwargs[key] = value
                else:
                    raise ValueError("unknown witness key %r" % key)
            try:
                prems = tuple(nodes[p] for p in premise_ids)
            except KeyError as e:
                raise ValueError("undefined premise id %s" % e)
            node = ProofNode(rule, concl, prems, **kwargs)
            nodes[node_id] = node
            last = node
        except ValueError as e:
            raise ValueError("line %d: %s" % (lineno, e)) from None
    if last is None:
        raise ValueError("empty proof script")
    return ProofScript(last, params, assignment)


def render_script(script: ProofScript) -> str:
    """Serialize a proof as a script; inverse of parse_script up to ids."""
    lines = []
    for name, p in sorted(script.params.items()):
        lines.append("param %s rank %s" % (name, render_ord(p.declared_rank)))
    for var, val in sorted(script.assignment.items()):
        lines.append("assign %s %s" % (var, render_set(val)))
    counter = [0]
    ids: dict = {}

    def emit(node):
        if id(node) in ids:
            return ids[id(node)]
        prem_ids = [emit(p) for p in node.premises]
        counter[0] += 1
        nid = "n%d" % counter[0]
        ids[id(node)] = nid
        parts = [nid, node.rule]
        if prem_ids:
            parts.append("[%s]" % ",".join(prem_ids))
        from .formulas import render_sequent

        parts.append(render_sequent(node.conclusion))
        for key in ("main", "formula"):
            val = getattr(node, key)
            if val is not None:
                parts.append("%s=%s" % (key, render_formula(val)))
        for key in ("term", "term2", "term3"):
            val = getattr(node, key)
            if val is not None:
                parts.append("%s=%s" % (key, render_term(val)))
        for key in ("var", "var2"):
            val = getattr(node, key)
            if val is not None:
                parts.append("%s=%s" % (key, val))
        lines.append(" ".join(parts))
        return nid

    emit(script.root)
    return "\n".join(lines) + "\n"
