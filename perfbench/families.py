"""Seeded proof-family generators for the three benchmark workloads.

Every input is built from proofkit's public constructors and serialized
with ``render_script``, so each operation starts from script text.  Each
case carries its known answer, worked out here from the construction
and never by running the checker, the embedding or the evaluators.

The share of each kind of case inside a pool is fixed by its position
in the pool, not drawn at random, so that the mix (and the latency
percentiles that depend on it) is the same for every seed; the seed
only changes the sentences, the parameters and the witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from proofkit import finitary, formulas, ordinals, universe
from proofkit.finitary import ProofNode, ProofScript
from proofkit.formulas import (
    All,
    And,
    BAll,
    BEx,
    Ex,
    Mem,
    Name,
    NotMem,
    Or,
    Var,
)

#: Sizes of each workload's pool and its fixed parameters.  A pool holds
#: at least 100 cases, so that the 90th percentile of one pass over it
#: has ten samples above it.  ``pass_s`` is the nominal length of one
#: pass, about the slowest seen on the reference machine; a run of T
#: seconds makes T / pass_s passes (see ``worker.pass_count``).
#: ``chunk`` is the number of operations between two calibration blocks
#: (see ``worker.measure``), about 0.15 s of work.
PARAMS = {
    "check": {"pool": 480, "quantifier_depth": 3, "cuts": 2, "dag_every": 4,
              "mutant_every": 5, "ball_every": 4, "var_share": 0.9,
              "pass_s": 4.0, "chunk": 20},
    "elim": {"pool": 100, "quantifier_depth": 5, "cuts": 2, "check_depth": 3,
             "ball_every": 5, "pass_s": 6.5, "chunk": 2},
    # the kinds repeat in this order; 2-quantifier sentences are half
    # of the pool so the median falls inside their cost range
    "sound": {"pool": 600, "mix": ("q2", "q2", "q3", "foundation", "q2", "ball"),
              "max_param_rank": 6, "eval_depth": 8, "pass_s": 4.5,
              "chunk": 20},
}


@dataclass
class Case:
    """One generated input with its known answer."""

    kind: str  # "valid", "dag", "mutant", "ball", "foundation", "q2", "q3"
    text: str
    nodes: int  # distinct script nodes (lines that define a node)
    walks: int  # nodes a tree walk of the proof visits
    qdepth: int  # largest quantifier depth in the end sequent
    param_rank: int  # largest rank of a set named in the end sequent
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sentences


def quantifier_depth_of(A) -> int:
    """Unbounded-quantifier nesting measure, computed independently of
    ``formulas.depth``: bounded formulas have depth 0, a connective or a
    quantifier over an unbounded part adds one."""
    if _bounded(A):
        return 0
    if isinstance(A, (Or, And)):
        return max(quantifier_depth_of(A.left), quantifier_depth_of(A.right)) + 1
    return quantifier_depth_of(A.body) + 1


def _bounded(A) -> bool:
    if isinstance(A, (Or, And)):
        return _bounded(A.left) and _bounded(A.right)
    if isinstance(A, (BEx, BAll)):
        return _bounded(A.body)
    return not isinstance(A, (Ex, All))


def von_neumann(n: int):
    """The von Neumann ordinal n as a hereditarily finite set (rank n)."""
    out = universe.EMPTY
    members = []
    for _ in range(n):
        members.append(out)
        out = universe.Concrete(frozenset(members))
    return out


class SentenceMaker:
    """Random sentences of a fixed quantifier shape over given parameters."""

    def __init__(self, rng: random.Random, params: list, bounded_share=0.3,
                 var_share=0.6):
        self.rng = rng
        self.params = params
        self.bounded_share = bounded_share  # of matrix splits that quantify
        self.var_share = var_share  # of terms in scope of a variable
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return "x%d" % self.counter

    def term(self, scope):
        if scope and self.rng.random() < self.var_share:
            return Var(self.rng.choice(scope))
        return Name(self.rng.choice(self.params))

    def atom(self, scope):
        cls = Mem if self.rng.random() < 0.5 else NotMem
        return cls(self.term(scope), self.term(scope))

    def delta0(self, scope, size: int):
        """A bounded formula with ``size`` atoms, all variables from scope."""
        if size <= 1:
            return self.atom(scope)
        r = self.rng.random()
        if r < self.bounded_share and scope:
            y = self.fresh()
            bound = Var(self.rng.choice(scope))
            cls = BEx if self.rng.random() < 0.5 else BAll
            return cls(y, bound, self.delta0(scope + [y], size - 1))
        left = self.delta0(scope, size // 2)
        right = self.delta0(scope, size - size // 2)
        return (Or if self.rng.random() < 0.5 else And)(left, right)

    def sentence(self, levels, scope=(), matrix_size: int = 2):
        """Sentence whose unbounded part follows ``levels`` from the top.

        ``ex``/``all``/``bex``/``ball`` bind a new variable over the rest;
        ``or``/``and`` pair the rest with a bounded side formula.  The
        last level must be ``ex`` or ``all`` for the result to have depth
        ``len(levels)``.
        """
        scope = list(scope)
        if not levels:
            return self.delta0(scope, matrix_size)
        kind, rest = levels[0], levels[1:]
        if kind in ("ex", "all", "bex", "ball"):
            x = self.fresh()
            body = self.sentence(rest, scope + [x], matrix_size)
            if kind == "ex":
                return Ex(x, body)
            if kind == "all":
                return All(x, body)
            bound = Name(self.rng.choice(self.params))
            return (BEx if kind == "bex" else BAll)(x, bound, body)
        inner = self.sentence(rest, scope, matrix_size)
        side = self.delta0(scope, 1)
        pair = (inner, side) if self.rng.random() < 0.5 else (side, inner)
        return (Or if kind == "or" else And)(*pair)


def shape(i: int, depth: int, kinds=("or", "and", "ex", "all")) -> list:
    """The i-th quantifier shape of the given depth, cycling through all
    of them so that every pool holds the same mix: upper levels range
    over ``kinds``, the bottom level is a quantifier so the depth is
    exact."""
    levels = [("ex", "all")[i % 2]]
    i //= 2
    for _ in range(depth - 1):
        levels.insert(0, kinds[i % len(kinds)])
        i //= len(kinds)
    return levels


def alternating(i: int, depth: int) -> list:
    """Alternating quantifier prefix of the given depth, starting with
    ``ex`` for even i and ``all`` for odd i."""
    q = ("ex", "all")
    return [q[(i + j) % 2] for j in range(depth)]


# ---------------------------------------------------------------------------
# identity-expansion proofs


class ProofMaker:
    """Identity-expansion proofs of {A, not A}, with the expected
    embedding rank of every node tracked alongside."""

    def __init__(self):
        self.counter = 0
        self.rank = {}  # id(node) -> embedding rank the construction implies

    def fresh(self) -> str:
        self.counter += 1
        return "v%d" % self.counter

    def _node(self, rule, concl, premises=(), **kw):
        node = ProofNode(rule, concl, tuple(premises), **kw)
        if rule == "logax":
            r = 2 * quantifier_depth_of(kw["main"])
        elif rule == "cut":
            r = max(max(self.rank[id(p)] for p in premises),
                    quantifier_depth_of(kw["formula"])) + 1
        else:
            r = max(self.rank[id(p)] for p in premises) + 1
        self.rank[id(node)] = r
        return node

    def logax(self, concl, A):
        return self._node("logax", concl, main=A)

    def prove(self, concl, A, sub=None):
        """A proof of ``concl``, which holds A and its negation.

        Unbounded formulas are decomposed by their rules; bounded ones
        close with a logical axiom.  With ``sub``, only the top
        inference is decomposed and ``sub(concl, B)`` proves each
        remaining identity on a component B."""
        neg = formulas.negate
        if _bounded(A):
            return self.logax(concl, A)
        if sub is None:
            sub = self.prove
        C = A if isinstance(A, (And, BAll, All)) else neg(A)
        D = neg(C)
        if isinstance(C, And):
            kids = []
            for part in (C.left, C.right):
                s1 = (concl - {C}) | {part}
                s2 = (s1 - {D}) | {D.left, D.right}
                inner = sub(s2, part)
                kids.append(self._node("or", s1, (inner,), main=D))
            return self._node("and", concl, kids, main=C)
        v = self.fresh()
        body = formulas.subst(C.body, C.var, Var(v))
        if isinstance(C, All):
            s1 = concl | {body}
            s2 = s1 | {neg(body)}
            inner = sub(s2, body)
            ex = self._node("ex", s1, (inner,), main=D, term=Var(v))
            return self._node("all", concl, (ex,), main=C, var=v)
        # C is a bounded universal
        mem = Mem(Var(v), C.bound)
        s1 = (concl - {C}) | {neg(mem), body}
        side = s1 - {D}
        p0 = self.logax(side | {mem}, mem)
        p1 = sub(side | {neg(body)}, body)
        bex = self._node("bex", s1, (p0, p1), main=D, term=Var(v))
        return self._node("ball", concl, (bex,), main=C, var=v)

    def copy(self, node):
        """A structurally equal proof made of fresh node objects, so that
        the script repeats it instead of sharing it."""
        out = replace(node, premises=tuple(self.copy(p) for p in node.premises))
        self.rank[id(out)] = self.rank[id(node)]
        return out

    def cut_chain(self, base, A, k: int, shared: bool, rng: random.Random):
        """Wrap ``base`` (a proof of a sequent holding A and not A) in k
        redundant cuts on A or its negation; both premises prove the
        conclusion again.  With ``shared`` both premises name one node,
        making the script a DAG."""
        root = base
        for _ in range(k):
            C = A if rng.random() < 0.5 else formulas.negate(A)
            right = root if shared else self.copy(root)
            root = self._node("cut", base.conclusion, (root, right), formula=C)
        return root


def _count(root) -> tuple:
    """(distinct nodes, nodes visited by a tree walk)."""
    seen = set()

    def walk(n):
        seen.add(id(n))
        return 1 + sum(walk(p) for p in n.premises)

    walks = walk(root)
    return len(seen), walks


def _mutate(root, rng: random.Random):
    """Drop one formula from the conclusion of one non-root node."""
    order, seen = [], set()

    def collect(n):
        if id(n) in seen:
            return
        seen.add(id(n))
        for p in n.premises:
            collect(p)
        if n is not root and n.conclusion:
            order.append(n)

    collect(root)
    target = rng.choice(order)
    dropped = rng.choice(sorted(target.conclusion, key=formulas.render_formula))
    memo = {}

    def rebuild(n):
        if id(n) not in memo:
            if n is target:
                memo[id(n)] = replace(n, conclusion=n.conclusion - {dropped})
            else:
                memo[id(n)] = replace(
                    n, premises=tuple(rebuild(p) for p in n.premises))
        return memo[id(n)]

    return rebuild(root)


def _hf_rank(s) -> int:
    return 1 + max(map(_hf_rank, s.members)) if s.members else 0


def _case(kind: str, root, expect: dict) -> Case:
    nodes, walks = _count(root)
    end = root.conclusion
    return Case(kind, finitary.render_script(ProofScript(root, {}, {})),
                nodes, walks, max(quantifier_depth_of(A) for A in end),
                max((_hf_rank(s) for s in formulas.support(end)), default=0),
                expect)


def _closed_bound(m: int):
    """Embedding bound of a closed proof of rank m: Omega * m."""
    return ordinals.times_nat(ordinals.OMEGA, m)


def elim_bound(m: int):
    """Bound after m elimination rounds: the m-fold omega power of Omega*m."""
    out = _closed_bound(m)
    for _ in range(m):
        out = ordinals.omega_exp(out)
    return out


# ---------------------------------------------------------------------------
# the three families


def gen_check(seed: int, size: int | None = None) -> list:
    """Cut-chained identity proofs of depth-3 sentences; a fixed share
    are DAG-shaped, a fixed share hold bounded quantifiers decomposed by
    the ``bex``/``ball`` rules, and a fixed share are mutants."""
    p = PARAMS["check"]
    rng = random.Random(seed)
    hf = universe.enumerate_hf(16)
    out = []
    for i in range(size or p["pool"]):
        sm = SentenceMaker(rng, hf[1:4], var_share=p["var_share"])
        levels = shape(i // 2, p["quantifier_depth"])
        ball = i % p["ball_every"] == 2
        if ball:
            levels[0] = rng.choice(("ball", "bex"))
        A = sm.sentence(levels)
        pm = ProofMaker()
        shared = i % p["dag_every"] == 0
        base = pm.prove(frozenset({A, formulas.negate(A)}), A)
        root = pm.cut_chain(base, A, p["cuts"], shared, rng)
        m = pm.rank[id(root)]
        expect = {
            "ok": True,
            "end": formulas.render_sequent(root.conclusion),
            "rank": m,
            "bound": _closed_bound(m),
        }
        kind = "dag" if shared else ("ball" if ball else "valid")
        if i % p["mutant_every"] == p["mutant_every"] - 1:
            root = _mutate(root, rng)
            expect = {"ok": False}
            kind = "mutant"
        out.append(_case(kind, root, expect))
    return out


def gen_elim(seed: int, size: int | None = None) -> list:
    """Short DAG cut chains over logical axioms on depth-5 unbounded
    sentences (embedding rank 12).  A fixed share instead decompose a
    top-level bounded universal by the ``ball`` rule and put the cut
    chain under it (rank 10), where the elimination meets the
    rank-0 leaf the embedding places under each ``ball`` cut."""
    p = PARAMS["elim"]
    rng = random.Random(seed)
    hf = universe.enumerate_hf(16)
    out = []
    for i in range(size or p["pool"]):
        sm = SentenceMaker(rng, hf[1:8])
        ball = i % p["ball_every"] == 2
        n = p["quantifier_depth"] - (1 if ball else 0)
        levels = shape(i, n, ("ex", "all"))
        pm = ProofMaker()

        def chain(concl, B):
            return pm.cut_chain(pm.logax(concl, B), B, p["cuts"], True, rng)

        if ball:
            levels[0] = "ball"
        A = sm.sentence(levels, matrix_size=1)
        concl = frozenset({A, formulas.negate(A)})
        root = pm.prove(concl, A, sub=chain) if ball else chain(concl, A)
        m = pm.rank[id(root)]
        expect = {
            "rank": m,
            "bound": elim_bound(m),
            "depth": p["check_depth"],
            "sampler_seed": rng.randrange(1 << 16),
        }
        out.append(_case("ball" if ball else "valid", root, expect))
    return out


def _foundation_case(rng: random.Random, max_rank: int) -> ProofNode:
    r = rng.randint(3, max_rank)
    T = von_neumann(r)
    x, y = "x", "y"
    phi = (Mem if rng.random() < 0.5 else NotMem)(Var(x), Name(T))
    if rng.random() < 0.5:
        phi = Or(phi, Mem(Name(von_neumann(rng.randint(0, r - 1))), Var(x)))
    inst = finitary.ax_foundation(x, y, phi)
    return ProofNode("axiom:foundation", frozenset({inst}), var=x, var2=y,
                     formula=phi)


def gen_sound(seed: int, size: int | None = None) -> list:
    """Identity proofs of sentences with 2 or 3 alternating unbounded
    quantifiers over a bounded matrix, parameters HF sets and von
    Neumann ordinals up to rank 6, mixed with foundation instances and
    with sentences that start with ``ball`` over a von Neumann ordinal,
    in the fixed proportions of ``PARAMS["sound"]["mix"]``."""
    p = PARAMS["sound"]
    mix = p["mix"]
    rng = random.Random(seed)
    ordinals_ = [von_neumann(n) for n in range(1, p["max_param_rank"] + 1)]
    params = universe.enumerate_hf(16)[1:] + ordinals_
    out = []
    for i in range(size or p["pool"]):
        sm = SentenceMaker(rng, params, bounded_share=0.0)
        kind = mix[i % len(mix)]
        pm = ProofMaker()
        if kind == "foundation":
            root = _foundation_case(rng, p["max_param_rank"])
            m = 2  # the rank the embedding gives a foundation axiom
        else:
            if kind == "ball":
                # every x in the ordinal has a member y with a bounded
                # property; false at x = 0, so neither side of the
                # identity is certified and the evaluator must expand
                # the ball rule
                n = rng.randint(2, p["max_param_rank"])
                x, y = sm.fresh(), sm.fresh()
                matrix = And(Mem(Var(y), Var(x)), sm.delta0([x, y], 2))
                A = BAll(x, Name(ordinals_[n - 1]), Ex(y, matrix))
            else:
                prefix = alternating(i // len(mix), 3 if kind == "q3" else 2)
                A = sm.sentence(prefix, matrix_size=3)
            root = pm.prove(frozenset({A, formulas.negate(A)}), A)
            m = pm.rank[id(root)]
        out.append(_case(kind, root, {"eval_depth": p["eval_depth"], "rank": m}))
    return out


GENERATORS = {"check": gen_check, "elim": gen_elim, "sound": gen_sound}


def describe(cases: list) -> dict:
    """Input properties of a pool, for the run's environment record."""
    kinds: dict = {}
    for c in cases:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    nodes = sum(c.nodes for c in cases)
    return {
        "cases": len(cases),
        "kinds": kinds,
        "script_nodes": nodes,
        "rewalk_factor": round(sum(c.walks for c in cases) / nodes, 3),
        "embedding_rank": sorted({c.expect["rank"] for c in cases if "rank" in c.expect}),
        "quantifier_depth": sorted({c.qdepth for c in cases}),
        "max_param_rank": max(c.param_rank for c in cases),
    }
