"""Finitary notations for infinitary operator-controlled derivations.

A derivation term denotes an infinite proof tree whose every node
carries a signature ``sig = (hull, bound, rank, sequent)``: the sequent
is derivable with cut rank below ``rank``, with ordinal bound ``bound``,
and with all set parameters and the bound itself inside the ``hull``.

Terms come in two layers.  Explicit nodes (TrueLeaf, VeeNode,
WedgeNode, CutNode, RefNode) mirror the five infinitary inferences and
carry their premises directly -- conjunctive premises lazily, as a
function of the index.  Defined notations (Taut, Emb, Weak, Red, Inv,
Drop, E) denote derivations built by the standard proof-theoretic
constructions: tautology derivations of finite height, the embedding of
finitary proofs and axiom instances (a foundation instance by induction
on rank), weakening, reduction of a disjunctive cut formula, inversion,
removal of a false bounded formula, and rounds of predicative
cut-elimination.  ``unfold``
rewrites one defined layer into an explicit node with the same
signature; iterating it expands any finite fragment of the denoted
tree.

Explicit nodes are deliberately unvalidated -- the local checker exists
to catch bad ones -- while the defined notations validate their
preconditions at construction time.

A derivation-term premise is its own derivation, weakened by the
conclusion: the embedding and the reduction fit a premise to the
conclusion's hull and rank and to its sequent joined with the
premise's own, so the premise rules are written only in ``wants``.

A premise used twice at one wanted signature is one term.  A cut whose
two premises are one script node embeds that node once; ``_map_premises``
rebuilds such a premise once for both sides, and ``E`` lowers it once,
by all of its rounds, to ``E(p, k)``.  Each term is a function of its
arguments, so this changes no signature, only how often one term is
built and unfolded.

A closure that a node stores (a conjunction's premise function, or the
wrap that ``_map_premises`` applies to each premise) holds a term's
parts, never the term: a term keeps its unfolded node, so a closure in
that node which held the term would make a reference cycle.  Without
cycles, reference counting frees a derivation as soon as its last user
drops it, and none is left to the cyclic collector.
"""

from __future__ import annotations

from typing import NamedTuple

from . import finitary as fin
from .formulas import (
    BEx,
    DISJUNCTIVE,
    Formula,
    JBounded,
    J_TWO,
    J_UNIVERSE,
    Mem,
    Name,
    NotMem,
    Sequent,
    Term,
    Var,
    close,
    component,
    conjunctive,
    depth,
    determinable,
    eval_formula_bounded,
    free_vars,
    index_set,
    is_delta0,
    negate,
    support,
)
from .ordinals import (
    GREATER,
    OMEGA,
    OrdCode,
    ZERO as ORD_ZERO,
    add,
    cmp,
    from_nat,
    nat_sum,
    omega_tower,
    times_nat,
)
from .universe import (
    Abstract,
    Concrete,
    DeskSet,
    EMPTY,
    EvaluationError,
    Hull,
    OMEGA_WITNESS,
    hull_at,
    hull_contains,
    hull_extend,
    hull_extend_list,
    hull_subsumes,
    rank,
    rank_int,
    set_members,
    transitive_closure,
    witness_pool,
)


class ConstructionError(Exception):
    """A defined derivation notation violates its construction clause."""


class Sig(NamedTuple):
    hull: Hull
    bound: OrdCode
    rank: int
    seq: Sequent


def _bump(alpha: OrdCode, n: int) -> OrdCode:
    return add(alpha, from_nat(n))


class DerivTerm:
    """Base class; all terms expose a signature and unfold to an
    explicit inference node."""

    sig: Sig

    def __init__(self):
        self._unfolded = None

    def _expand(self):
        raise NotImplementedError

    def unfold(self):
        if self._unfolded is None:
            self._unfolded = self._expand()
        return self._unfolded


def rule_of(d: DerivTerm):
    """Top inference of the denoted derivation, as an explicit node."""
    while not isinstance(d, ExplicitNode):
        d = d.unfold()
    return d


# ---------------------------------------------------------------------------
# explicit inference nodes


class ExplicitNode(DerivTerm):
    rule_name = "?"
    main: Formula | None = None

    def _expand(self):
        return self

    def indices(self):
        return []

    def premise(self, iota) -> DerivTerm:
        raise IndexError("rule %s has no premise %r" % (self.rule_name, iota))

    def wants(self, sig: Sig, iota) -> tuple:
        """The premise rule: the hull and the sequent that premise iota
        must have when this node concludes ``sig``."""
        raise IndexError("rule %s has no premise %r" % (self.rule_name, iota))


class TrueLeaf(ExplicitNode):
    """Conjunctive inference over the empty index set: its main formula
    is a true bounded sentence.  When the main contains opaque atoms or
    abstract parameters (it is not ``determinable``), its truth is
    asserted by the construction but not machine-checkable."""

    rule_name = "true-leaf"

    def __init__(self, sig: Sig, main: Formula):
        super().__init__()
        self.sig = sig
        self.main = main


class VeeNode(ExplicitNode):
    """Disjunctive inference: one premise, adding the component at iota."""

    rule_name = "vee"

    def __init__(self, sig: Sig, main: Formula, iota, sub: DerivTerm):
        super().__init__()
        self.sig = sig
        self.main = main
        self.iota = iota
        self.sub = sub

    def indices(self):
        return [self.iota]

    def premise(self, iota) -> DerivTerm:
        if iota != self.iota:
            raise IndexError("this disjunctive inference used index %r" % (self.iota,))
        return self.sub

    def wants(self, sig: Sig, iota) -> tuple:
        return sig.hull, sig.seq | {component(self.main, iota)}


class WedgeNode(ExplicitNode):
    """Conjunctive inference: one premise per index, computed lazily."""

    rule_name = "wedge"

    def __init__(self, sig: Sig, main: Formula, index_set, premise_fn):
        super().__init__()
        self.sig = sig
        self.main = main
        self.index_set = index_set
        self._premise_fn = premise_fn
        self._cache = {}

    def indices(self):
        return self.index_set.members()

    def premise(self, iota) -> DerivTerm:
        p = self._cache.get(iota)
        if p is None:
            self.index_set.require(iota)
            p = self._cache[iota] = self._premise_fn(iota)
        return p

    def wants(self, sig: Sig, iota) -> tuple:
        return hull_at(sig.hull, iota), sig.seq | {component(self.main, iota)}


class _TwoPremiseNode(ExplicitNode):
    """An inference with a left premise 0 and a right premise 1."""

    premises_name = "?"
    left: DerivTerm
    right: DerivTerm

    def indices(self):
        return [0, 1]

    def premise(self, iota) -> DerivTerm:
        if iota == 0:
            return self.left
        if iota == 1:
            return self.right
        raise IndexError("%s premises are 0 and 1" % self.premises_name)


class CutNode(_TwoPremiseNode):
    rule_name = "cut"
    premises_name = "cut"

    def __init__(self, sig: Sig, cut_formula: Formula, left: DerivTerm, right: DerivTerm):
        super().__init__()
        self.sig = sig
        self.cut_formula = cut_formula
        self.left = left
        self.right = right

    def wants(self, sig: Sig, iota) -> tuple:
        C = self.cut_formula
        return sig.hull, sig.seq | {C if iota else negate(C)}


class RefNode(_TwoPremiseNode):
    """Reflection inference: from A at the point c, and from the guard
    sentence saying every admissible set containing c refutes A there,
    conclude the sequent."""

    rule_name = "ref"
    premises_name = "reflection"

    def __init__(
        self,
        sig: Sig,
        formula: Formula,
        point: Term,
        guard: Formula,
        left: DerivTerm,
        right: DerivTerm,
    ):
        super().__init__()
        self.sig = sig
        self.formula = formula
        self.point = point
        self.guard = guard
        self.left = left
        self.right = right

    def wants(self, sig: Sig, iota) -> tuple:
        return sig.hull, sig.seq | {self.guard if iota else self.formula}


# ---------------------------------------------------------------------------
# tautologies: gamma, not-A, A in 2 dp(A) steps


class Taut(DerivTerm):
    def __init__(self, A: Formula, gamma: Sequent, hull: Hull):
        super().__init__()
        if free_vars(A):
            raise ConstructionError("tautology derivations need sentences")
        self.A = A
        seq = gamma | {negate(A), A}
        self.sig = Sig(hull, from_nat(2 * depth(A)), 0, seq)

    def _expand(self):
        A, P, seq = self.A, self.sig.hull, self.sig.seq
        d = depth(A)
        if d == 0 and not determinable(A):
            return TrueLeaf(self.sig, A)
        # of A and not-A, the side read as a conjunction; for a bounded
        # sentence, the true one
        C = A if conjunctive(A) else negate(A)
        if d == 0:
            return TrueLeaf(self.sig, C)

        def prem(iota):
            C_iota = component(C, iota)
            hull_i = hull_at(P, iota)
            inner = Taut(C_iota, seq, hull_i)
            vee_sig = Sig(hull_i, from_nat(2 * d - 1), 0, seq | {C_iota})
            return VeeNode(vee_sig, negate(C), iota, inner)

        return WedgeNode(self.sig, C, index_set(C), prem)


# ---------------------------------------------------------------------------
# foundation: gamma, progress-failure, forall x A(x), by induction on rank


def _progress_wedge(sig: Sig, A: Formula, J, B: Formula, U: Formula) -> WedgeNode:
    """The conjunction A over the index set J, at sig, of the progress
    derivations at each index, for the progress failure B = exists x
    (forall y in x A(y) and not A(x)) and the universal U = forall x
    A(x): A is U over the universe at the top of a foundation instance,
    and forall z in b A(z) over the members of b at each step below."""
    return WedgeNode(sig, A, J, lambda c: _fund_progress(
        c, B, U, sig.seq, hull_extend(sig.hull, c)))


def _fund_progress(b: DeskSet, B: Formula, U: Formula, gamma: Sequent, hull: Hull) -> DerivTerm:
    """Derivation of gamma, B, A(b) in 2d + 3 rank(b) + 2 steps, for the
    progress failure B and the universal U = forall x A(x), d the depth
    of A: the disjunctive step into the failure witness b over the
    conjunction of the induction hypothesis below b with a tautology.
    The hypothesis is the progress wedge over the members of b, in
    2d + 3 rank(b) steps."""
    A_b = component(U, b)
    base = gamma | {B, A_b}
    d = depth(U.body)
    below = add(from_nat(2 * d), times_nat(rank(b), 3))
    vee_sig = Sig(hull, _bump(below, 2), 0, base)

    if d == 0 and determinable(A_b):
        # a settled bounded induction formula: either A(b) itself is true,
        # or some membership-minimal failure at or below b witnesses the
        # progress-failure sentence outright
        if eval_formula_bounded(A_b):
            return TrueLeaf(vee_sig, A_b)
        return _witnessed(vee_sig, B, _minimal_failure(b, U), from_nat(0))

    C_b = component(B, b)
    wedge_seq = base | {C_b}
    all_in_b = C_b.left

    def prem(i):
        if i == 0:
            hyp_sig = Sig(hull, below, 0, wedge_seq | {all_in_b})
            return _progress_wedge(hyp_sig, all_in_b, JBounded(b), B, U)
        return Taut(A_b, wedge_seq, hull)

    wedge = WedgeNode(Sig(hull, _bump(below, 1), 0, wedge_seq), C_b, J_TWO, prem)
    return VeeNode(vee_sig, B, b, wedge)


def _minimal_failure(b: DeskSet, U: Formula) -> DeskSet:
    """A set at or hereditarily below b that falsifies the body of the
    universal U while all of its members satisfy it; exists whenever
    U's instance at b is false."""
    candidates = sorted(
        transitive_closure(b) | {b}, key=lambda s: (rank_int(s), repr(s))
    )
    for c in candidates:
        if eval_formula_bounded(component(U, c)):
            continue
        if all(eval_formula_bounded(component(U, m)) for m in set_members(c)):
            return c
    raise ConstructionError("no minimal failure below a false instance")


# ---------------------------------------------------------------------------
# weakening


class Weak(DerivTerm):
    def __init__(self, sub: DerivTerm, sig: Sig):
        super().__init__()
        old = sub.sig
        # hulls and codes are interned, so an unchanged one is the same
        # object and needs no value check
        if sig.hull is not old.hull and not hull_subsumes(sig.hull, old.hull):
            raise ConstructionError("weakening must not shrink the hull")
        if sig.rank < old.rank:
            raise ConstructionError("weakening must not lower the cut rank")
        if old.bound is not sig.bound and cmp(old.bound, sig.bound) == GREATER:
            raise ConstructionError("weakening must not lower the bound")
        if not old.seq <= sig.seq:
            raise ConstructionError("weakening only adds sequent members")
        for a in support(sig.seq - old.seq):
            if not hull_contains(sig.hull, a):
                raise ConstructionError("added formulas must live in the new hull")
        # all five conditions are transitive, so a weakening of a
        # weakening is one of the inner term
        self.sub = sub.sub if isinstance(sub, Weak) else sub
        self.sig = sig

    def _expand(self):
        return _map_premises(rule_of(self.sub), self.sig)


def fit(d: DerivTerm, hull: Hull, rank_: int, seq: Sequent) -> DerivTerm:
    """d at the given hull, cut rank and sequent, at its own bound: d
    itself when that changes nothing, its weakening otherwise.  The new
    signature is checked against d's; when d is itself a weakening, the
    result weakens d's sub, so a chain of weakenings is one term."""
    old = d.sig
    # an unchanged sequent is usually the same object, which is not
    # compared member by member; hulls are interned
    if hull is old.hull and rank_ == old.rank and (seq is old.seq or seq == old.seq):
        return d
    return Weak(d, Sig(hull, old.bound, rank_, seq))


# ---------------------------------------------------------------------------
# axiom embeddings


def axemb_rank(node: fin.ProofNode) -> int:
    """Cut rank assigned to an axiom by the embedding."""
    return 2 if node.rule == "axiom:foundation" else 1


def _true_leaf(M: Formula, seq: Sequent, hull: Hull, bound: OrdCode) -> TrueLeaf:
    if determinable(M) and not eval_formula_bounded(M):
        raise ConstructionError("axiom embedding produced a false leaf")
    return TrueLeaf(Sig(hull, bound, 0, seq), M)


def _witnessed(sig: Sig, A: Formula, w: DeskSet, bound: OrdCode) -> VeeNode:
    """The disjunctive inference into the existential A at its witness
    w, over a true leaf on the instance at ``bound``."""
    matrix = component(A, w)
    leaf = _true_leaf(matrix, sig.seq | {matrix}, sig.hull, bound)
    return VeeNode(sig, A, w, leaf)


def _both_disjuncts(sig: Sig, A: Formula, inner: DerivTerm) -> VeeNode:
    """sig's sequent, which holds the disjunction A, from ``inner``, a
    derivation of it plus both disjuncts: the disjunctive inference
    into A at index 1, then at index 0."""
    upper = Sig(sig.hull, _bump(inner.sig.bound, 1), sig.rank, sig.seq | {A.left})
    return VeeNode(sig, A, 0, VeeNode(upper, A, 1, inner))


def _cut_away(sig: Sig, C: Formula, right: DerivTerm, bound: OrdCode) -> CutNode:
    """sig's sequent from ``right``, a derivation of it plus the false
    bounded formula C: the cut on C against a true leaf on not-C at
    ``bound``."""
    not_c = negate(C)
    return CutNode(sig, C, _true_leaf(not_c, sig.seq | {not_c}, sig.hull, bound), right)


def _axemb_expand(node: fin.ProofNode, assignment: dict, sig: Sig, N: int) -> ExplicitNode:
    """The last inference of a cut-free derivation of the closed axiom
    instance at ``node``, at sig's hull, bound and sequent."""
    inst = close(fin.axiom_instance(node, N), assignment)
    P, seq = sig.hull, sig.seq
    sig = Sig(P, sig.bound, 0, seq)
    kind = node.rule.split(":")[1]

    if kind == "extensionality":
        return _true_leaf(inst, seq, P, sig.bound)

    if kind == "pair":
        # inst = exists z (a in z and b in z); witness {a, b}
        body = inst.body
        a_val = body.left.left.value
        b_val = body.right.left.value
        return _witnessed(sig, inst, Concrete(frozenset({a_val, b_val})), from_nat(1))

    if kind == "union":
        a_val = _closed_value(node.term, assignment)
        members = set()
        for b in set_members(a_val):
            members |= set_members(b)
        return _witnessed(sig, inst, Concrete(frozenset(members)), from_nat(0))

    if kind == "separation":
        a_val = _closed_value(node.term, assignment)
        x = node.var
        phi = close(node.formula, assignment, {x})
        chosen = frozenset(
            b for b in set_members(a_val)
            if eval_formula_bounded(phi, {x: b})
        )
        return _witnessed(sig, inst, Concrete(chosen), from_nat(0))

    if kind == "collection":
        a_val = _closed_value(node.term, assignment)
        x, y = node.var, node.var2
        phi = close(node.formula, assignment, {x, y})
        pool = witness_pool(8, [a_val])
        found = []
        for u in set_members(a_val):
            hit = None
            for v in pool:
                if eval_formula_bounded(phi, {x: u, y: v}):
                    hit = v
                    break
            if hit is None:
                raise EvaluationError(
                    "no collection witness found in the search space"
                )
            found.append(hit)
        right = inst.right  # exists z forall x in a exists y in z phi
        vee2 = _witnessed(Sig(P, from_nat(1), 0, seq | {right}), right,
                          Concrete(frozenset(found)), from_nat(0))
        return VeeNode(sig, inst, 1, vee2)

    if kind == "infinity":
        # wedge over the universe; every premise picks the distinguished
        # limit witness
        def prem(iota):
            hull_i = hull_extend(P, iota)
            comp = component(inst, iota)  # exists y (iota in y and ad(y))
            prem_seq = seq | {comp}
            matrix = component(comp, OMEGA_WITNESS)
            wedge_seq = prem_seq | {matrix}

            def inner(i):
                part = component(matrix, i)
                return _true_leaf(part, wedge_seq | {part}, hull_i, from_nat(0))

            wedge = WedgeNode(Sig(hull_i, from_nat(1), 0, wedge_seq), matrix, J_TWO, inner)
            return VeeNode(Sig(hull_i, from_nat(2), 0, prem_seq), comp, OMEGA_WITNESS, wedge)

        return WedgeNode(sig, inst, J_UNIVERSE, prem)

    if kind == "foundation":
        B, U = inst.left, inst.right  # the progress failure, forall x phi
        wedge = _progress_wedge(Sig(P, OMEGA, 0, seq | {B, U}), U, J_UNIVERSE, B, U)
        return _both_disjuncts(sig, inst, wedge)

    # reflection
    A = inst.left  # negated reflected formula
    refl = negate(A)
    ex_part = inst.right
    point = Name(_closed_value(node.term, assignment))
    guard = negate(ex_part)
    d = depth(refl)
    ref_seq = seq | {A, ex_part}
    ref_sig = Sig(P, from_nat(max(2 * d, 2) + 1), 0, ref_seq)
    left = Taut(refl, ref_seq, P)
    right = Taut(ex_part, ref_seq, P)
    ref = RefNode(ref_sig, refl, point, guard, left, right)
    return _both_disjuncts(sig, inst, ref)


def _closed_value(t: Term, assignment: dict) -> DeskSet:
    if isinstance(t, Var):
        return assignment.get(t.name, EMPTY)
    return t.value


# ---------------------------------------------------------------------------
# embedding of finitary proofs


def emb_rank(pi: fin.ProofNode) -> int:
    """Cut rank of the embedded derivation, by the standard recursion."""
    return _emb_ranks(pi)[id(pi)]


def _emb_ranks(pi: fin.ProofNode) -> dict:
    """``emb_rank`` of each node of pi, by the node's id, in one walk."""
    ranks: dict = {}
    for node in fin.post_order(pi):
        if node.rule == "logax":
            r = 2 * depth(node.main)
        elif node.rule in fin.AXIOM_RULES:
            r = axemb_rank(node)
        else:
            r = max(ranks[id(p)] for p in node.premises) + 1
            if node.rule == "cut":
                r = max(r, depth(node.formula) + 1)
        ranks[id(node)] = r
    return ranks


def emb_bound(m: int, values) -> OrdCode:
    """The bound Omega * m, naturally summed with 3 * rank(a) per parameter."""
    acc = ORD_ZERO
    for a in values:
        acc = nat_sum(acc, times_nat(rank(a), 3))
    return add(times_nat(OMEGA, m), acc)


class Emb(DerivTerm):
    """Embedding of a checked finitary proof under a variable assignment.
    The ranks of the proof's nodes are computed once, for the root, and
    the embeddings of its premises share them.  Its unfolded node builds
    premises with the function ``_premise_maker`` returns, a closure
    over the embedding's parts (proof node, assignment, base hull, N,
    ranks and signature), never over the embedding itself."""

    def __init__(self, pi: fin.ProofNode, assignment: dict, hull: Hull, N: int = 2):
        self._embed(pi, assignment, hull, N, _emb_ranks(pi))

    def _embed(self, pi: fin.ProofNode, assignment: dict, hull: Hull, N: int, ranks: dict):
        """Make this term the embedding of pi, a node that ``ranks``
        holds with all of the nodes below it."""
        super().__init__()
        self.pi = pi
        self.assignment = dict(assignment)
        self.N = N
        self.ranks = ranks
        self.m = ranks[id(pi)]
        values = [assignment[v] for v in sorted(assignment)]
        full_hull = hull_extend_list(hull, values)
        self.base_hull = hull
        seq = frozenset(close(A, assignment) for A in pi.conclusion)
        self.sig = Sig(full_hull, emb_bound(self.m, values), self.m, seq)

    def _premise_maker(self):
        """The function from k (and ``extra``) to premise k as its own
        derivation, weakened by the conclusion: the embedding of premise
        k under the assignment updated by ``extra``, fitted to this
        embedding's hull extended by ``extra``'s values, its rank, and
        its sequent joined with the premise's.  For a checked proof that
        sequent is the one the node's premise rule wants."""
        pi, assignment, base_hull, N, ranks = (
            self.pi, self.assignment, self.base_hull, self.N, self.ranks)
        hull, m, seq = self.sig.hull, self.m, self.sig.seq

        def premise(k: int, extra: dict | None = None) -> DerivTerm:
            a, h = assignment, hull
            if extra:
                a = {**assignment, **extra}
                h = hull_extend_list(hull, extra.values())
            sub = Emb.__new__(Emb)
            sub._embed(pi.premises[k], a, base_hull, N, ranks)
            return fit(sub, h, m, seq | sub.sig.seq)

        return premise

    def _expand(self):
        return _emb_expand(self)


def _emb_expand(e: Emb) -> ExplicitNode:
    pi, sig = e.pi, e.sig
    P, seq = sig.hull, sig.seq

    if pi.rule == "logax":
        t = Taut(close(pi.main, e.assignment), seq, P)
        return _map_premises(rule_of(t), sig)

    if pi.rule in fin.AXIOM_RULES:
        return _map_premises(_axemb_expand(pi, e.assignment, sig, e.N), sig)

    premise = e._premise_maker()
    if pi.rule == "cut":
        left = premise(0)
        right = left if pi.premises[1] is pi.premises[0] else premise(1)
        return CutNode(sig, close(pi.formula, e.assignment), left, right)

    main = close(pi.main, e.assignment)

    if pi.rule in ("or", "and") and is_delta0(main):
        # a connective of a bounded sentence is read by its truth value,
        # so its own inference is not available; settle it directly
        if not determinable(main):
            raise ConstructionError(
                "cannot orient a bounded disjunction with opaque parts" if pi.rule == "or"
                else "cannot orient a bounded conjunction with opaque parts")
        if eval_formula_bounded(main):
            return TrueLeaf(sig, main)
        zero = from_nat(0)
        if pi.rule == "and":
            i = int(eval_formula_bounded(main.left))  # the first false conjunct
            return _cut_away(sig, component(main, i), premise(i), zero)
        inner = premise(0)  # both disjuncts are false
        upper = Sig(P, _bump(inner.sig.bound, 1), sig.rank, seq | {main.right})
        return _cut_away(sig, main.right, _cut_away(upper, main.left, inner, zero), zero)

    if pi.rule == "or":
        return _both_disjuncts(sig, main, premise(0))

    if pi.rule == "and":
        return WedgeNode(sig, main, J_TWO, premise)

    if pi.rule == "ex":
        return VeeNode(sig, main, _closed_value(pi.term, e.assignment), premise(0))

    if pi.rule == "all":
        return WedgeNode(sig, main, J_UNIVERSE, lambda b: premise(0, {pi.var: b}))

    if pi.rule == "bex":
        iota = _closed_value(pi.term, e.assignment)
        membership = Mem(Name(iota), main.bound)
        if eval_formula_bounded(membership):
            return VeeNode(sig, main, iota, premise(1))
        # witness misses the bounding set: the membership premise is
        # effectively a proof of the conclusion, cut against its negation
        return _cut_away(sig, membership, premise(0), from_nat(1))

    if pi.rule == "ball":
        def prem(b):
            right = premise(0, {pi.var: b})
            cut_sig = Sig(right.sig.hull, _bump(right.sig.bound, 1), sig.rank,
                          seq | {component(main, b)})
            return _cut_away(cut_sig, NotMem(Name(b), main.bound), right, from_nat(1))

        return WedgeNode(sig, main, JBounded(main.bound.value), prem)

    raise ConstructionError("cannot embed rule %r" % pi.rule)


# ---------------------------------------------------------------------------
# removal of a false bounded sequent member


class Drop(DerivTerm):
    def __init__(self, sub: DerivTerm, C: Formula):
        super().__init__()
        if not is_delta0(C):
            raise ConstructionError("only bounded members can be dropped")
        if determinable(C) and eval_formula_bounded(C):
            raise ConstructionError("only false members can be dropped")
        self.sub = sub
        self.C = C
        old = sub.sig
        self.sig = Sig(old.hull, old.bound, old.rank, old.seq - {C})

    def _expand(self):
        v = rule_of(self.sub)
        C, sig = self.C, self.sig
        if getattr(v, "main", None) is C:
            # a false bounded existential may still head a set-indexed
            # disjunctive inference; its component is false as well
            if isinstance(v, VeeNode) and isinstance(C, BEx):
                comp = component(C, v.iota)
                inner = Drop(Drop(v.sub, comp), C)
                return _map_premises(rule_of(inner), sig)
            raise ConstructionError("a false bounded sentence heads no rule")
        return _map_premises(v, sig, lambda p, hull: Drop(p, C))


def _same(p: DerivTerm, hull: Hull) -> DerivTerm:
    return p


def _map_premises(v: ExplicitNode, sig: Sig, wrap=_same) -> ExplicitNode:
    """Copy an explicit node at a new signature.  Each premise p becomes
    ``wrap(p, hull)``, for the hull that the node's rule wants of it at
    ``sig``, fitted at its own bound and the node's cut rank to that hull
    and the wanted sequent.
    A premise used twice at one wanted signature is one term: when both
    premises are one term and the rule wants the same of each, it is
    rebuilt once and stands on both sides."""
    if isinstance(v, TrueLeaf):
        return TrueLeaf(sig, v.main)
    if isinstance(v, VeeNode):
        return VeeNode(sig, v.main, v.iota, _refit(v, sig, wrap, v.iota, v.sub))
    if isinstance(v, WedgeNode):
        return WedgeNode(sig, v.main, v.index_set,
                         lambda iota: _refit(v, sig, wrap, iota, v.premise(iota)))
    if not isinstance(v, _TwoPremiseNode):
        raise TypeError("not an explicit node: %r" % (v,))
    left = _refit(v, sig, wrap, 0, v.left)
    if v.right is v.left and v.wants(sig, 1) == v.wants(sig, 0):
        right = left
    else:
        right = _refit(v, sig, wrap, 1, v.right)
    if isinstance(v, CutNode):
        return CutNode(sig, v.cut_formula, left, right)
    return RefNode(sig, v.formula, v.point, v.guard, left, right)


def _refit(v: ExplicitNode, sig: Sig, wrap, iota, p: DerivTerm) -> DerivTerm:
    hull, seq = v.wants(sig, iota)
    return fit(wrap(p, hull), hull, sig.rank, seq)


# ---------------------------------------------------------------------------
# inversion


class Inv(DerivTerm):
    """From a derivation of Delta, not-C (not-C conjunctive), the
    derivation of Delta, not-C_iota at the same bound.  The wrap it
    hands ``_map_premises`` holds C and iota, never the term itself."""

    def __init__(self, sub: DerivTerm, C: Formula, iota):
        super().__init__()
        self.sub = sub
        self.C = C
        self.notC = negate(C)
        self.iota = iota
        old = sub.sig
        hull = hull_at(old.hull, iota)
        comp = negate(component(C, iota))
        self.sig = Sig(hull, old.bound, old.rank, (old.seq - {self.notC}) | {comp})

    def _expand(self):
        v = rule_of(self.sub)
        C, iota, sig = self.C, self.iota, self.sig
        if isinstance(v, WedgeNode) and v.main is self.notC:
            # select the iota-th premise and invert it in turn, since it
            # still carries the conjunction in its sequent
            inner = Inv(v.premise(iota), C, iota)
            return _map_premises(rule_of(inner), sig)
        return _map_premises(v, sig, lambda p, hull: Inv(p, C, iota))


# ---------------------------------------------------------------------------
# reduction of a disjunctive cut formula


class Red(DerivTerm):
    """From derivations of Delta, not-C and C, Gamma with C decomposing
    disjunctively and depth(C) <= rank, the derivation of Delta, Gamma
    at the added bound."""

    def __init__(self, C: Formula, d0: DerivTerm, d1: DerivTerm):
        super().__init__()
        m = d0.sig.rank
        if d1.sig.rank != m:
            raise ConstructionError("reduction inputs must share their cut rank")
        if d0.sig.hull is not d1.sig.hull:
            raise ConstructionError("reduction inputs must share their hull")
        if depth(C) > m:
            raise ConstructionError("reduced formula deeper than the cut rank")
        if is_delta0(C):
            if not determinable(C):
                raise ConstructionError(
                    "cannot certify a bounded formula with opaque or abstract parts as false"
                )
            if eval_formula_bounded(C):
                raise ConstructionError("reduced bounded formula must be false")
        elif C.polarity != DISJUNCTIVE:
            raise ConstructionError("reduced formula must decompose disjunctively")
        self.C = C
        self.d0 = d0
        self.d1 = d1
        delta = d0.sig.seq - {negate(C)}
        gamma = d1.sig.seq - {C}
        self.sig = Sig(
            d0.sig.hull,
            add(d0.sig.bound, d1.sig.bound),
            m,
            delta | gamma,
        )

    def _expand(self):
        C, d0, d1, sig = self.C, self.d0, self.d1, self.sig
        m = sig.rank
        if is_delta0(C):
            # C is false: d1's sequent holds without it
            return _map_premises(rule_of(Drop(d1, C)), sig)
        v = rule_of(d1)
        if isinstance(v, VeeNode) and v.main is C:
            iota = v.iota
            C_iota = component(C, iota)
            inv_iota = iota
            if isinstance(iota, (Concrete, Abstract)) and not hull_contains(
                sig.hull, iota
            ):
                # the index escapes the hull, so it cannot occur in the
                # component; re-read the inference at the empty set
                if component(C, EMPTY) is not C_iota:
                    raise ConstructionError("reduction index escapes the hull")
                inv_iota = EMPTY
            left = Inv(d0, C, inv_iota)
            left = fit(left, sig.hull, m, sig.seq | left.sig.seq)
            right = Red(C, d0, v.sub)
            right = fit(right, sig.hull, m, sig.seq | right.sig.seq)
            return CutNode(sig, C_iota, left, right)

        return _map_premises(v, sig, lambda p, hull: Red(
            C, fit(d0, hull, m, d0.sig.seq), fit(p, hull, p.sig.rank, p.sig.seq)))


# ---------------------------------------------------------------------------
# predicative cut-elimination


class E(DerivTerm):
    """``rounds`` rounds of cut elimination: each lowers the rank by one
    and sends the bound to its base-omega exponential.  E of an E is one
    term of both terms' rounds over the inner sub, so one expansion
    stands for the whole chain of one-round terms, and a premise lowered
    k rounds is the one term ``E(p, k)``."""

    def __init__(self, sub: DerivTerm, rounds: int = 1):
        super().__init__()
        old = sub.sig
        if old.rank < rounds:
            raise ConstructionError("cut elimination needs positive rank")
        self.sig = Sig(old.hull, omega_tower(rounds, old.bound), old.rank - rounds, old.seq)
        if isinstance(sub, E):
            sub, rounds = sub.sub, sub.rounds + rounds
        self.sub = sub
        self.rounds = rounds

    def _expand(self):
        """The node that the chain of one-round terms unfolds to.  Each
        pass reads one node v at rank r with k rounds to go: if no round
        takes v's own cut, v is copied with each premise p lowered by all
        k rounds, to ``E(p, k)``; if round j takes it, the cut is reduced
        over its premises lowered by j rounds, and the pass goes on from
        the reduction with the rounds that are left."""
        v, k = rule_of(self.sub), self.rounds
        hull, seq = self.sig.hull, self.sig.seq
        r, bound = self.sub.sig.rank, self.sub.sig.bound
        while True:
            j = r - depth(v.cut_formula) if isinstance(v, CutNode) else 0
            if not 1 <= j <= k:
                return _map_premises(v, self.sig, lambda p, hull: E(p, k))
            C = v.cut_formula
            left = E(v.left, j)
            right = left if v.right is v.left else E(v.right, j)
            red = Red(negate(C), right, left) if conjunctive(C) else Red(C, left, right)
            r, k, bound = r - j, k - j, omega_tower(j, bound)
            v = _map_premises(rule_of(red), Sig(hull, bound, r, seq))
            if k == 0:
                return v


def elim_cuts(d: DerivTerm) -> DerivTerm:
    """Apply one round of predicative cut-elimination."""
    return E(d)
