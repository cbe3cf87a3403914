"""Finitary notations for infinitary operator-controlled derivations.

A derivation term denotes an infinite proof tree whose every node
carries a signature ``sig = (hull, bound, rank, sequent)``: the sequent
is derivable with cut rank below ``rank``, with ordinal bound ``bound``,
and with all set parameters and the bound itself inside the ``hull``.

Terms come in two layers.  Explicit nodes (TrueLeaf, VeeNode,
WedgeNode, CutNode, RefNode) mirror the five infinitary inferences and
carry their premises directly -- conjunctive premises lazily, as a
function of the index.  Defined notations (Taut, Fund, AxEmb, Emb,
Weak, Red, Inv, Drop, E) denote derivations built by the standard
proof-theoretic constructions: tautology and foundation derivations of
finite height, the embedding of finitary proofs, weakening, reduction
of a disjunctive cut formula, inversion, removal of a false bounded
formula, and one round of predicative cut-elimination.  ``unfold``
rewrites one defined layer into an explicit node with the same
signature; iterating it expands any finite fragment of the denoted
tree.

Explicit nodes are deliberately unvalidated -- the local checker exists
to catch bad ones -- while the defined notations validate their
preconditions at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import finitary as fin
from .formulas import (
    BEx,
    CONJUNCTIVE,
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
    decompose,
    depth,
    determinable,
    eval_formula_bounded,
    free_vars,
    is_delta0,
    negate,
    split,
    subst,
    support,
)
from .ordinals import (
    EQUAL,
    OMEGA,
    OrdCode,
    ZERO as ORD_ZERO,
    add,
    cmp,
    from_nat,
    leq,
    nat_sum,
    omega_exp,
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


@dataclass(frozen=True)
class Sig:
    hull: Hull
    bound: OrdCode
    rank: int
    seq: Sequent


def _fin(n: int) -> OrdCode:
    return from_nat(n)


def _bump(alpha: OrdCode, n: int) -> OrdCode:
    return add(alpha, _fin(n))


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


class TrueLeaf(ExplicitNode):
    """Conjunctive inference over the empty index set: its main formula
    is a true bounded sentence.  ``undetermined`` marks leaves whose
    main contains opaque atoms or abstract parameters, where truth is
    asserted by the construction but not machine-checkable."""

    rule_name = "true-leaf"

    def __init__(self, sig: Sig, main: Formula, undetermined: bool = False):
        super().__init__()
        self.sig = sig
        self.main = main
        self.undetermined = undetermined


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
        if iota not in self._cache:
            self.index_set.require(iota)
            self._cache[iota] = self._premise_fn(iota)
        return self._cache[iota]


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


# ---------------------------------------------------------------------------
# tautologies: gamma, not-A, A in 2 dp(A) steps


class Taut(DerivTerm):
    def __init__(self, A: Formula, gamma: Sequent, hull: Hull):
        super().__init__()
        if free_vars(A):
            raise ConstructionError("tautology derivations need sentences")
        self.A = A
        seq = gamma | {negate(A), A}
        self.sig = Sig(hull, _fin(2 * depth(A)), 0, seq)

    def _expand(self):
        A, P, seq = self.A, self.sig.hull, self.sig.seq
        d = depth(A)
        if d == 0 and not determinable(A):
            return TrueLeaf(self.sig, A, undetermined=True)
        dec = decompose(A)
        # of A and not-A, the side that decomposes conjunctively; for a
        # bounded sentence, the true one
        C = A if dec.polarity == CONJUNCTIVE else negate(A)
        if d == 0:
            return TrueLeaf(self.sig, C)

        def prem(iota):
            C_iota = component(C, iota)
            hull_i = hull_at(P, iota)
            inner = Taut(C_iota, seq, hull_i)
            vee_sig = Sig(hull_i, _fin(2 * d - 1), 0, seq | {C_iota})
            return VeeNode(vee_sig, negate(C), iota, inner)

        return WedgeNode(self.sig, C, dec.index_set, prem)


# ---------------------------------------------------------------------------
# foundation: gamma, progress-failure, forall x in a A(x)


def _fund_bound(d: int, a: DeskSet) -> OrdCode:
    return add(_fin(2 * d), times_nat(rank(a), 3))


class Fund(DerivTerm):
    """Derivation of {B, forall x in a A(x)} in 2 dp(A) + 3 rank(a)
    steps, by recursion on rank(a), for the disjuncts of a foundation
    instance: the progress failure B = exists x (forall y in x A(y) and
    not A(x)) and the universal U = forall x A(x)."""

    def __init__(self, a: DeskSet, B: Formula, U: Formula, gamma: Sequent, hull: Hull):
        super().__init__()
        if free_vars(B) or free_vars(U):
            raise ConstructionError("foundation formula may only have the induction variable free")
        self.a = a
        self.B = B
        self.U = U
        self.all_in_a = component(B, a).left
        self.d = depth(U.body)
        seq = gamma | {B, self.all_in_a}
        self.sig = Sig(hull, _fund_bound(self.d, a), 0, seq)

    def _expand(self):
        P, seq = self.sig.hull, self.sig.seq

        def prem(b):
            return _fund_progress(b, self.B, self.U, seq, hull_extend(P, b), self.d)

        return WedgeNode(self.sig, self.all_in_a, JBounded(self.a), prem)


def _fund_progress(
    b: DeskSet, B: Formula, U: Formula, gamma: Sequent, hull: Hull, d: int
) -> DerivTerm:
    """Derivation of gamma, B, A(b) in 2d + 3 rank(b) + 2 steps, for the
    progress failure B and the universal U = forall x A(x): conjunction
    of the induction hypothesis below b with a tautology, then the
    disjunctive step into the failure witness b."""
    A_b = component(U, b)
    base = gamma | {B, A_b}
    r3 = times_nat(rank(b), 3)
    vee_sig = Sig(hull, _bump(add(_fin(2 * d), r3), 2), 0, base)

    if d == 0 and determinable(A_b):
        # a settled bounded induction formula: either A(b) itself is true,
        # or some membership-minimal failure at or below b witnesses the
        # progress-failure sentence outright
        if eval_formula_bounded(A_b):
            return TrueLeaf(vee_sig, A_b)
        c = _minimal_failure(b, U)
        C_c = component(B, c)
        leaf = _true_leaf(C_c, base | {C_c}, hull, _fin(0))
        return VeeNode(vee_sig, B, c, leaf)

    C_b = component(B, b)
    wedge_seq = base | {C_b}
    wedge_sig = Sig(hull, _bump(add(_fin(2 * d), r3), 1), 0, wedge_seq)

    def prem(i):
        if i == 0:
            return Fund(b, B, U, wedge_seq, hull)
        return Taut(A_b, wedge_seq, hull)

    wedge = WedgeNode(wedge_sig, C_b, J_TWO, prem)
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
        if not hull_subsumes(sig.hull, old.hull):
            raise ConstructionError("weakening must not shrink the hull")
        if sig.rank < old.rank:
            raise ConstructionError("weakening must not lower the cut rank")
        if not leq(old.bound, sig.bound):
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


def fit(
    d: DerivTerm, hull: Hull, rank_: int, seq: Sequent, bound: OrdCode | None = None
) -> DerivTerm:
    """d at the given hull, cut rank and sequent, and at ``bound`` if
    given, else at its own bound: d itself when that changes nothing,
    its weakening otherwise.  The new signature is checked against d's;
    when d is itself a weakening, the result weakens d's sub, so a
    chain of weakenings is one term."""
    old = d.sig
    # tuples compare their items by identity first, so an unchanged
    # sequent object is not compared member by member
    if (hull, rank_, seq) == (old.hull, old.rank, old.seq) and (
        bound is None or bound == old.bound
    ):
        return d
    return Weak(d, Sig(hull, old.bound if bound is None else bound, rank_, seq))


# ---------------------------------------------------------------------------
# axiom embeddings


class AxEmb(DerivTerm):
    """Cut-free derivation of a closed theory-axiom instance."""

    def __init__(self, node: fin.ProofNode, assignment: dict, hull: Hull, N: int):
        super().__init__()
        if node.rule not in fin.AXIOM_RULES:
            raise ConstructionError("axiom embedding needs an axiom node")
        self.node = node
        self.assignment = dict(assignment)
        inst = fin.axiom_instance(node, N)
        self.inst = close(inst, assignment)
        seq = frozenset(close(A, assignment) for A in node.conclusion)
        self.sig = Sig(hull, _axemb_bound(node, self.inst), 0, seq)

    def _expand(self):
        return _axemb_expand(self)


def _axemb_bound(node: fin.ProofNode, inst: Formula) -> OrdCode:
    kind = node.rule.split(":")[1]
    if kind == "extensionality":
        return ORD_ZERO
    if kind in ("union", "separation"):
        return _fin(1)
    if kind == "pair":
        return _fin(2)
    if kind in ("collection", "infinity"):
        return _fin(3)
    if kind == "foundation":
        return add(OMEGA, _fin(2))
    if kind == "reflection":
        d = depth(inst.left)  # inst.left is the negated reflected formula
        return _fin(max(2 * d, 2) + 3)
    raise ConstructionError("unknown axiom %r" % kind)


def axemb_rank(node: fin.ProofNode) -> int:
    """Cut rank assigned to an axiom by the embedding."""
    return 2 if node.rule == "axiom:foundation" else 1


def _true_leaf(M: Formula, seq: Sequent, hull: Hull, bound: OrdCode) -> TrueLeaf:
    sig = Sig(hull, bound, 0, seq)
    if determinable(M):
        if not eval_formula_bounded(M):
            raise ConstructionError("axiom embedding produced a false leaf")
        return TrueLeaf(sig, M)
    return TrueLeaf(sig, M, undetermined=True)


def _witnessed(sig: Sig, A: Formula, w: DeskSet, bound: OrdCode) -> VeeNode:
    """The disjunctive inference into the existential A at its witness
    w, over a true leaf on the instance at ``bound``."""
    matrix = component(A, w)
    leaf = _true_leaf(matrix, sig.seq | {matrix}, sig.hull, bound)
    return VeeNode(sig, A, w, leaf)


def _axemb_expand(ax: AxEmb) -> ExplicitNode:
    node, inst, sig = ax.node, ax.inst, ax.sig
    P, seq = sig.hull, sig.seq
    kind = node.rule.split(":")[1]

    if kind == "extensionality":
        return _true_leaf(inst, seq, P, sig.bound)

    if kind == "pair":
        # inst = exists z (a in z and b in z); witness {a, b}
        body = inst.body
        a_val = body.left.left.value
        b_val = body.right.left.value
        return _witnessed(sig, inst, Concrete(frozenset({a_val, b_val})), _fin(1))

    if kind == "union":
        a_val = _closed_value(node.term, ax.assignment)
        members = set()
        for b in set_members(a_val):
            members |= set_members(b)
        return _witnessed(sig, inst, Concrete(frozenset(members)), _fin(0))

    if kind == "separation":
        a_val = _closed_value(node.term, ax.assignment)
        x = node.var
        phi = close(node.formula, ax.assignment, {x})
        chosen = frozenset(
            b for b in set_members(a_val)
            if eval_formula_bounded(subst(phi, x, Name(b)))
        )
        return _witnessed(sig, inst, Concrete(chosen), _fin(0))

    if kind == "collection":
        a_val = _closed_value(node.term, ax.assignment)
        x, y = node.var, node.var2
        phi = close(node.formula, ax.assignment, {x, y})
        pool = witness_pool(8, [a_val])
        found = []
        for u in set_members(a_val):
            hit = None
            for v in pool:
                if eval_formula_bounded(subst(subst(phi, x, Name(u)), y, Name(v))):
                    hit = v
                    break
            if hit is None:
                raise EvaluationError(
                    "no collection witness found in the search space"
                )
            found.append(hit)
        right = inst.right  # exists z forall x in a exists y in z phi
        vee2 = _witnessed(Sig(P, _fin(1), 0, seq | {right}), right,
                          Concrete(frozenset(found)), _fin(0))
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
                return _true_leaf(part, wedge_seq | {part}, hull_i, _fin(0))

            wedge = WedgeNode(Sig(hull_i, _fin(1), 0, wedge_seq), matrix, J_TWO, inner)
            return VeeNode(Sig(hull_i, _fin(2), 0, prem_seq), comp, OMEGA_WITNESS, wedge)

        return WedgeNode(sig, inst, J_UNIVERSE, prem)

    if kind == "foundation":
        B, U = inst.left, inst.right  # the progress failure, forall x phi
        d = depth(U.body)
        wedge_seq = seq | {B, U}
        wedge_sig = Sig(P, OMEGA, 0, wedge_seq)

        def prem(a):
            return _fund_progress(a, B, U, wedge_seq, hull_extend(P, a), d)

        wedge = WedgeNode(wedge_sig, U, J_UNIVERSE, prem)
        vee2 = VeeNode(Sig(P, add(OMEGA, _fin(1)), 0, seq | {B}), inst, 1, wedge)
        return VeeNode(sig, inst, 0, vee2)

    if kind == "reflection":
        A = inst.left  # negated reflected formula
        refl = negate(A)
        ex_part = inst.right
        point = Name(_closed_value(node.term, ax.assignment))
        guard = negate(ex_part)
        d = depth(refl)
        ref_seq = seq | {A, ex_part}
        ref_sig = Sig(P, _fin(max(2 * d, 2) + 1), 0, ref_seq)
        left = Taut(refl, ref_seq, P)
        right = Taut(ex_part, ref_seq | {guard}, P)
        ref = RefNode(ref_sig, refl, point, guard, left, right)
        vee2 = VeeNode(Sig(P, _fin(max(2 * d, 2) + 2), 0, seq | {A}), inst, 1, ref)
        return VeeNode(sig, inst, 0, vee2)

    raise ConstructionError("unknown axiom %r" % kind)


def _closed_value(t: Term, assignment: dict) -> DeskSet:
    if isinstance(t, Var):
        return assignment.get(t.name, EMPTY)
    return t.value


# ---------------------------------------------------------------------------
# embedding of finitary proofs


def emb_rank(pi: fin.ProofNode) -> int:
    """Cut rank of the embedded derivation, by the standard recursion."""
    ranks: dict = {}
    for node in fin.post_order(pi):
        if node.rule == "logax":
            r = 2 * depth(close(node.main, {}))
        elif node.rule in fin.AXIOM_RULES:
            r = axemb_rank(node)
        else:
            r = max(ranks[id(p)] for p in node.premises) + 1
            if node.rule == "cut":
                r = max(r, depth(close(node.formula, {})) + 1)
        ranks[id(node)] = r
    return ranks[id(pi)]


def emb_bound(m: int, values) -> OrdCode:
    """The bound Omega * m, naturally summed with 3 * rank(a) per parameter."""
    acc = ORD_ZERO
    for a in values:
        acc = nat_sum(acc, times_nat(rank(a), 3))
    out = times_nat(OMEGA, m)
    if cmp(acc, ORD_ZERO) == EQUAL:
        return out
    return add(out, acc)


class Emb(DerivTerm):
    """Embedding of a checked finitary proof under a variable assignment."""

    def __init__(self, pi: fin.ProofNode, assignment: dict, hull: Hull, N: int = 2):
        super().__init__()
        self.pi = pi
        self.assignment = dict(assignment)
        self.N = N
        self.m = emb_rank(pi)
        values = [assignment[v] for v in sorted(assignment)]
        full_hull = hull_extend_list(hull, values)
        self.base_hull = hull
        seq = frozenset(close(A, assignment) for A in pi.conclusion)
        self.sig = Sig(full_hull, emb_bound(self.m, values), self.m, seq)

    def _sub(self, pi: fin.ProofNode, extra: dict | None = None) -> "Emb":
        assignment = dict(self.assignment)
        if extra:
            assignment.update(extra)
        return Emb(pi, assignment, self.base_hull, self.N)

    def _expand(self):
        return _emb_expand(self)


def _emb_expand(e: Emb) -> ExplicitNode:
    pi, sig, N = e.pi, e.sig, e.N
    P, m, seq = sig.hull, sig.rank, sig.seq

    if pi.rule == "logax":
        t = Taut(close(pi.main, e.assignment), seq, P)
        return _map_premises(rule_of(t), sig)

    if pi.rule in fin.AXIOM_RULES:
        ax = AxEmb(pi, e.assignment, P, N)
        return _map_premises(rule_of(ax), sig)

    if pi.rule == "cut":
        C = close(pi.formula, e.assignment)
        left = fit(e._sub(pi.premises[0]), P, m, seq | {negate(C)})
        right = fit(e._sub(pi.premises[1]), P, m, seq | {C})
        return CutNode(sig, C, left, right)

    main = close(pi.main, e.assignment)

    if pi.rule == "or":
        a0, a1 = main.left, main.right
        if is_delta0(main):
            # a bounded disjunction decomposes by its truth value, so the
            # disjunctive inference is not available; settle it directly
            if not determinable(main):
                raise ConstructionError(
                    "cannot orient a bounded disjunction with opaque parts")
            if eval_formula_bounded(main):
                return TrueLeaf(sig, main)
            sub = e._sub(pi.premises[0])
            base = fit(sub, P, m, seq | {a0, a1})
            il = _true_leaf(negate(a0), seq | {a1, negate(a0)}, P, _fin(0))
            inner = CutNode(
                Sig(P, _bump(sub.sig.bound, 1), m, seq | {a1}), a0, il, base)
            ol = _true_leaf(negate(a1), seq | {negate(a1)}, P, _fin(0))
            return CutNode(sig, a1, ol, inner)
        sub = e._sub(pi.premises[0])
        inner = fit(sub, P, m, seq | {a0, a1})
        vee1 = VeeNode(Sig(P, _bump(sub.sig.bound, 1), m, seq | {a0}), main, 1, inner)
        return VeeNode(sig, main, 0, vee1)

    if pi.rule == "and":
        if is_delta0(main):
            if not determinable(main):
                raise ConstructionError(
                    "cannot orient a bounded conjunction with opaque parts")
            if eval_formula_bounded(main):
                return TrueLeaf(sig, main)
            parts = [main.left, main.right]
            i = next(k for k, c in enumerate(parts)
                     if not eval_formula_bounded(c))
            comp = parts[i]
            right = fit(e._sub(pi.premises[i]), P, m, seq | {comp})
            left = _true_leaf(negate(comp), seq | {negate(comp)}, P, _fin(0))
            return CutNode(sig, comp, left, right)
        subs = [e._sub(p) for p in pi.premises]

        def prem(i):
            return fit(subs[i], P, m, seq | {component(main, i)})

        return WedgeNode(sig, main, J_TWO, prem)

    if pi.rule == "ex":
        iota = _closed_value(pi.term, e.assignment)
        comp = component(main, iota)
        inner = fit(e._sub(pi.premises[0]), P, m, seq | {comp})
        return VeeNode(sig, main, iota, inner)

    if pi.rule == "all":
        v = pi.var

        def prem(b):
            hull_b = hull_extend(P, b)
            comp = component(main, b)
            return fit(e._sub(pi.premises[0], {v: b}), hull_b, m, seq | {comp})

        return WedgeNode(sig, main, J_UNIVERSE, prem)

    if pi.rule == "bex":
        iota = _closed_value(pi.term, e.assignment)
        membership = Mem(Name(iota), main.bound)
        if eval_formula_bounded(membership):
            comp = component(main, iota)
            inner = fit(e._sub(pi.premises[1]), P, m, seq | {comp})
            return VeeNode(sig, main, iota, inner)
        # witness misses the bounding set: the membership premise is
        # effectively a proof of the conclusion, cut against its negation
        right = fit(e._sub(pi.premises[0]), P, m, seq | {membership})
        not_mem = negate(membership)
        left = _true_leaf(not_mem, seq | {not_mem}, P, _fin(1))
        return CutNode(sig, membership, left, right)

    if pi.rule == "ball":
        v = pi.var
        bound_val = main.bound.value

        def prem(b):
            hull_b = hull_extend(P, b)
            comp = component(main, b)
            target = seq | {comp}
            sub = e._sub(pi.premises[0], {v: b})
            notmem = NotMem(Name(b), main.bound)
            right = fit(sub, hull_b, m, target | {notmem})
            mem = negate(notmem)
            left = _true_leaf(mem, target | {mem}, hull_b, _fin(1))
            cut_sig = Sig(hull_b, _bump(sub.sig.bound, 1), m, target)
            return CutNode(cut_sig, notmem, left, right)

        return WedgeNode(sig, main, JBounded(bound_val), prem)

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
        if getattr(v, "main", None) == C:
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
    ``wrap(p, hull)`` fitted at its own bound to its hull -- the node's,
    widened by a set index -- the node's cut rank, and the node's
    sequent plus the premise's own formula."""
    P, m, seq = sig.hull, sig.rank, sig.seq
    if isinstance(v, TrueLeaf):
        return TrueLeaf(sig, v.main, v.undetermined)
    if isinstance(v, VeeNode):
        sub = fit(wrap(v.sub, P), P, m, seq | {component(v.main, v.iota)})
        return VeeNode(sig, v.main, v.iota, sub)
    if isinstance(v, WedgeNode):
        def prem(iota):
            hull = hull_at(P, iota)
            p = wrap(v.premise(iota), hull)
            return fit(p, hull, m, seq | {component(v.main, iota)})

        return WedgeNode(sig, v.main, v.index_set, prem)
    if isinstance(v, CutNode):
        C = v.cut_formula
        left = fit(wrap(v.left, P), P, m, seq | {negate(C)})
        right = fit(wrap(v.right, P), P, m, seq | {C})
        return CutNode(sig, C, left, right)
    if isinstance(v, RefNode):
        left = fit(wrap(v.left, P), P, m, seq | {v.formula})
        right = fit(wrap(v.right, P), P, m, seq | {v.guard})
        return RefNode(sig, v.formula, v.point, v.guard, left, right)
    raise TypeError("not an explicit node: %r" % (v,))


# ---------------------------------------------------------------------------
# inversion


class Inv(DerivTerm):
    """From a derivation of Delta, not-C (not-C conjunctive), the
    derivation of Delta, not-C_iota at the same bound."""

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
        sig = self.sig
        if isinstance(v, WedgeNode) and v.main == self.notC:
            # select the iota-th premise and invert it in turn, since it
            # still carries the conjunction in its sequent
            inner = Inv(v.premise(self.iota), self.C, self.iota)
            return _map_premises(rule_of(inner), sig)
        return _map_premises(v, sig, lambda p, hull: Inv(p, self.C, self.iota))


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
        if d0.sig.hull != d1.sig.hull:
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
        elif split(C).polarity != DISJUNCTIVE:
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
        if isinstance(v, VeeNode) and v.main == C:
            iota = v.iota
            C_iota = component(C, iota)
            inv_iota = iota
            if isinstance(iota, (Concrete, Abstract)) and not hull_contains(
                sig.hull, iota
            ):
                # the index escapes the hull, so it cannot occur in the
                # component; re-read the inference at the empty set
                if component(C, EMPTY) != C_iota:
                    raise ConstructionError("reduction index escapes the hull")
                inv_iota = EMPTY
            left = fit(Inv(d0, C, inv_iota), sig.hull, m, sig.seq | {negate(C_iota)})
            right = fit(Red(C, d0, v.sub), sig.hull, m, sig.seq | {C_iota})
            return CutNode(sig, C_iota, left, right)

        return _map_premises(v, sig, lambda p, hull: Red(
            C, fit(d0, hull, m, d0.sig.seq), fit(p, hull, p.sig.rank, p.sig.seq)))


# ---------------------------------------------------------------------------
# predicative cut-elimination


class E(DerivTerm):
    """One round of cut elimination: rank m+1 down to m, bound to its
    base-omega exponential."""

    def __init__(self, sub: DerivTerm):
        super().__init__()
        if sub.sig.rank < 1:
            raise ConstructionError("cut elimination needs positive rank")
        self.sub = sub
        old = sub.sig
        self.sig = Sig(old.hull, omega_exp(old.bound), old.rank - 1, old.seq)

    def _expand(self):
        v = rule_of(self.sub)
        sig = self.sig
        m = sig.rank
        if isinstance(v, CutNode) and depth(v.cut_formula) == m:
            C = v.cut_formula
            left = E(v.left)
            right = E(v.right)
            if decompose(C).polarity == DISJUNCTIVE:
                red = Red(C, left, right)
            else:
                red = Red(negate(C), right, left)
            return _map_premises(rule_of(red), sig)
        return _map_premises(v, sig, lambda p, hull: E(p))


def elim_cuts(d: DerivTerm) -> DerivTerm:
    """Apply one round of predicative cut-elimination; a warning and
    no-op at rank 0."""
    if d.sig.rank == 0:
        import warnings

        warnings.warn("cut elimination on a rank-0 derivation is a no-op")
        return d
    return E(d)
