"""Local correctness checking with trace export, and desk-scale
soundness evaluation, for derivation terms.

The checker expands a term to a given depth (sampling indices for
conjunctions over the whole universe) and verifies, at every visited
node, the control condition (all parameters inside the hull; ordinal
bounds lie in every hull by closure), strict descent of ordinal bounds,
rank bookkeeping, and the side conditions of each inference; the same
walk writes one trace line per visited node.  The evaluator certifies
that a cut-free, reflection-free derivation really ends in a true
sequent, using a bounded-witness search entirely independent of the
derivation machinery; a separate brute-force oracle evaluates sequents
classically over a rank-bounded fragment of the hereditarily finite
sets for cross-checking.  Both run the one truth evaluator of
``formulas`` and differ only in what unbounded quantifiers range over;
the checker reads every decomposition from there too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .derivations import (
    ConstructionError,
    CutNode,
    DerivTerm,
    RefNode,
    TrueLeaf,
    VeeNode,
    WedgeNode,
    rule_of,
)
from .formulas import (
    All,
    CONJUNCTIVE,
    DISJUNCTIVE,
    Ex,
    Formula,
    JBounded,
    J_UNIVERSE,
    component,
    decompose,
    depth,
    determinable,
    eval_formula_bounded,
    evaluate,
    is_delta0,
    member_pi,
    negate,
    reflection_guard,
    render_formula,
    split,
    support,
)
from .ordinals import LESS, cmp, render
from .universe import (
    Abstract,
    Concrete,
    EvaluationError,
    enumerate_hf,
    hull_at,
    hull_contains,
    is_concrete,
    witness_pool,
)


# ---------------------------------------------------------------------------
# sampling strategy for conjunctions over the universe


def default_sampler(seed: int = 0, count: int = 2):
    """Deterministic index supplier for universe-indexed conjunctions:
    the hull's abstract generators plus a seed-chosen handful of
    hereditarily finite sets."""
    rng = random.Random(seed)
    pool = list(enumerate_hf(6))
    picks = [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]

    def sample(node):
        abstracts = sorted(
            (g for g in node.sig.hull.generators if isinstance(g, Abstract)),
            key=lambda a: a.name,
        )
        return abstracts + picks

    return sample


# ---------------------------------------------------------------------------
# local correctness


@dataclass
class Report:
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    lines: list = field(default_factory=list)  # the trace, one line per visited node

    @property
    def visited(self) -> int:
        return len(self.lines)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_local(d: DerivTerm, k: int, sampler=None, N: int = 2) -> Report:
    """Expand to depth k and verify every visited node locally.

    Each visited node also gets a trace line, in preorder: ``nid rule
    main bound rank gens parent``, where ``nid`` is the visit count,
    ``gens`` the number of hull generators and ``parent`` the parent's
    ``nid`` (0 at the root); a node whose expansion raises gets ``nid
    error <exception> - - rank gens parent``.  The lines are
    deterministic for a fixed sampler."""
    sampler = sampler or default_sampler()
    report = Report()
    lines = report.lines

    def bad(path, msg):
        report.violations.append((path, msg))

    def visit(term, fuel, path, parent):
        nid = len(lines) + 1
        sig = term.sig
        tail = "%d %d %d" % (sig.rank, len(sig.hull.generators), parent)
        try:
            v = rule_of(term)
        except (ConstructionError, EvaluationError) as ex:
            lines.append("%d error %s - - %s" % (nid, type(ex).__name__, tail))
            bad(path, "expansion error: %s" % ex)
            return
        main = (
            render_formula(v.main).replace(" ", "~") if v.main is not None else "-"
        )
        lines.append("%d %s %s %s %s" % (
            nid, v.rule_name, main, render(sig.bound).replace(" ", ""), tail))
        if v.sig != sig:
            bad(path, "signature drift in unfolding")
        for a in support(sig.seq):
            if not isinstance(a, (Concrete, Abstract)) or not hull_contains(sig.hull, a):
                bad(path, "control condition: parameter outside hull")
                break

        premises = []  # (label, expected seq, expected hull, term)

        if isinstance(v, TrueLeaf):
            if v.main not in sig.seq:
                bad(path, "main formula not in sequent")
            elif not is_delta0(v.main):
                bad(path, "leaf main formula not bounded")
            elif determinable(v.main):
                if not eval_formula_bounded(v.main):
                    bad(path, "leaf asserts a false sentence")
            else:
                report.notes.append((path, "leaf truth not machine-checkable"))
        elif isinstance(v, VeeNode):
            if v.main not in sig.seq:
                bad(path, "main formula not in sequent")
            else:
                A = v.main
                dec = split(A)
                if (dec is not None and dec.polarity == DISJUNCTIVE
                        and not dec.by_truth):
                    pass  # set-indexed reading, whatever the truth value
                elif not is_delta0(A):
                    bad(path, "disjunctive inference on a conjunctive formula")
                elif not determinable(A):
                    report.notes.append(
                        (path, "polarity not machine-checkable"))
                elif decompose(A).polarity == CONJUNCTIVE:
                    bad(path, "disjunctive inference on a conjunctive formula")
                else:
                    bad(path, "disjunctive inference on an empty index set")
                J = dec.index_set if dec is not None else None
                abstract = isinstance(J, JBounded) and isinstance(J.bound, Abstract)
                if abstract:
                    report.notes.append(
                        (path, "index set bounded by an abstract parameter"))
                if abstract or (J is not None and J.contains(v.iota)):
                    premises.append(
                        ("0", sig.seq | {component(A, v.iota)}, sig.hull, v.sub))
                else:
                    # no component A_iota, so no premise to expect
                    bad(path, "index outside the index set")
        elif isinstance(v, WedgeNode):
            if v.main not in sig.seq:
                bad(path, "main formula not in sequent")
            else:
                A = v.main
                dec = split(A)
                if (dec is None or dec.polarity != CONJUNCTIVE
                        or dec.index_set is None):
                    if is_delta0(A):
                        bad(path, "conjunctive inference on a bounded sentence")
                    else:
                        bad(path,
                            "conjunctive inference on a disjunctive formula")
                else:
                    if v.index_set != dec.index_set:
                        bad(path, "index set mismatch")
                    if dec.by_truth and determinable(A):
                        # a settled bounded conjunction decomposes by its
                        # truth value, not over its connective
                        bad(path, "conjunctive inference on a bounded sentence")
                    # a sample of the universe, none of a set bounded by
                    # an abstract parameter, all premises otherwise
                    J = v.index_set
                    if J == J_UNIVERSE:
                        report.notes.append((path, "universe index set sampled"))
                        visits = [("s%d" % n, b) for n, b in enumerate(sampler(v))]
                    elif isinstance(J, JBounded) and isinstance(J.bound, Abstract):
                        report.notes.append((path, "abstract index set skipped"))
                        visits = []
                    else:
                        prefix = "i" if isinstance(J, JBounded) else ""
                        visits = [("%s%d" % (prefix, n), b)
                                  for n, b in enumerate(J.members())]
                    for label, iota in visits:
                        comp = component(v.main, iota)
                        hull_i = hull_at(sig.hull, iota)
                        try:
                            p = v.premise(iota)
                        except (IndexError, ConstructionError, EvaluationError) as ex:
                            bad(path, "premise error at %s: %s" % (label, ex))
                            continue
                        premises.append((label, sig.seq | {comp}, hull_i, p))
        elif isinstance(v, CutNode):
            C = v.cut_formula
            if depth(C) >= sig.rank:
                bad(path, "cut rank violation")
            premises.append(("0", sig.seq | {negate(C)}, sig.hull, v.left))
            premises.append(("1", sig.seq | {C}, sig.hull, v.right))
        elif isinstance(v, RefNode):
            if not member_pi(v.formula, N + 1):
                bad(path, "reflection class violation")
            if not _guard_matches(v.guard, v.formula, v.point):
                bad(path, "reflection guard sentence malformed")
            premises.append(("0", sig.seq | {v.formula}, sig.hull, v.left))
            premises.append(("1", sig.seq | {v.guard}, sig.hull, v.right))
        else:
            bad(path, "unknown node kind")

        for label, want_seq, want_hull, p in premises:
            child = "%s.%s" % (path, label)
            psig = p.sig
            if cmp(psig.bound, sig.bound) != LESS:
                bad(child, "descent violation")
            if psig.rank != sig.rank:
                bad(child, "premise rank mismatch")
            if psig.seq != want_seq:
                bad(child, "premise sequent mismatch")
            if psig.hull != want_hull:
                bad(child, "premise hull mismatch")
            if fuel > 0:
                visit(p, fuel - 1, child, nid)

    visit(d, k, "0", 0)
    return report


def trace_lines(d: DerivTerm, k: int, sampler=None) -> list:
    """The trace of a depth-k local check: one line per node that
    ``check_local`` visits, deterministic for a fixed sampler."""
    return check_local(d, k, sampler).lines


def _guard_matches(guard: Formula, A: Formula, point) -> bool:
    if not isinstance(guard, All):
        return False
    return guard == reflection_guard(A, point, var=guard.var)


# ---------------------------------------------------------------------------
# desk-scale soundness of cut-free derivations


@dataclass
class EvalResult:
    status: str  # "verified-true" | "inconclusive" | "refuted"
    reason: str = ""


VERIFIED = "verified-true"
INCONCLUSIVE = "inconclusive"
REFUTED = "refuted"


def _witnesses(B: Formula):
    """The witnesses an unbounded existential B is searched over: small
    hereditarily finite sets and everything hereditarily inside B's
    parameters.  An unbounded universal is never certified here."""
    if not isinstance(B, Ex):
        return None
    return witness_pool(16, support(B))


def certify(A: Formula) -> bool:
    """Bounded-witness certification that a sentence is true: unbounded
    existentials search a pool of witnesses, unbounded universals are
    never certified."""
    return determinable(A) and evaluate(A, _witnesses)


def eval_cutfree(d: DerivTerm, k: int) -> EvalResult:
    """Certify a cut-free, reflection-free derivation's end sequent."""
    for a in support(d.sig.seq):
        if not is_concrete(a):
            raise EvaluationError("end sequent mentions an abstract parameter")
    if d.sig.rank != 0:
        raise EvaluationError("soundness evaluation needs a cut-free signature")
    return _ev(d, k)


def _ev(d: DerivTerm, k: int) -> EvalResult:
    if any(certify(A) for A in d.sig.seq):
        return EvalResult(VERIFIED)
    if k <= 0:
        return EvalResult(INCONCLUSIVE, "depth limit")
    v = rule_of(d)
    if isinstance(v, RefNode):
        return EvalResult(INCONCLUSIVE, "reflection")
    if isinstance(v, TrueLeaf):
        if v.undetermined:
            return EvalResult(INCONCLUSIVE, "opaque leaf")
        return EvalResult(REFUTED, "false leaf")  # a true leaf was certified above
    if isinstance(v, VeeNode):
        return _ev(v.sub, k - 1)
    if isinstance(v, WedgeNode):
        if v.index_set == J_UNIVERSE:
            return EvalResult(INCONCLUSIVE, "universe conjunction")
        results = [_ev(v.premise(i), k - 1) for i in v.indices()]
        if any(r.status == REFUTED for r in results):
            return EvalResult(REFUTED, "refuted premise")
        if all(r.status == VERIFIED for r in results):
            return EvalResult(VERIFIED)
        return next(r for r in results if r.status == INCONCLUSIVE)
    if isinstance(v, CutNode):
        return EvalResult(INCONCLUSIVE, "cut")
    return EvalResult(INCONCLUSIVE, "unknown node")


# ---------------------------------------------------------------------------
# brute-force truth oracle (independent of the derivation machinery)


def oracle_eval(A: Formula, max_rank: int = 4) -> bool:
    """Classical truth over a rank-bounded fragment: unbounded
    quantifiers range over all hereditarily finite sets up to max_rank
    plus everything hereditarily inside the sentence's parameters."""
    params = support(A)
    if not all(is_concrete(a) for a in params):
        raise EvaluationError("oracle needs concrete parameters")
    domain = witness_pool(2 ** max_rank, params)
    return evaluate(A, lambda B: domain)


def oracle_sequent(seq, max_rank: int = 4) -> bool:
    """A sequent is true when some member is."""
    return any(oracle_eval(A, max_rank) for A in seq)
