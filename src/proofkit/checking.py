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
    J_TWO,
    J_UNIVERSE,
    conjunctive,
    depth,
    determinable,
    eval_formula_bounded,
    evaluate,
    free_vars,
    index_set,
    is_delta0,
    member_pi,
    reflection_guard,
    render_formula,
    support,
)
from .ordinals import LESS, cmp, render
from .universe import (
    Abstract,
    Concrete,
    EvaluationError,
    enumerate_hf,
    hull_contains,
    is_concrete,
    witness_pool,
)


# ---------------------------------------------------------------------------
# sampling strategy for conjunctions over the universe


def default_sampler(seed: int = 0):
    """Deterministic index supplier for universe-indexed conjunctions:
    the hull's abstract generators plus two seed-chosen hereditarily
    finite sets."""
    rng = random.Random(seed)
    pool = list(enumerate_hf(6))
    picks = [pool[i] for i in sorted(rng.sample(range(len(pool)), 2))]

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

    # each term still to visit, with its fuel, path and parent nid, and
    # the parent's node, signature and premise index (None at the root);
    # a premise's edge is checked when it is popped, so after the
    # subtree of the premise before it, and visited if fuel is left
    stack = [(d, k, "0", 0, None)]
    while stack:
        term, fuel, path, parent, edge = stack.pop()
        sig = term.sig
        if edge is not None:
            u, usig, iota = edge
            want_hull, want_seq = u.wants(usig, iota)
            if cmp(sig.bound, usig.bound) != LESS:
                bad(path, "descent violation")
            if sig.rank != usig.rank:
                bad(path, "premise rank mismatch")
            if sig.seq != want_seq:
                bad(path, "premise sequent mismatch")
            if sig.hull != want_hull:
                bad(path, "premise hull mismatch")
            if fuel < 0:
                continue
        nid = len(lines) + 1
        tail = "%d %d %d" % (sig.rank, len(sig.hull.generators), parent)
        try:
            v = rule_of(term)
        except (ConstructionError, EvaluationError) as ex:
            lines.append("%d error %s - - %s" % (nid, type(ex).__name__, tail))
            bad(path, "expansion error: %s" % ex)
            continue
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

        visits = []  # (label, index) of each premise to check
        if isinstance(v, (TrueLeaf, VeeNode, WedgeNode)) and v.main not in sig.seq:
            bad(path, "main formula not in sequent")
        elif isinstance(v, TrueLeaf):
            if not is_delta0(v.main):
                bad(path, "leaf main formula not bounded")
            elif determinable(v.main):
                if not eval_formula_bounded(v.main):
                    bad(path, "leaf asserts a false sentence")
            else:
                report.notes.append((path, "leaf truth not machine-checkable"))
        elif isinstance(v, VeeNode):
            A = v.main
            J = index_set(A)
            # set-indexed, whatever the truth value, unless A is a
            # connective of a bounded sentence, which is read by it
            if A.polarity == DISJUNCTIVE and not (J is J_TWO and is_delta0(A)):
                pass
            elif not is_delta0(A):
                bad(path, "disjunctive inference on a conjunctive formula")
            elif not determinable(A):
                report.notes.append((path, "polarity not machine-checkable"))
            elif conjunctive(A):
                bad(path, "disjunctive inference on a conjunctive formula")
            else:
                bad(path, "disjunctive inference on an empty index set")
            abstract = isinstance(J, JBounded) and isinstance(J.bound, Abstract)
            if abstract:
                report.notes.append((path, "index set bounded by an abstract parameter"))
            if abstract or (J is not None and J.contains(v.iota)):
                visits = [("0", v.iota)]
            else:
                # no component A_iota, so no premise to expect
                bad(path, "index outside the index set")
        elif isinstance(v, WedgeNode):
            A = v.main
            J = index_set(A)
            if A.polarity != CONJUNCTIVE or J is None:
                if is_delta0(A):
                    bad(path, "conjunctive inference on a bounded sentence")
                else:
                    bad(path, "conjunctive inference on a disjunctive formula")
            else:
                if v.index_set is not J:
                    bad(path, "index set mismatch")
                if J is J_TWO and is_delta0(A) and determinable(A):
                    # a settled bounded conjunction decomposes by its
                    # truth value, not over its connective
                    bad(path, "conjunctive inference on a bounded sentence")
                # a sample of the universe, none of a set bounded by
                # an abstract parameter, all premises otherwise
                J = v.index_set
                if J is J_UNIVERSE:
                    report.notes.append((path, "universe index set sampled"))
                    visits = [("s%d" % n, b) for n, b in enumerate(sampler(v))]
                elif isinstance(J, JBounded) and isinstance(J.bound, Abstract):
                    report.notes.append((path, "abstract index set skipped"))
                else:
                    prefix = "i" if isinstance(J, JBounded) else ""
                    visits = [("%s%d" % (prefix, n), b)
                              for n, b in enumerate(J.members())]
        elif isinstance(v, CutNode):
            if depth(v.cut_formula) >= sig.rank:
                bad(path, "cut rank violation")
            visits = [("0", 0), ("1", 1)]
        elif isinstance(v, RefNode):
            if not member_pi(v.formula, N + 1):
                bad(path, "reflection class violation")
            guard = v.guard
            if not (isinstance(guard, All)
                    and guard is reflection_guard(v.formula, v.point, var=guard.var)):
                bad(path, "reflection guard sentence malformed")
            visits = [("0", 0), ("1", 1)]
        else:
            bad(path, "unknown node kind")

        premises = []  # (path, index, term), each read before any is checked
        for label, iota in visits:
            try:
                premises.append(("%s.%s" % (path, label), iota, v.premise(iota)))
            except (IndexError, ConstructionError, EvaluationError) as ex:
                bad(path, "premise error at %s: %s" % (label, ex))
        stack.extend((p, fuel - 1, child, nid, (v, sig, iota))
                     for child, iota, p in reversed(premises))
    return report


def trace_lines(d: DerivTerm, k: int, sampler=None) -> list:
    """The trace of a depth-k local check: one line per node that
    ``check_local`` visits, deterministic for a fixed sampler."""
    return check_local(d, k, sampler).lines


# ---------------------------------------------------------------------------
# desk-scale soundness of cut-free derivations


@dataclass
class EvalResult:
    status: str  # "verified-true" | "inconclusive" | "refuted"
    reason: str = ""


VERIFIED = "verified-true"
INCONCLUSIVE = "inconclusive"
REFUTED = "refuted"


def _witness_domain():
    """A new domain callback for the certifier.  An unbounded existential
    B under ``env`` is searched over small hereditarily finite sets and
    everything hereditarily inside the parameters of its instance: B's
    own and the values ``env`` gives B's free variables.  An unbounded
    universal is never certified here.  The callback builds each pool
    once and keeps it, under its parameters, for its own lifetime."""
    pools = {}

    def witnesses(B: Formula, env: dict):
        if not isinstance(B, Ex):
            return None
        params = support(B) | {env[v] for v in free_vars(B) if v in env}
        pool = pools.get(params)
        if pool is None:
            pool = pools[params] = witness_pool(16, params)
        return pool

    return witnesses


def certify(A: Formula, witnesses) -> bool:
    """Bounded-witness certification that a sentence is true: unbounded
    existentials search the pools of ``witnesses``, a domain from
    ``_witness_domain``; unbounded universals are never certified."""
    return determinable(A) and evaluate(A, witnesses, {})


def eval_cutfree(d: DerivTerm, k: int) -> EvalResult:
    """Certify a cut-free, reflection-free derivation's end sequent to
    depth k.  It is refuted when a false leaf is reached ("false leaf"
    when no conjunctive inference lies above it, "refuted premise"
    otherwise); else inconclusive, with the reason of the first branch
    end in preorder that is neither certified nor false; else verified.
    The walk keeps its own stack, and the witness pools live for this
    one call."""
    for a in support(d.sig.seq):
        if not is_concrete(a):
            raise EvaluationError("end sequent mentions an abstract parameter")
    if d.sig.rank != 0:
        raise EvaluationError("soundness evaluation needs a cut-free signature")
    witnesses = _witness_domain()
    refuted = undecided = None
    wedged = False  # whether a conjunctive inference lies above t
    stack = []  # (wedge, index, fuel) of each premise still to evaluate
    t, fuel = d, k
    while True:
        reason = None  # why the branch ends undecided at t, if it does
        if any(certify(A, witnesses) for A in t.sig.seq):
            pass
        elif fuel <= 0:
            reason = "depth limit"
        else:
            v = rule_of(t)
            if isinstance(v, VeeNode):
                t, fuel = v.sub, fuel - 1
                continue
            if isinstance(v, WedgeNode) and v.index_set is not J_UNIVERSE:
                stack.extend((v, i, fuel - 1) for i in reversed(v.indices()))
                wedged = True
            elif isinstance(v, TrueLeaf) and determinable(v.main):
                # a true leaf was certified above
                refuted = refuted or EvalResult(
                    REFUTED, "refuted premise" if wedged else "false leaf")
            elif isinstance(v, TrueLeaf):
                reason = "opaque leaf"
            elif isinstance(v, RefNode):
                reason = "reflection"
            elif isinstance(v, WedgeNode):
                reason = "universe conjunction"
            elif isinstance(v, CutNode):
                reason = "cut"
            else:
                reason = "unknown node"
        if reason is not None and undecided is None:
            undecided = EvalResult(INCONCLUSIVE, reason)
        if not stack:
            return refuted or undecided or EvalResult(VERIFIED)
        v, i, fuel = stack.pop()
        t = v.premise(i)


# ---------------------------------------------------------------------------
# brute-force truth oracle (independent of the derivation machinery)


def oracle_eval(A: Formula) -> bool:
    """Classical truth over a finite fragment: unbounded quantifiers
    range over the 16 sets of rank at most 3 plus each of the
    sentence's parameters and everything hereditarily inside it."""
    params = support(A)
    if not all(is_concrete(a) for a in params):
        raise EvaluationError("oracle needs concrete parameters")
    domain = witness_pool(16, params)
    return evaluate(A, lambda B, env: domain, {})


def oracle_sequent(seq) -> bool:
    """A sequent is true when some member is."""
    return any(oracle_eval(A) for A in seq)
