"""Local correctness checking, soundness evaluation, and traces."""

import sys

import pytest

from proofkit import checking
from proofkit.corpus import ONE, TWO, build_corpus
from proofkit.derivations import (
    ConstructionError,
    CutNode,
    DerivTerm,
    Drop,
    Emb,
    ExplicitNode,
    RefNode,
    Sig,
    TrueLeaf,
    VeeNode,
    WedgeNode,
    elim_cuts,
    rule_of,
)
from proofkit.checking import (
    check_local,
    default_sampler,
    eval_cutfree,
    oracle_eval,
    oracle_sequent,
    trace_lines,
)
from proofkit.formulas import (
    Ad,
    All,
    And,
    BAll,
    BEx,
    Ex,
    J_TWO,
    J_UNIVERSE,
    JBounded,
    Mem,
    Name,
    NotMem,
    Or,
    Var,
    ZERO_TERM,
    close,
    component,
    determinable,
    equals,
    negate,
    reflection_guard,
    support,
)
from proofkit.ordinals import OMEGA, from_nat
from proofkit.universe import (
    Abstract,
    Concrete,
    EMPTY,
    EMPTY_HULL,
    EvaluationError,
    Hull,
    enumerate_hf,
    is_concrete,
    rank_int,
    transitive_closure,
    witness_pool,
)
from test_formulas import ref_evaluate

M00 = Mem(ZERO_TERM, ZERO_TERM)  # false
M01 = Mem(ZERO_TERM, Name(ONE))  # true


def von_neumann(n):
    out = EMPTY
    for _ in range(n):
        out = Concrete(out.members | {out})
    return out


def corpus_outputs():
    """Each corpus entry's cut-free result, by name."""
    out = {}
    for e in build_corpus():
        d = Emb(e.script.root, e.script.assignment, EMPTY_HULL)
        for _ in range(d.sig.rank):
            d = elim_cuts(d)
        out[e.name] = d
    return out


def ref_certify(A):
    """certify by substitution, each existential instance searched over
    its own pool of 16 sets and its parameters' closure."""
    def domain(B):
        return witness_pool(16, support(B)) if isinstance(B, Ex) else None

    return determinable(A) and ref_evaluate(A, domain)


def sig(members, bound=1, rank=0, hull=EMPTY_HULL):
    return Sig(hull, from_nat(bound), rank, frozenset(members))


def violations(d, k=2):
    return [msg for _, msg in check_local(d, k).violations]


class TestCheckLocalPasses:
    def test_corpus_embeddings(self):
        for e in build_corpus():
            d = Emb(e.script.root, e.script.assignment, EMPTY_HULL)
            report = check_local(d, 3)
            assert report.passed, (e.name, report.violations)
            assert report.visited >= 1

    def test_true_leaf(self):
        assert violations(TrueLeaf(sig([M01]), M01)) == []


class TestMutations:
    def test_false_leaf(self):
        d = TrueLeaf(sig([M00]), M00)
        assert "leaf asserts a false sentence" in violations(d)

    def test_unbounded_leaf(self):
        A = Ex("x", Mem(Var("x"), Name(ONE)))
        d = TrueLeaf(sig([A]), A)
        assert "leaf main formula not bounded" in violations(d)

    def test_main_not_in_sequent(self):
        A = Ex("x", Mem(ZERO_TERM, Var("x")))
        d = VeeNode(sig([M01]), A, ONE, TrueLeaf(sig([M01, M00], bound=0), M00))
        assert "main formula not in sequent" in violations(d)

    def test_descent_violation(self):
        A = Ex("x", Mem(ZERO_TERM, Var("x")))
        comp = Mem(ZERO_TERM, Name(ONE))
        d = VeeNode(
            sig([A], bound=1),
            A,
            ONE,
            TrueLeaf(sig([A, comp], bound=1), comp),
        )
        assert "descent violation" in violations(d)

    def test_cut_rank_violation(self):
        left = TrueLeaf(sig([negate(M00), M01], bound=0), negate(M00))
        right = TrueLeaf(sig([M00, M01], bound=0), M01)
        d = CutNode(sig([M01], bound=1, rank=0), M00, left, right)
        assert "cut rank violation" in violations(d)

    def test_reflection_class_violation(self):
        # a Sigma_3 reflected formula exceeds Pi_{N+1} at N=2
        A = Ex("x", All("y", Ex("z", Mem(Var("x"), Var("z")))))
        guard = reflection_guard(A, ZERO_TERM)
        left = TrueLeaf(sig([M01, A], bound=0), M01)
        right = TrueLeaf(sig([M01, guard], bound=0), M01)
        d = RefNode(sig([M01], bound=1), A, ZERO_TERM, guard, left, right)
        assert "reflection class violation" in violations(d)

    def test_reflection_guard_malformed(self):
        A = All("x", Ex("y", All("z", Mem(Var("x"), Var("z")))))
        guard = reflection_guard(negate(A), ZERO_TERM)  # guard of the wrong sentence
        left = TrueLeaf(sig([M01, A], bound=0), M01)
        right = TrueLeaf(sig([M01, guard], bound=0), M01)
        d = RefNode(sig([M01], bound=1), A, ZERO_TERM, guard, left, right)
        assert "reflection guard sentence malformed" in violations(d)

    def test_hull_control_condition(self):
        a = Abstract("a", from_nat(1))
        A = Mem(ZERO_TERM, Name(a))
        d = TrueLeaf(sig([A]), A)
        assert "control condition: parameter outside hull" in violations(d)

    def test_bound_outside_hull(self):
        # ordinal bounds are always inside the hull by closure; a sequent
        # parameter outside it is the violation surface, so check a term
        # whose premise hull forgets the parent's widening instead
        a = Abstract("a", from_nat(1))
        h = Hull(frozenset({a}))
        A = Ex("x", Mem(ZERO_TERM, Var("x")))
        comp = Mem(ZERO_TERM, Name(ONE))
        p = TrueLeaf(Sig(EMPTY_HULL, from_nat(0), 0, frozenset([A, comp])), comp)
        d = VeeNode(Sig(h, from_nat(1), 0, frozenset([A])), A, ONE, p)
        assert "premise hull mismatch" in violations(d)

    def test_vee_premise_keeps_the_hull(self):
        # a disjunctive premise stays in the node's hull, even at an
        # abstract index outside it
        a = Abstract("a", from_nat(1))
        A = Ex("x", Mem(ZERO_TERM, Var("x")))
        comp = Mem(ZERO_TERM, Name(a))
        p = TrueLeaf(sig([A, comp], bound=0, hull=Hull(frozenset({a}))), comp)
        d = VeeNode(sig([A]), A, a, p)
        assert "premise hull mismatch" in violations(d)

    def test_wedge_premise_widens_the_hull(self):
        # a universe conjunction's premise at a sampled abstract index
        # outside the hull must be widened by that index
        a = Abstract("a", from_nat(1))
        A = All("x", Or(Mem(ZERO_TERM, Var("x")), NotMem(ZERO_TERM, Var("x"))))
        comp = close(A.body, {"x": a})

        def node(hull):
            p = TrueLeaf(sig([A, comp], bound=0, hull=hull), comp)
            return WedgeNode(sig([A]), A, J_UNIVERSE, lambda iota: p)

        def mismatches(d):
            report = check_local(d, 2, sampler=lambda node: [a])
            return [path for path, msg in report.violations
                    if msg == "premise hull mismatch"]

        assert mismatches(node(EMPTY_HULL)) == ["0.s0"]
        assert mismatches(node(Hull(frozenset({a})))) == []

    def test_two_premise_nodes_keep_the_hull(self):
        a = Abstract("a", from_nat(1))
        wide = Hull(frozenset({a}))
        left = TrueLeaf(sig([negate(M00), M01], bound=0, rank=1, hull=wide), negate(M00))
        right = TrueLeaf(sig([M00, M01], bound=0, rank=1), M01)
        d = CutNode(sig([M01], bound=1, rank=1), M00, left, right)
        assert violations(d) == ["premise hull mismatch"]
        A = All("x", Ex("y", All("z", Mem(Var("x"), Var("z")))))
        guard = reflection_guard(A, ZERO_TERM)
        left = TrueLeaf(sig([M01, A], bound=0), M01)
        right = TrueLeaf(sig([M01, guard], bound=0, hull=wide), M01)
        d = RefNode(sig([M01], bound=1), A, ZERO_TERM, guard, left, right)
        assert violations(d) == ["premise hull mismatch"]

    def test_premise_sequent_mismatch(self):
        A = Ex("x", Mem(ZERO_TERM, Var("x")))
        p = TrueLeaf(sig([M01], bound=0), M01)  # forgets A and the component
        d = VeeNode(sig([A]), A, ONE, p)
        assert "premise sequent mismatch" in violations(d)

    def test_polarity_violation_vee(self):
        A = And(Ex("x", Mem(Var("x"), Name(ONE))), M01)
        p = TrueLeaf(sig([A, A.right], bound=0), A.right)
        d = VeeNode(sig([A]), A, 1, p)
        assert "disjunctive inference on a conjunctive formula" in violations(d)

    def test_vee_on_true_bounded(self):
        D = Or(M00, negate(M00))  # bounded and true: decomposes by truth
        p = TrueLeaf(sig([D, negate(M00)], bound=0), negate(M00))
        d = VeeNode(sig([D]), D, 1, p)
        assert "disjunctive inference on a conjunctive formula" in violations(d)

    def test_index_set_mismatch(self):
        A = And(Ex("x", Mem(Var("x"), Name(ONE))), Ex("y", Mem(Var("y"), Name(ONE))))

        def prem(i):
            comp = A.left if i == 0 else A.right
            return TrueLeaf(sig([A, comp], bound=0), comp)

        d = WedgeNode(sig([A]), A, J_UNIVERSE, prem)
        assert "index set mismatch" in violations(d)

    def test_index_outside_index_set(self):
        A = BAll("x", Name(ONE), Mem(Var("x"), Name(ONE)))
        B = negate(A)  # bounded-existential over {0}
        comp = NotMem(Name(ONE), Name(ONE))
        p = TrueLeaf(sig([B, comp], bound=0), comp)
        d = VeeNode(sig([B]), B, ONE, p)  # ONE is not a member of {0}
        assert "index outside the index set" in violations(d)

    def test_vee_on_an_atom_is_reported(self):
        # an atom has no components, so there is no premise to expect
        d = VeeNode(sig([M01]), M01, 0, TrueLeaf(sig([M01], bound=0), M01))
        assert "index outside the index set" in violations(d)

    def test_vee_index_outside_the_universe_is_reported(self):
        A = Ex("x", Mem(ZERO_TERM, Var("x")))
        comp = Mem(ZERO_TERM, Name(3))  # 3 is not a desk set
        d = VeeNode(sig([A]), A, 3, TrueLeaf(sig([A, comp], bound=0), comp))
        assert "index outside the index set" in violations(d)

    def test_name_of_a_non_set_fails_the_control_condition(self):
        stray = Mem(Name(3), ZERO_TERM)
        d = TrueLeaf(sig([M01, stray]), M01)
        assert violations(d) == ["control condition: parameter outside hull"]

    def test_at_least_six_distinct_mutations(self):
        msgs = {
            "leaf asserts a false sentence",
            "descent violation",
            "cut rank violation",
            "reflection class violation",
            "premise sequent mismatch",
            "control condition: parameter outside hull",
            "disjunctive inference on a conjunctive formula",
            "index set mismatch",
        }
        assert len(msgs) >= 6


class Unfolding(DerivTerm):
    """A hand-built term at ``sig`` that unfolds to ``node``."""

    def __init__(self, sig, node):
        super().__init__()
        self.sig = sig
        self.node = node

    def _expand(self):
        return self.node


class StrayNode(ExplicitNode):
    """An explicit node of none of the five inference kinds."""

    def __init__(self, sig):
        super().__init__()
        self.sig = sig


def _message_cases():
    """(name, term, path, message, whether a violation or a note) for
    each check_local message that no other test names."""
    A_ex = Ex("x", Mem(ZERO_TERM, Var("x")))
    comp = Mem(ZERO_TERM, Name(ONE))
    a = Abstract("a", from_nat(1))
    inside_a = Hull(frozenset({a}))
    opaque = Or(Ad(ZERO_TERM), M00)  # bounded, with an opaque atom
    B_a = BEx("x", Name(a), NotMem(Var("x"), ZERO_TERM))
    settled = And(M01, M01)  # a true bounded conjunction
    A_all = All("x", Or(M01, Mem(Var("x"), ZERO_TERM)))
    A_a = BAll("x", Name(a), NotMem(Var("x"), ZERO_TERM))

    def wedge(main, index_set):
        def prem(i):
            C_i = component(main, i)
            return TrueLeaf(sig([main, C_i], bound=0), C_i)

        return WedgeNode(sig([main]), main, index_set, prem)

    return [
        ("drift", Unfolding(sig([M01], bound=2), TrueLeaf(sig([M01]), M01)),
         "0", "signature drift in unfolding", True),
        ("opaque-polarity", VeeNode(sig([opaque]), opaque, 0,
                                    TrueLeaf(sig([opaque, Ad(ZERO_TERM)], bound=0), Ad(ZERO_TERM))),
         "0", "polarity not machine-checkable", False),
        ("false-atom", VeeNode(sig([M00]), M00, 0, TrueLeaf(sig([M00], bound=0), M00)),
         "0", "disjunctive inference on an empty index set", True),
        ("abstract-bound", VeeNode(sig([B_a], hull=inside_a), B_a, EMPTY,
                                   TrueLeaf(sig([B_a, negate(M00)], bound=0, hull=inside_a),
                                            negate(M00))),
         "0", "index set bounded by an abstract parameter", False),
        ("wedge-on-an-atom", wedge(M01, J_TWO),
         "0", "conjunctive inference on a bounded sentence", True),
        ("wedge-on-a-settled-and", wedge(settled, J_TWO),
         "0", "conjunctive inference on a bounded sentence", True),
        ("wedge-on-an-existential", wedge(A_ex, J_UNIVERSE),
         "0", "conjunctive inference on a disjunctive formula", True),
        ("premise-rank", VeeNode(sig([A_ex], rank=1), A_ex, ONE,
                                 TrueLeaf(sig([A_ex, comp], bound=0), comp)),
         "0.0", "premise rank mismatch", True),
        ("stray-node", StrayNode(sig([M01])), "0", "unknown node kind", True),
        ("raising-expansion", Drop(TrueLeaf(sig([M00, M01]), M00), M00),
         "0", "expansion error: a false bounded sentence heads no rule", True),
        ("opaque-leaf", TrueLeaf(sig([Ad(ZERO_TERM)]), Ad(ZERO_TERM)),
         "0", "leaf truth not machine-checkable", False),
        ("universe-wedge", wedge(A_all, J_UNIVERSE), "0", "universe index set sampled", False),
        ("abstract-wedge", WedgeNode(sig([A_a], hull=inside_a), A_a, JBounded(a), None),
         "0", "abstract index set skipped", False),
    ]


@pytest.mark.parametrize("d,path,msg,violation",
                         [pytest.param(*case, id=name) for name, *case in _message_cases()])
def test_each_check_local_message_at_its_path(d, path, msg, violation):
    report = check_local(d, 2)
    assert (path, msg) in (report.violations if violation else report.notes)


class TestEvalCutfree:
    def test_corpus_outputs_verified(self):
        for e in build_corpus():
            if not e.concrete or e.has_ref:
                continue
            d = Emb(e.script.root, e.script.assignment, EMPTY_HULL)
            for _ in range(d.sig.rank):
                d = elim_cuts(d)
            result = eval_cutfree(d, 8)
            assert result.status == "verified-true", (e.name, result)
            assert oracle_sequent(d.sig.seq)

    # eval_cutfree of each corpus output at depths 0, 1, 2 and 8
    VERDICTS = {
        "infinity": [("inconclusive", "depth limit")]
        + [("inconclusive", "universe conjunction")] * 3,
        "reflection": [("inconclusive", "depth limit")] * 3 + [("inconclusive", "reflection")],
    }

    def test_corpus_verdicts_are_unchanged(self, monkeypatch):
        outputs = corpus_outputs()
        # the corpus outputs and the premises below them, two levels deep
        nodes, todo = [], [(d, 2) for d in outputs.values()]
        while todo:
            d, k = todo.pop()
            nodes.append(d)
            v = rule_of(d)
            if k and isinstance(v, VeeNode):
                todo.append((v.sub, k - 1))
            elif k and isinstance(v, WedgeNode) and v.index_set != J_UNIVERSE:
                todo += [(v.premise(i), k - 1) for i in v.indices()]
        nodes = [d for d in nodes if all(is_concrete(a) for a in support(d.sig.seq))]
        assert len(nodes) > len(outputs)
        witnesses = checking._witness_domain()
        for A in {A for d in nodes for A in d.sig.seq}:
            for B in (A, negate(A)):
                assert checking.certify(B, witnesses) == ref_certify(B), B

        def verdicts(ds):
            results = [eval_cutfree(d, k) for d in ds for k in (0, 1, 2, 8)]
            return [(r.status, r.reason) for r in results]

        for name, d in outputs.items():
            assert verdicts([d]) == self.VERDICTS.get(name, [("verified-true", "")] * 4), name
        got = verdicts(nodes)
        monkeypatch.setattr(checking, "certify", lambda A, witnesses: ref_certify(A))
        assert got == verdicts(nodes)

    def test_a_nested_existential_searches_its_instance_pool(self):
        # x ranges over the ordinals below 6; those of rank 4 and 5 lie
        # outside the first 16 sets, so their pools differ
        A = BAll("x", Name(von_neumann(6)), Ex("y", equals(Var("y"), Var("x"))))
        seen = []
        witnesses = checking._witness_domain()

        def domain(B, env):
            pool = witnesses(B, env)
            seen.append((B, dict(env), pool))
            return pool

        assert checking.certify(A, domain)
        assert len(seen) == 6
        for B, env, pool in seen:
            assert pool == witness_pool(16, support(close(B, env)))
        assert len({len(pool) for _, _, pool in seen}) == 3  # 16, 16 + 1 and 16 + 2 sets
        # one pool per parameter set in one call
        assert seen[0][2] is witnesses(seen[0][0], seen[0][1])

    def test_requires_cutfree(self):
        left = TrueLeaf(sig([negate(M00), M01], bound=0), negate(M00))
        right = TrueLeaf(sig([M00, M01], bound=0), M01)
        d = CutNode(sig([M01], bound=1, rank=1), M00, left, right)
        with pytest.raises(EvaluationError,
                           match="^soundness evaluation needs a cut-free signature$"):
            eval_cutfree(d, 3)

    def test_rejects_abstract_end_sequent(self):
        a = Abstract("a", from_nat(1))
        A = Mem(ZERO_TERM, Name(a))
        d = TrueLeaf(sig([A]), A)
        with pytest.raises(EvaluationError,
                           match="^end sequent mentions an abstract parameter$"):
            eval_cutfree(d, 3)

    def test_a_leaf_is_judged_by_its_main_formula(self):
        # a leaf on the false (in 0 0) is refuted, as check_local reports
        # it false; a leaf on an opaque atom stays undecided
        d = TrueLeaf(sig([M00], bound=0), M00)
        assert eval_cutfree(d, 3) == checking.EvalResult("refuted", "false leaf")
        assert "leaf asserts a false sentence" in violations(d)
        A = Ad(ZERO_TERM)
        d = TrueLeaf(sig([A], bound=0), A)
        assert eval_cutfree(d, 3) == checking.EvalResult("inconclusive", "opaque leaf")

    def test_inconclusive_depth(self):
        A = All("x", Or(Mem(Var("x"), Name(ONE)), NotMem(Var("x"), Name(ONE))))

        def prem(b):
            comp = Or(Mem(Name(b), Name(ONE)), NotMem(Name(b), Name(ONE)))
            return TrueLeaf(sig([A, comp], bound=0), comp)

        d = WedgeNode(sig([A]), A, J_UNIVERSE, prem)
        assert eval_cutfree(d, 3).status == "inconclusive"

    # the main is bounded but opaque, so no sequent here is certified
    # before its premises are judged
    OPAQUE_BALL = BAll("x", Name(TWO), Or(Ad(Var("x")), Mem(Var("x"), Name(TWO))))

    def bounded_wedge(self, odd):
        """A conjunction over the members of TWO whose premise at EMPTY
        is ``odd(seq)`` when given; every other premise steps into the
        true disjunct."""
        A = self.OPAQUE_BALL

        def prem(b):
            comp = close(A.body, {"x": b})
            if b == EMPTY and odd is not None:
                return odd(frozenset({A, comp}))
            inner = TrueLeaf(sig([A, comp, comp.right], bound=0), comp.right)
            return VeeNode(sig([A, comp]), comp, 1, inner)

        return WedgeNode(sig([A], bound=2), A, JBounded(TWO), prem)

    @pytest.mark.parametrize("odd,verdict", [
        (None, ("verified-true", "")),
        (lambda s: TrueLeaf(sig(s | {M00}, bound=0), M00), ("refuted", "refuted premise")),
        (lambda s: TrueLeaf(sig(s | {Ad(ZERO_TERM)}, bound=0), Ad(ZERO_TERM)),
         ("inconclusive", "opaque leaf")),
    ], ids=["all-verified", "refuted", "inconclusive"])
    def test_a_bounded_conjunction_is_judged_by_its_premises(self, odd, verdict):
        d = self.bounded_wedge(odd)
        assert not checking.certify(self.OPAQUE_BALL, checking._witness_domain())
        result = eval_cutfree(d, 3)
        assert (result.status, result.reason) == verdict

    def test_a_cut_is_inconclusive(self):
        left = TrueLeaf(sig([negate(M01), M00], bound=0), negate(M01))
        right = TrueLeaf(sig([M01, M00], bound=0), M01)
        d = CutNode(sig([M00], bound=1), M01, left, right)
        assert eval_cutfree(d, 3) == checking.EvalResult("inconclusive", "cut")

    def test_a_node_of_no_inference_kind_is_inconclusive(self):
        d = StrayNode(sig([M00]))
        assert eval_cutfree(d, 3) == checking.EvalResult("inconclusive", "unknown node")


def opaque_vee_chain(n):
    """n disjunctive inferences on (or (ad 0) (ad 0)), each into its
    first disjunct, over a leaf on (ad 0): a rank-0 derivation n + 1
    nodes deep in which nothing is certified."""
    A, B = Or(Ad(ZERO_TERM), Ad(ZERO_TERM)), Ad(ZERO_TERM)
    d = TrueLeaf(sig([A, B], bound=0), B)
    for i in range(1, n + 1):
        d = VeeNode(sig([A, B], bound=i), A, 0, d)
    return d


class TestDeepDerivations:
    """The local check and the soundness evaluation keep their own
    stacks, so they walk a derivation deeper than the interpreter's
    recursion limit."""

    N = 3000

    def test_the_local_check_walks_the_whole_chain(self):
        assert sys.getrecursionlimit() < self.N
        report = check_local(opaque_vee_chain(self.N), self.N)
        assert report.visited == self.N + 1 and report.passed
        assert report.lines[-1].split()[1] == "true-leaf"
        assert report.notes[-1] == ("0" + ".0" * self.N, "leaf truth not machine-checkable")

    def test_the_evaluation_reaches_the_leaf(self):
        d = opaque_vee_chain(self.N)
        assert eval_cutfree(d, self.N + 1) == checking.EvalResult("inconclusive", "opaque leaf")
        assert eval_cutfree(d, self.N) == checking.EvalResult("inconclusive", "depth limit")


class TestOracle:
    def test_needs_concrete_parameters(self):
        a = Abstract("a", from_nat(1))
        with pytest.raises(EvaluationError, match="oracle needs concrete parameters"):
            oracle_eval(Mem(ZERO_TERM, Name(a)))

    def test_matches_bounded_eval(self):
        assert oracle_eval(M01)
        assert not oracle_eval(M00)

    def test_unbounded_quantifiers(self):
        assert oracle_eval(Ex("x", Mem(ZERO_TERM, Var("x"))))
        assert not oracle_eval(All("x", Mem(ZERO_TERM, Var("x"))))

    def test_default_domain_is_the_sixteen_sets_of_rank_at_most_three(self, monkeypatch):
        domains = []

        def spy(A, domain, env):
            domains.append(domain(A, env))
            return True

        monkeypatch.setattr(checking, "evaluate", spy)
        P = von_neumann(6)
        oracle_eval(Ex("x", Mem(Var("x"), Name(P))))
        [pool] = domains
        small = enumerate_hf(16)
        assert pool[:16] == small
        assert {rank_int(a) for a in small} == {0, 1, 2, 3}  # so all 16 sets of rank <= 3
        assert set(pool) == set(small) | transitive_closure(P) | {P}
        assert len(pool) == len(set(pool)) == 16 + 3  # the ordinals 4, 5 and 6

    def test_sequent_truth(self):
        assert oracle_sequent(frozenset({M00, M01}))
        assert not oracle_sequent(frozenset({M00}))


class TestTraces:
    def test_deterministic_for_seed(self):
        e = next(x for x in build_corpus() if x.name == "taut-depth2")
        lines = []
        for _ in range(2):
            d = Emb(e.script.root, {}, EMPTY_HULL)
            lines.append(trace_lines(d, 3, sampler=default_sampler(seed=42)))
        assert lines[0] == lines[1]

    def test_seed_changes_universe_sampling(self):
        e = next(x for x in build_corpus() if x.name == "taut-depth2")
        d = Emb(e.script.root, {}, EMPTY_HULL)
        a = trace_lines(d, 3, sampler=default_sampler(seed=0))
        b = trace_lines(d, 3, sampler=default_sampler(seed=9))
        assert a != b

    def test_line_shape(self):
        e = build_corpus()[0]
        d = Emb(e.script.root, {}, EMPTY_HULL)
        for line in trace_lines(d, 2):
            parts = line.split()
            assert len(parts) == 7
            int(parts[0]), int(parts[-1])

    def test_trace_lists_the_nodes_the_check_visits(self):
        # ONE is not in {0}, so the check expects no premise and the
        # trace lists the root alone
        B = negate(BAll("x", Name(ONE), Mem(Var("x"), Name(ONE))))
        comp = NotMem(Name(ONE), Name(ONE))
        d = VeeNode(sig([B]), B, ONE, TrueLeaf(sig([B, comp], bound=0), comp))
        assert len(trace_lines(d, 3)) == check_local(d, 3).visited == 1

    def test_premise_error_is_reported_and_traced(self):
        A = BAll("x", Name(ONE), NotMem(Var("x"), Var("x")))

        def prem(iota):
            raise ConstructionError("no premise here")

        d = WedgeNode(sig([A]), A, JBounded(ONE), prem)
        lines = trace_lines(d, 3)
        assert len(lines) == 1 and lines[0].startswith("1 wedge ")
        report = check_local(d, 3)
        assert ("0", "premise error at i0: no premise here") in report.violations
        assert report.lines == lines
