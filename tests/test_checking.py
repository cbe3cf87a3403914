"""Local correctness checking, soundness evaluation, and traces."""

import pytest

from proofkit.corpus import ONE, TWO, build_corpus
from proofkit.derivations import (
    ConstructionError,
    CutNode,
    Emb,
    RefNode,
    Sig,
    TrueLeaf,
    VeeNode,
    WedgeNode,
    elim_cuts,
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
    All,
    And,
    BAll,
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
    negate,
    reflection_guard,
)
from proofkit.ordinals import OMEGA, Sub, cnf_from_int, from_nat
from proofkit.universe import Abstract, Concrete, EMPTY, EMPTY_HULL, EvaluationError, Hull

M00 = Mem(ZERO_TERM, ZERO_TERM)  # false
M01 = Mem(ZERO_TERM, Name(ONE))  # true


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
        a = Abstract("a", Sub(cnf_from_int(1)))
        A = Mem(ZERO_TERM, Name(a))
        d = TrueLeaf(sig([A]), A, undetermined=True)
        assert "control condition: parameter outside hull" in violations(d)

    def test_bound_outside_hull(self):
        # ordinal bounds are always inside the hull by closure; a sequent
        # parameter outside it is the violation surface, so check a term
        # whose premise hull forgets the parent's widening instead
        a = Abstract("a", Sub(cnf_from_int(1)))
        h = Hull(frozenset({a}))
        A = Ex("x", Mem(ZERO_TERM, Var("x")))
        comp = Mem(ZERO_TERM, Name(ONE))
        p = TrueLeaf(Sig(EMPTY_HULL, from_nat(0), 0, frozenset([A, comp])), comp)
        d = VeeNode(Sig(h, from_nat(1), 0, frozenset([A])), A, ONE, p)
        assert "premise hull mismatch" in violations(d)

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
        p = TrueLeaf(sig([B, comp], bound=0), comp, undetermined=False)
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

    def test_requires_cutfree(self):
        left = TrueLeaf(sig([negate(M00), M01], bound=0), negate(M00))
        right = TrueLeaf(sig([M00, M01], bound=0), M01)
        d = CutNode(sig([M01], bound=1, rank=1), M00, left, right)
        with pytest.raises(EvaluationError):
            eval_cutfree(d, 3)

    def test_rejects_abstract_end_sequent(self):
        a = Abstract("a", Sub(cnf_from_int(1)))
        A = Mem(ZERO_TERM, Name(a))
        d = TrueLeaf(sig([A]), A, undetermined=True)
        with pytest.raises(EvaluationError):
            eval_cutfree(d, 3)

    def test_inconclusive_depth(self):
        A = All("x", Or(Mem(Var("x"), Name(ONE)), NotMem(Var("x"), Name(ONE))))

        def prem(b):
            comp = Or(Mem(Name(b), Name(ONE)), NotMem(Name(b), Name(ONE)))
            return TrueLeaf(sig([A, comp], bound=0), comp)

        d = WedgeNode(sig([A]), A, J_UNIVERSE, prem)
        assert eval_cutfree(d, 3).status == "inconclusive"


class TestOracle:
    def test_matches_bounded_eval(self):
        assert oracle_eval(M01)
        assert not oracle_eval(M00)

    def test_unbounded_quantifiers(self):
        assert oracle_eval(Ex("x", Mem(ZERO_TERM, Var("x"))))
        assert not oracle_eval(All("x", Mem(ZERO_TERM, Var("x"))))

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
        a = trace_lines(d, 3, sampler=default_sampler(seed=0, count=3))
        b = trace_lines(d, 3, sampler=default_sampler(seed=9, count=3))
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
