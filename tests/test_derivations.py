"""Derivation terms: lazy expansion, embedding signatures, weakening,
reduction, and predicative cut elimination."""

import gc
import random
from dataclasses import replace

import families
import pytest
from test_finitary import cut_chain
from test_formulas import random_formula
from test_perfbench import BALL_SCRIPT

from proofkit import derivations
from proofkit.corpus import ONE, TWO, build_corpus
from proofkit.derivations import (
    ConstructionError,
    CutNode,
    DerivTerm,
    Drop,
    Emb,
    Inv,
    Red,
    RefNode,
    Sig,
    Taut,
    TrueLeaf,
    VeeNode,
    WedgeNode,
    E,
    elim_cuts,
    emb_bound,
    emb_rank,
    fit,
    Weak,
    _fund_progress,
    _map_premises,
    axemb_rank,
    rule_of,
)
from proofkit.checking import check_local, default_sampler, eval_cutfree
from proofkit.finitary import (
    AXIOM_RULES,
    ProofNode,
    ProofScript,
    ax_collection,
    ax_foundation,
    check_proof,
    parse_script,
    post_order,
    render_script,
)
from proofkit.formulas import (
    Ad,
    All,
    And,
    BAll,
    BEx,
    Ex,
    JBounded,
    Mem,
    Name,
    NotMem,
    Or,
    Var,
    ZERO_TERM,
    close,
    conjunctive,
    depth,
    negate,
    parse_formula,
    seq,
)
from proofkit.ordinals import (
    LESS,
    OMEGA,
    ZERO,
    add,
    cmp,
    from_nat,
    omega_exp,
    times_nat,
)
from proofkit.universe import (
    EMPTY,
    EMPTY_HULL,
    Abstract,
    Concrete,
    EvaluationError,
    hull_extend,
    rank,
)

M00 = Mem(ZERO_TERM, ZERO_TERM)
M01 = Mem(ZERO_TERM, Name(ONE))  # true


def leaf(main, extra=(), bound=0, hull=EMPTY_HULL, rank_=0):
    s = frozenset({main}) | frozenset(extra)
    return TrueLeaf(Sig(hull, from_nat(bound), rank_, s), main)


PARAM = Abstract("p", from_nat(1))


def sample_indices(v):
    """The indices of v's premises, and for a conjunction two small sets
    it admits."""
    if isinstance(v, WedgeNode):
        return [i for i in (0, 1, EMPTY, ONE) if v.index_set.contains(i)]
    return v.indices()


def corpus_terms():
    for e in build_corpus():
        yield e, Emb(e.script.root, e.script.assignment, EMPTY_HULL)


def ref_emb_rank(pi):
    """emb_rank as it was, reading the depth of each logical axiom's main
    formula and each cut formula after closing it."""
    ranks = {}
    for node in post_order(pi):
        if node.rule == "logax":
            r = 2 * depth(close(node.main, {}))
        elif node.rule in AXIOM_RULES:
            r = axemb_rank(node)
        else:
            r = max(ranks[id(p)] for p in node.premises) + 1
            if node.rule == "cut":
                r = max(r, depth(close(node.formula, {})) + 1)
        ranks[id(node)] = r
    return ranks[id(pi)]


class TestEmbeddingSignature:
    def test_rank_agrees_with_closing_reference(self):
        for e in build_corpus():
            assert emb_rank(e.script.root) == ref_emb_rank(e.script.root), e.name
        # no corpus formula is open: cuts over logical axioms on open ones
        rng = random.Random(4)
        for _ in range(300):
            A, C = (random_formula(rng, rng.randrange(5), ("a", "b")) for _ in "AC")
            ax = ProofNode("logax", seq(A, negate(A)), main=A)
            cut = ProofNode("cut", seq(A), (ax, ax), formula=C)
            assert emb_rank(cut) == ref_emb_rank(cut)

    def test_rank_and_bound_formula(self):
        for e, d in corpus_terms():
            m = emb_rank(e.script.root)
            assert d.sig.rank == m
            values = [e.script.assignment[k] for k in sorted(e.script.assignment)]
            assert d.sig.bound == emb_bound(m, values)

    def test_closed_proofs_get_omega_m(self):
        for e, d in corpus_terms():
            if e.script.assignment:
                continue
            assert d.sig.bound == times_nat(OMEGA, d.sig.rank)

    def test_end_sequent_preserved(self):
        for e, d in corpus_terms():
            if e.script.assignment:
                continue
            assert d.sig.seq == e.script.root.conclusion

    def test_the_ranks_are_computed_once_for_the_root(self, monkeypatch):
        scripts = {n: parse_script(cut_chain(n)) for n in (100, 200, 400)}
        walked = []
        post_order = derivations.fin.post_order

        def counted(pi):
            order = post_order(pi)
            walked.append(len(order))
            return order

        monkeypatch.setattr(derivations.fin, "post_order", counted)
        for n, script in scripts.items():
            walked.clear()
            assert check_local(Emb(script.root, {}, EMPTY_HULL), n + 5).visited == 2 * n + 1
            # the chain's n + 2 distinct nodes, each once
            assert walked == [n + 2]

    def test_one_cut_rank_two(self):
        e = next(x for x in build_corpus() if x.name == "one-cut")
        assert emb_rank(e.script.root) == 2

    def test_cut_rank_exceeds_cut_depth(self):
        e = next(x for x in build_corpus() if x.name == "one-cut")
        from proofkit.formulas import depth

        assert emb_rank(e.script.root) >= depth(e.script.root.formula) + 1


class TestExpansion:
    def test_taut_depth0_is_leaf(self):
        t = Taut(M01, frozenset({M01, negate(M01)}), EMPTY_HULL)
        v = rule_of(t)
        assert isinstance(v, TrueLeaf)

    def test_taut_unfolds_with_descent(self):
        A = Ex("x", Mem(ZERO_TERM, Var("x")))
        t = Taut(A, frozenset({A, negate(A)}), EMPTY_HULL)
        v = rule_of(t)
        assert isinstance(v, WedgeNode)
        assert v.sig == t.sig

    def test_signature_coherence(self):
        # the explicit node always carries the term's own signature
        for _, d in corpus_terms():
            assert rule_of(d).sig == d.sig

    def test_collection_under_one_variable_name(self):
        # with var = var2 the formula's x is the inner binder's, so the
        # witness search reads it at the candidate witness y, not at x
        phi = Mem(ZERO_TERM, Var("x"))
        inst = ax_collection(Name(ONE), "x", "x", phi)
        node = ProofNode("axiom:collection", seq(inst), term=Name(ONE),
                         var="x", var2="x", formula=phi)
        d = Emb(node, {}, EMPTY_HULL)
        v = rule_of(rule_of(d).sub)
        assert v.iota == Concrete(frozenset({ONE}))
        assert check_local(d, 4).passed

    def test_progress_step_reads_the_instance(self):
        # below b, the induction hypothesis is the progress wedge over
        # b's members on the progress failure's bounded universal, bound
        # variable included
        inst = ax_foundation("x", "z", All("y", Mem(Var("x"), Var("y"))))
        B, U = inst.left, inst.right
        step = _fund_progress(TWO, B, U, frozenset(), EMPTY_HULL)
        wedge = rule_of(step).sub
        hyp = wedge.premise(0)
        assert isinstance(hyp, WedgeNode) and hyp.index_set is JBounded(TWO)
        assert hyp.main == BAll("z", Name(TWO), All("y", Mem(Var("z"), Var("y"))))
        below = add(from_nat(2), times_nat(rank(TWO), 3))
        assert hyp.sig == Sig(EMPTY_HULL, below, 0, wedge.sig.seq | {hyp.main})
        assert step.sig.bound == add(below, from_nat(2))
        v = rule_of(hyp.premise(ONE))
        assert isinstance(v, VeeNode) and (v.main, v.iota) == (B, ONE)
        assert check_local(step, 4).passed


#: Checked proofs whose last rule introduces a false bounded formula:
#: the embedding cuts the false part away against a true leaf.
OR_SCRIPT = """\
n1 logax (seq (in {} {}) (in {{}} {}) (notin {} {})) main=(in {} {})
n2 or [n1] (seq (or (in {} {}) (in {{}} {})) (notin {} {})) main=(or (in {} {}) (in {{}} {}))
"""
AND_SCRIPT = """\
n1 logax (seq (in {} {}) (notin {} {}) (notin {} {{}})) main=(in {} {})
n2 logax (seq (in {} {{}}) (notin {} {}) (notin {} {{}})) main=(in {} {{}})
n3 and [n1,n2] (seq (and (in {} {}) (in {} {{}})) (notin {} {}) (notin {} {{}})) \
main=(and (in {} {}) (in {} {{}}))
"""
BEX_SCRIPT = """\
n1 logax (seq (in {{}} {{}}) (notin {{}} {{}}) (notin {{}} {})) main=(in {{}} {{}})
n2 logax (seq (in {{}} {}) (notin {{}} {{}}) (notin {{}} {})) main=(in {{}} {})
n3 bex [n1,n2] (seq (bex x {{}} (in x {})) (notin {{}} {{}}) (notin {{}} {})) \
main=(bex x {{}} (in x {})) term={{}}
"""


def embed_checked(text, rank_):
    script = parse_script(text)
    assert check_proof(script.root).ok
    assert emb_rank(script.root) == rank_
    return Emb(script.root, script.assignment, EMPTY_HULL)


def cut_on(t, C):
    v = rule_of(t)
    assert isinstance(v, CutNode) and v.cut_formula == C
    return v


def assert_leaf(t, main, seq_, hull, bound):
    """t is a true leaf on main over seq_ plus main, at hull and bound."""
    v = rule_of(t)
    assert isinstance(v, TrueLeaf) and v.main == main
    assert v.sig.seq == seq_ | {main}
    assert (v.sig.hull, v.sig.bound) == (hull, from_nat(bound))


class TestBoundedShapes:
    """The embedding of a rule that introduces a false bounded formula:
    each false part is cut away against a true leaf on its negation."""

    def test_false_disjunction_cuts_away_both_disjuncts(self):
        d = embed_checked(OR_SCRIPT, 1)
        a0, a1 = parse_formula("(in {} {})"), parse_formula("(in {{}} {})")
        outer = cut_on(d, a1)
        assert outer.sig == d.sig
        assert_leaf(outer.left, negate(a1), d.sig.seq, EMPTY_HULL, 0)
        inner = cut_on(outer.right, a0)
        assert inner.sig.seq == d.sig.seq | {a1}
        assert_leaf(inner.left, negate(a0), inner.sig.seq, EMPTY_HULL, 0)
        assert rule_of(inner.right).sig.seq == inner.sig.seq | {a0}

    def test_false_conjunction_cuts_away_its_false_conjunct(self):
        d = embed_checked(AND_SCRIPT, 1)
        a0 = parse_formula("(in {} {})")
        cut = cut_on(d, a0)
        assert cut.sig == d.sig
        assert_leaf(cut.left, negate(a0), d.sig.seq, EMPTY_HULL, 0)
        assert rule_of(cut.right).sig.seq == d.sig.seq | {a0}

    def test_witness_outside_the_bound_cuts_away_its_membership(self):
        d = embed_checked(BEX_SCRIPT, 1)
        mem = parse_formula("(in {{}} {{}})")
        cut = cut_on(d, mem)
        assert cut.sig == d.sig
        assert_leaf(cut.left, negate(mem), d.sig.seq, EMPTY_HULL, 1)
        assert rule_of(cut.right).sig.seq == d.sig.seq | {mem}

    def test_bounded_universal_cuts_away_each_non_membership(self):
        d = embed_checked(BALL_SCRIPT, 2)
        main = parse_formula("(ball x0 {{{}}} (in x0 {{{}},{}}))")
        wedge = rule_of(d)
        assert isinstance(wedge, WedgeNode) and wedge.main == main
        assert wedge.indices() == [ONE]
        notmem = NotMem(Name(ONE), main.bound)
        cut = cut_on(wedge.premise(ONE), notmem)
        hull = hull_extend(d.sig.hull, ONE)
        assert cut.sig.seq == d.sig.seq | {parse_formula("(in {{}} {{{}},{}})")}
        assert_leaf(cut.left, negate(notmem), cut.sig.seq, hull, 1)
        right = rule_of(cut.right)
        assert isinstance(right, VeeNode) and right.sig.seq == cut.sig.seq | {notmem}


#: a cut whose premises lack the cut formula: refused by the finitary check
UNCHECKED_CUT = """\
n1 logax (seq (ex x (in x {{}})) (all x (notin x {{}}))) main=(ex x (in x {{}}))
n2 cut [n1,n1] (seq (ex x (in x {{}})) (all x (notin x {{}}))) formula=(ex x (in x {}))
"""


class TestPremiseRule:
    """An embedded premise is its own derivation, weakened by the
    conclusion, not weakened into whatever the node wants of it."""

    def test_an_unchecked_cut_keeps_its_premise_mismatch(self):
        script = parse_script(UNCHECKED_CUT)
        mismatch = [("0.0", "premise sequent mismatch"), ("0.1", "premise sequent mismatch")]
        assert check_proof(script.root).diagnostics == mismatch
        report = check_local(Emb(script.root, {}, EMPTY_HULL), 2)
        assert report.violations == mismatch


class TestWeaken:
    def test_adds_members(self):
        d = leaf(M01)
        w = fit(d, EMPTY_HULL, 0, frozenset({M01, M00}))
        assert w.sig.seq == frozenset({M01, M00})
        assert isinstance(rule_of(w), TrueLeaf)

    def test_raises_bound_and_rank(self):
        d = leaf(M01)
        w = Weak(d, Sig(EMPTY_HULL, OMEGA, 3, d.sig.seq))
        assert w.sig.bound == OMEGA
        assert w.sig.rank == 3

    def test_rejects_lower_bound(self):
        d = leaf(M01, bound=5)
        with pytest.raises(ConstructionError, match="^weakening must not lower the bound$"):
            Weak(d, Sig(EMPTY_HULL, ZERO, 0, d.sig.seq))

    def test_rejects_lower_rank(self):
        d = leaf(M01, rank_=2)
        with pytest.raises(ConstructionError, match="^weakening must not lower the cut rank$"):
            fit(d, EMPTY_HULL, 1, d.sig.seq)

    def test_unchanged_signature_returns_the_term(self):
        d = leaf(M01, bound=2)
        assert fit(d, EMPTY_HULL, 0, d.sig.seq) is d
        assert fit(d, EMPTY_HULL, 0, frozenset({M01})) is d

    def test_fit_keeps_the_bound(self):
        d = leaf(M01, bound=2)
        w = fit(d, EMPTY_HULL, 1, frozenset({M01, M00}))
        assert w.sig == Sig(EMPTY_HULL, from_nat(2), 1, frozenset({M01, M00}))
        assert w.sub is d

    def test_a_chain_of_weakenings_is_one_term(self):
        # the inner weakening's premises, fitted again at the outer
        # signature, are what the two-layer chain unfolded to
        P = hull_extend(EMPTY_HULL, PARAM)
        checked = 0
        for _, d in corpus_terms():
            s = d.sig
            w = fit(d, EMPTY_HULL, s.rank + 1, s.seq | {M00})
            sig = Sig(P, add(s.bound, from_nat(1)), s.rank + 2, s.seq | {M00, M01})
            one = Weak(w, sig)
            assert isinstance(one, Weak) and one.sub is d and one.sig == sig
            two = _map_premises(rule_of(w), sig)
            v = rule_of(one)
            assert (type(v), v.sig, v.main) == (type(two), two.sig, two.main)
            for iota in sample_indices(v):
                p, q = v.premise(iota), two.premise(iota)
                assert p.sig == q.sig and rule_of(p).sig == rule_of(q).sig
                checked += 1
        assert checked > 10

    def test_a_weakening_is_checked_against_its_own_signature(self):
        # d itself would allow each of these signatures; w does not
        d = leaf(M01)
        P = hull_extend(EMPTY_HULL, PARAM)
        seq2 = frozenset({M01, M00})
        w = Weak(d, Sig(P, from_nat(3), 2, seq2))
        for hull, rank_, seq_, bound in [
            (EMPTY_HULL, 2, seq2, 3),  # shrinks the hull
            (P, 1, seq2, 3),  # lowers the rank
            (P, 2, seq2, 1),  # lowers the bound
            (P, 2, d.sig.seq, 3),  # drops a member
        ]:
            sig = Sig(hull, from_nat(bound), rank_, seq_)
            with pytest.raises(ConstructionError):
                Weak(w, sig)
            Weak(d, sig)


class TestTwoPremiseNodes:
    def test_cut_and_reflection_share_premise_access(self):
        a, b = leaf(M01), leaf(M00)
        s = Sig(EMPTY_HULL, from_nat(1), 1, frozenset({M01}))
        cut = CutNode(s, M00, a, b)
        ref = RefNode(s, M00, ZERO_TERM, M01, a, b)
        for v in (cut, ref):
            assert v.indices() == [0, 1]
            assert v.premise(0) is a and v.premise(1) is b
        with pytest.raises(IndexError, match="cut premises"):
            cut.premise(2)
        with pytest.raises(IndexError, match="reflection premises"):
            ref.premise(2)
        assert not isinstance(ref, CutNode) and not isinstance(cut, RefNode)


def tree_copy(text: str) -> str:
    """The script of the same proof with each shared node written out
    again, under a fresh id, wherever it is used."""
    script = parse_script(text)

    def copy(n):
        return replace(n, premises=tuple(copy(p) for p in n.premises))

    return render_script(ProofScript(copy(script.root), script.params, script.assignment))


@pytest.fixture
def expansions(monkeypatch):
    """A counter of the terms unfolded from now on."""
    count = [0]
    unfold = DerivTerm.unfold

    def counted(term):
        if term._unfolded is None:
            count[0] += 1
        return unfold(term)

    monkeypatch.setattr(DerivTerm, "unfold", counted)
    return count


#: ``cut [n1,n1]`` over a logical axiom on an unbounded sentence: rank 3
SHARED_CUT = """\
n1 logax (seq (ex x (in x {})) (all x (notin x {}))) main=(ex x (in x {}))
n2 cut [n1,n1] (seq (ex x (in x {})) (all x (notin x {}))) formula=(ex x (in x {}))
"""

#: that script, and its tree copy with the premise written out twice
DAG_AND_TREE = pytest.mark.parametrize(
    "text,shared", [(SHARED_CUT, True), (tree_copy(SHARED_CUT), False)], ids=["dag", "tree"])


class TestSharedPremises:
    """A premise used twice at one wanted signature is one term."""

    @DAG_AND_TREE
    def test_a_cut_on_one_script_node_has_one_premise_term(self, text, shared):
        d = embed_checked(text, 3)
        v = cut_on(d, parse_formula("(ex x (in x {}))"))
        assert (v.left is v.right) is shared
        once = cut_on(E(d), v.cut_formula)  # depth 1 below rank 2: the cut survives
        assert (once.left is once.right) is shared

    @DAG_AND_TREE
    def test_the_round_that_eliminates_the_cut_lowers_a_shared_premise_once(
            self, monkeypatch, text, shared):
        reductions = []

        class Recorded(Red):
            def __init__(self, C, d0, d1):
                reductions.append(d0 is d1)
                super().__init__(C, d0, d1)

        monkeypatch.setattr(derivations, "Red", Recorded)
        d = E(E(embed_checked(text, 3)))  # the second round takes the depth-1 cut
        rule_of(d)
        assert reductions[0] is shared

    def test_mapping_refits_a_shared_premise_once_per_wanted_signature(self):
        A = parse_formula("(ex x (in x {}))")
        p = leaf(M01, rank_=1)
        calls = []

        def wrap(q, hull):
            calls.append(q)
            return q

        both = Sig(EMPTY_HULL, from_nat(1), 1, frozenset({M01, A, negate(A)}))
        v = _map_premises(CutNode(both, A, p, p), both, wrap)
        assert v.left is v.right and calls == [p]
        # without A and its negation in the conclusion the two premises
        # want different sequents, so each is fitted on its own
        calls.clear()
        apart = Sig(EMPTY_HULL, from_nat(1), 1, frozenset({M01}))
        v = _map_premises(CutNode(apart, A, p, p), apart, wrap)
        assert calls == [p, p]
        assert (v.left.sig.seq, v.right.sig.seq) == (
            frozenset({M01, negate(A)}), frozenset({M01, A}))

    def test_a_dag_checks_as_its_tree_copy_with_fewer_expansions(self, expansions):
        counts = {"dag": 0, "tree": 0}
        for case in families.gen_elim(7, 20):
            reports = {}
            for kind, text in (("dag", case.text), ("tree", tree_copy(case.text))):
                before = expansions[0]
                script = parse_script(text)
                d = Emb(script.root, script.assignment, EMPTY_HULL)
                for _ in range(d.sig.rank):
                    d = elim_cuts(d)
                report = check_local(d, case.expect["depth"], sampler=default_sampler(
                    seed=case.expect["sampler_seed"]))
                reports[kind] = (report.lines, report.violations, report.notes)
                counts[kind] += expansions[0] - before
            assert reports["dag"] == reports["tree"]
        assert counts["dag"] <= 0.8 * counts["tree"], counts


class TestReduce:
    def test_bound_is_ordinal_sum(self):
        C = M00  # false
        d0 = leaf(negate(C), extra=[M01], bound=2)
        d1 = leaf(M01, extra=[C], bound=3)
        r = Red(C, d0, d1)
        assert r.sig.bound == add(d0.sig.bound, d1.sig.bound)
        assert r.sig.seq == frozenset({M01})

    def test_rejects_true_delta0(self):
        C = M01
        d0 = leaf(And(M00, negate(M00)), extra=[negate(C)], bound=1)
        with pytest.raises(ConstructionError, match="reduced bounded formula must be false"):
            Red(C, d0, leaf(M01, extra=[C], bound=1))

    def test_rejects_conjunctive(self):
        C = All("x", Mem(Var("x"), Name(ONE)))
        d0 = leaf(M01, extra=[negate(C)], bound=1, rank_=1)
        d1 = leaf(M01, extra=[C], bound=1, rank_=1)
        with pytest.raises(ConstructionError,
                           match="^reduced formula must decompose disjunctively$"):
            Red(C, d0, d1)

    def test_rejects_deep_formula(self):
        C = Ex("x", Mem(Var("x"), Name(ONE)))  # depth 1 > rank 0
        d0 = leaf(M01, extra=[negate(C)], bound=1)
        d1 = leaf(M01, extra=[C], bound=1)
        with pytest.raises(ConstructionError, match="^reduced formula deeper than the cut rank$"):
            Red(C, d0, d1)

    def test_rejects_rank_mismatch(self):
        C = M00
        d0 = leaf(negate(C), bound=1, rank_=1)
        d1 = leaf(M01, extra=[C], bound=1, rank_=0)
        with pytest.raises(ConstructionError,
                           match="^reduction inputs must share their cut rank$"):
            Red(C, d0, d1)


    def test_an_index_outside_the_hull_is_read_at_the_empty_set(self):
        # the component does not mention the abstract index, so the
        # inversion takes the premise at EMPTY, inside the hull
        C = Ex("x", M01)
        d0 = leaf(M01, extra=[negate(C)], bound=1, rank_=1)
        d1 = VeeNode(Sig(EMPTY_HULL, from_nat(2), 1, frozenset({C, M01})), C, PARAM,
                     leaf(M01, extra=[C], bound=1, rank_=1))
        r = Red(C, d0, d1)
        cut = rule_of(r)
        assert isinstance(cut, CutNode) and cut.sig == r.sig and cut.cut_formula == M01
        inv = cut.left.sub if isinstance(cut.left, Weak) else cut.left
        assert isinstance(inv, Inv) and inv.iota == EMPTY
        assert check_local(r, 3).passed

    def test_an_index_outside_the_hull_in_the_component_is_refused(self):
        C = Ex("x", Mem(ZERO_TERM, Var("x")))
        comp = Mem(ZERO_TERM, Name(PARAM))
        d0 = leaf(M01, extra=[negate(C)], bound=1, rank_=1)
        d1 = VeeNode(Sig(EMPTY_HULL, from_nat(2), 1, frozenset({C, M01})), C, PARAM,
                     leaf(M01, extra=[C, comp], bound=1, rank_=1))
        with pytest.raises(ConstructionError, match="reduction index escapes the hull"):
            rule_of(Red(C, d0, d1))


class TestDrop:
    FALSE_BEX = BEx("x", Name(ONE), Mem(Var("x"), ZERO_TERM))
    FALSE_OR = Or(M00, M00)

    def test_a_false_bounded_existential_is_dropped_with_its_component(self):
        C = self.FALSE_BEX
        d = VeeNode(Sig(EMPTY_HULL, from_nat(2), 0, frozenset({C, M01})), C, EMPTY,
                    leaf(M01, extra=[C, M00], bound=1))
        dropped = Drop(d, C)
        v = rule_of(dropped)
        assert isinstance(v, TrueLeaf) and v.main == M01
        assert v.sig == dropped.sig and v.sig.seq == frozenset({M01})
        assert check_local(dropped, 2).passed

    @pytest.mark.parametrize("C,d", [
        (FALSE_BEX, leaf(FALSE_BEX, extra=[M01])),
        (FALSE_OR, VeeNode(Sig(EMPTY_HULL, from_nat(2), 0, frozenset({FALSE_OR, M01})),
                           FALSE_OR, 0, leaf(M01, extra=[FALSE_OR, M00], bound=1))),
    ], ids=["leaf-on-bex", "vee-on-or"])
    def test_a_false_bounded_sentence_heads_no_rule(self, C, d):
        with pytest.raises(ConstructionError, match="a false bounded sentence heads no rule"):
            rule_of(Drop(d, C))


#: a hull that holds the abstract parameter PARAM
IN_PARAM = hull_extend(EMPTY_HULL, PARAM)
M0P = Mem(ZERO_TERM, Name(PARAM))
OPAQUE = Or(Ad(ZERO_TERM), M00)  # bounded, with an opaque atom
LOGAX_M00 = ProofNode("logax", seq(M00, negate(M00)), main=M00)


class TestConstructionMessages:
    """Each precondition of a defined notation that no test above names,
    refused when the term is built or unfolded."""

    CASES = [
        ("tautology derivations need sentences",
         lambda: Taut(Mem(Var("x"), ZERO_TERM), frozenset(), EMPTY_HULL)),
        # an induction formula true at every set has no minimal failure
        ("no minimal failure below a false instance",
         lambda: derivations._minimal_failure(ONE, All("x", M01))),
        ("weakening must not shrink the hull",
         lambda: Weak(leaf(M01, hull=IN_PARAM), Sig(EMPTY_HULL, ZERO, 0, seq(M01)))),
        ("weakening only adds sequent members",
         lambda: Weak(leaf(M01, extra=[M00]), Sig(EMPTY_HULL, ZERO, 0, seq(M01)))),
        ("added formulas must live in the new hull",
         lambda: Weak(leaf(M01), Sig(EMPTY_HULL, ZERO, 0, seq(M01, M0P)))),
        ("axiom embedding produced a false leaf",
         lambda: derivations._true_leaf(M00, seq(M00), EMPTY_HULL, ZERO)),
        ("cannot embed rule 'frob'",
         lambda: rule_of(Emb(ProofNode("frob", seq(M00), (LOGAX_M00,), main=M00), {}, EMPTY_HULL))),
        ("only bounded members can be dropped",
         lambda: Drop(leaf(M01), Ex("x", M01))),
        ("only false members can be dropped", lambda: Drop(leaf(M01), M01)),
        ("reduction inputs must share their hull",
         lambda: Red(M00, leaf(negate(M00), hull=IN_PARAM), leaf(M01, extra=[M00]))),
        ("cannot certify a bounded formula with opaque or abstract parts as false",
         lambda: Red(OPAQUE, leaf(negate(OPAQUE)), leaf(M01, extra=[OPAQUE]))),
        ("cut elimination needs positive rank", lambda: E(leaf(M01))),
    ]

    @pytest.mark.parametrize("message, build", CASES, ids=[m for m, _ in CASES])
    def test_each_precondition_is_refused_by_name(self, message, build):
        with pytest.raises(ConstructionError) as raised:
            build()
        assert str(raised.value) == message


OR01 = Or(M00, M01)


class TestNodeMessages:
    """A node asked for a premise it does not have, and a term copied as
    a node that is none.  Only Python reaches these: ``check_local`` and
    ``eval_cutfree`` ask a node only for the indices it names, and
    ``rule_of`` gives ``_map_premises`` nodes of the kinds it copies."""

    CASES = [
        (IndexError, "rule true-leaf has no premise 0", lambda: leaf(M01).premise(0)),
        (IndexError, "rule true-leaf has no premise 1", lambda: leaf(M01).wants(leaf(M01).sig, 1)),
        (IndexError, "this disjunctive inference used index 1",
         lambda: VeeNode(leaf(OR01).sig, OR01, 1, leaf(M01, extra=[OR01])).premise(0)),
        (IndexError, "cut premises are 0 and 1",
         lambda: CutNode(leaf(M01).sig, M00, leaf(M01, extra=[negate(M00)]),
                         leaf(M01, extra=[M00])).premise(2)),
        (IndexError, "reflection premises are 0 and 1",
         lambda: RefNode(leaf(M01).sig, M01, ZERO_TERM, M01, leaf(M01), leaf(M01)).premise(2)),
        (TypeError, "not an explicit node: <proofkit.derivations.DerivTerm object",
         lambda: _map_premises(DerivTerm(), leaf(M01).sig)),
    ]

    @pytest.mark.parametrize("error, message, build", CASES, ids=[m for _, m, _ in CASES])
    def test_each_message_is_raised_by_name(self, error, message, build):
        with pytest.raises(error) as raised:
            build()
        assert str(raised.value).startswith(message)


class TestElimCuts:
    def test_applies_omega_exp(self):
        e = next(x for x in build_corpus() if x.name == "one-cut")
        d = Emb(e.script.root, {}, EMPTY_HULL)
        once = elim_cuts(d)
        assert once.sig.bound == omega_exp(d.sig.bound)
        assert once.sig.rank == d.sig.rank - 1

    def test_full_elimination_identity(self):
        e = next(x for x in build_corpus() if x.name == "one-cut")
        d = Emb(e.script.root, {}, EMPTY_HULL)
        m = d.sig.rank
        for _ in range(m):
            d = elim_cuts(d)
        assert d.sig.rank == 0
        expected = times_nat(OMEGA, m)
        for _ in range(m):
            expected = omega_exp(expected)
        assert d.sig.bound == expected

    def test_a_rank_zero_input_is_refused(self):
        with pytest.raises(ConstructionError, match="^cut elimination needs positive rank$"):
            elim_cuts(leaf(M01))

    def test_cutfree_input_keeps_denotation(self):
        d = leaf(M01, bound=1, rank_=1)
        out = E(d)
        assert out.sig.bound == omega_exp(from_nat(1))
        v = rule_of(out)
        assert isinstance(v, TrueLeaf)
        assert v.main == M01

    def test_no_deep_cuts_after_round(self):
        e = next(x for x in build_corpus() if x.name == "one-cut")
        d = elim_cuts(Emb(e.script.root, {}, EMPTY_HULL))
        m = d.sig.rank

        def walk(t, fuel):
            v = rule_of(t)
            if isinstance(v, CutNode):
                from proofkit.formulas import depth

                assert depth(v.cut_formula) < m
            if fuel == 0:
                return
            for i in v.indices():
                if isinstance(v, WedgeNode) and not v.indices():
                    continue
                walk(v.premise(i), fuel - 1)

        walk(d, 3)


class OneRound(DerivTerm):
    """One round of cut elimination per term, as ``E`` was before it
    carried a round count: the reference that the collapsed term is
    checked against."""

    def __init__(self, sub):
        super().__init__()
        if sub.sig.rank < 1:
            raise ConstructionError("cut elimination needs positive rank")
        self.sub = sub
        old = sub.sig
        self.sig = Sig(old.hull, omega_exp(old.bound), old.rank - 1, old.seq)

    def _expand(self):
        v, sig = rule_of(self.sub), self.sig
        if isinstance(v, CutNode) and depth(v.cut_formula) == sig.rank:
            C = v.cut_formula
            left = OneRound(v.left)
            right = left if v.right is v.left else OneRound(v.right)
            red = Red(negate(C), right, left) if conjunctive(C) else Red(C, left, right)
            return _map_premises(rule_of(red), sig)
        return _map_premises(v, sig, lambda p, hull: OneRound(p))


def said_of(d, k, seed):
    """What the local check at depth k and the soundness evaluation say
    of d, an error included."""
    report = check_local(d, k, sampler=default_sampler(seed=seed))
    try:
        ev = eval_cutfree(d, 8)
        ev = (ev.status, ev.reason)
    except (ConstructionError, EvaluationError) as ex:
        ev = (type(ex).__name__, str(ex))
    return d.sig, report.lines, report.violations, report.notes, ev


def round_inputs(source):
    """(script text, check depth, sampler seed) of each input of a source."""
    if source == "corpus":
        return [(render_script(e.script), 5, 0) for e in build_corpus()]
    if source == "bounded-shapes":
        return [(t, 5, 0) for t in (OR_SCRIPT, AND_SCRIPT, BEX_SCRIPT, BALL_SCRIPT)]
    return [(c.text, c.expect.get("depth", 3), c.expect.get("sampler_seed", 0))
            for c in families.GENERATORS[source](7, 20)]


class TestRounds:
    """E of an E is one term of both rounds, and denotes what the chain
    of one-round terms does."""

    def test_an_e_of_an_e_is_one_term(self):
        d = embed_checked(SHARED_CUT, 3)
        twice = E(E(d))
        assert twice.sub is d and twice.rounds == 2
        assert twice.sig == OneRound(OneRound(d)).sig
        assert E(twice).rounds == 3 and E(twice).sub is d

    @pytest.mark.parametrize("source", ["corpus", "bounded-shapes", "elim", "sound"])
    def test_the_collapsed_term_says_what_the_chain_says_at_every_round_count(self, source):
        for text, k, seed in round_inputs(source):
            script = parse_script(text)
            assert check_proof(script.root).ok
            d = Emb(script.root, script.assignment, EMPTY_HULL)
            chain = collapsed = d
            for rounds in range(d.sig.rank + 1):
                if rounds:
                    chain, collapsed = OneRound(chain), E(d, rounds)
                assert said_of(collapsed, k, seed) == said_of(chain, k, seed), (text, rounds)

    def test_the_pass_through_rounds_of_a_cut_chain_root_cost_one_expansion(
            self, monkeypatch):
        expanded = []
        expand = E._expand

        def recorded(term):
            expanded.append(term)
            return expand(term)

        monkeypatch.setattr(E, "_expand", recorded)
        d = embed_checked(cut_chain(6), 6)
        root = d
        for _ in range(6):
            root = elim_cuts(root)
        rule_of(root)
        # the root's cut, on a bounded formula, is taken in the last round
        assert [t.rounds for t in expanded if t.sub is d] == [6]
        assert check_local(root, 3).passed

    @pytest.mark.parametrize("rounds", [3, 6], ids=["cut-kept", "cut-taken"])
    def test_unfolding_a_node_lowers_each_premise_in_one_term(self, monkeypatch, rounds):
        d = embed_checked(cut_chain(6), 6)  # a rank-6 cut on a depth-0 formula
        v, term = rule_of(d), E(d, rounds)
        built = []
        init = E.__init__

        def recorded(t, sub, rounds=1):
            init(t, sub, rounds)
            built.append(t)

        monkeypatch.setattr(E, "__init__", recorded)
        rule_of(term)
        # E(p, j) of each premise p, for the j rounds that lie above the
        # root's cut or end with the round that takes it
        assert [(t.sub, t.rounds) for t in built] == [(v.left, rounds), (v.right, rounds)]


class TestDescent:
    def test_strict_descent_everywhere(self):
        for e, d in corpus_terms():
            self._walk(d, 3)

    def _walk(self, t, fuel):
        v = rule_of(t)
        if fuel == 0:
            return
        if isinstance(v, WedgeNode):
            try:
                idx = v.indices()
            except Exception:
                return
        else:
            idx = v.indices()
        for i in idx:
            p = v.premise(i)
            assert cmp(p.sig.bound, t.sig.bound) == LESS
            assert p.sig.rank == t.sig.rank
            self._walk(p, fuel - 1)


class TestNoCycles:
    """A closure that a node stores holds a term's parts, never the term,
    so no term is on a reference cycle, and reference counting frees a
    derivation as soon as its last user drops it."""

    def test_no_term_is_left_to_the_cyclic_collector(self):
        inputs = [(e.script, e.concrete and not e.has_ref) for e in build_corpus()]
        for workload in ("check", "elim", "sound"):
            for case in families.GENERATORS[workload](1, 6):
                script = parse_script(case.text)
                if check_proof(script.root).ok:
                    inputs.append((script, False))
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for script, evaluable in inputs:
                d = Emb(script.root, script.assignment, EMPTY_HULL)
                for _ in range(d.sig.rank):
                    d = elim_cuts(d)
                check_local(d, 3, sampler=default_sampler(seed=0))
                if evaluable:
                    eval_cutfree(d, 8)
            del d
            gc.collect()
            left = sorted(type(o).__name__ for o in gc.garbage
                          if isinstance(o, (DerivTerm, ProofNode)))
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert len(inputs) > 30 and left == []
