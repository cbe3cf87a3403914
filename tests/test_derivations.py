"""Derivation terms: lazy expansion, embedding signatures, weakening,
reduction, and predicative cut elimination."""

import warnings

import pytest

from proofkit.corpus import ONE, TWO, build_corpus
from proofkit.derivations import (
    ConstructionError,
    CutNode,
    Emb,
    Fund,
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
    _map_premises,
    rule_of,
)
from proofkit.finitary import ax_foundation
from proofkit.formulas import (
    BAll,
    Ex,
    Mem,
    Name,
    NotMem,
    Or,
    Var,
    ZERO_TERM,
    negate,
    seq,
)
from proofkit.ordinals import (
    LESS,
    OMEGA,
    WPow,
    ZERO,
    add,
    cmp,
    from_nat,
    omega_exp,
    times_nat,
)
from proofkit.ordinals import Sub, cnf_from_int
from proofkit.universe import EMPTY, EMPTY_HULL, Abstract, hull_extend, rank

M00 = Mem(ZERO_TERM, ZERO_TERM)
M01 = Mem(ZERO_TERM, Name(ONE))  # true


def leaf(main, extra=(), bound=0, hull=EMPTY_HULL, rank_=0):
    s = frozenset({main}) | frozenset(extra)
    return TrueLeaf(Sig(hull, from_nat(bound), rank_, s), main)


PARAM = Abstract("p", Sub(cnf_from_int(1)))


def sample_indices(v):
    """The indices of v's premises, and for a conjunction two small sets
    it admits."""
    if isinstance(v, WedgeNode):
        return [i for i in (0, 1, EMPTY, ONE) if v.index_set.contains(i)]
    return v.indices()


def corpus_terms():
    for e in build_corpus():
        yield e, Emb(e.script.root, e.script.assignment, EMPTY_HULL)


class TestEmbeddingSignature:
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

    def test_fund_requires_single_free_var(self):
        inst = ax_foundation("x", "z", Mem(Var("x"), Var("y")))
        with pytest.raises(ConstructionError):
            Fund(TWO, inst.left, inst.right, frozenset(), EMPTY_HULL)

    def test_fund_reads_the_instance(self):
        # the bounded universal is the progress failure's, bound variable
        # included
        inst = ax_foundation("x", "z", NotMem(Var("x"), Var("x")))
        f = Fund(TWO, inst.left, inst.right, frozenset(), EMPTY_HULL)
        assert f.all_in_a == BAll("z", Name(TWO), NotMem(Var("z"), Var("z")))
        v = rule_of(f)
        assert isinstance(v, WedgeNode) and v.sig == f.sig
        assert rule_of(v.premise(ONE)).main == NotMem(Name(ONE), Name(ONE))


class TestWeaken:
    def test_adds_members(self):
        d = leaf(M01)
        w = fit(d, EMPTY_HULL, 0, frozenset({M01, M00}))
        assert w.sig.seq == frozenset({M01, M00})
        assert isinstance(rule_of(w), TrueLeaf)

    def test_raises_bound_and_rank(self):
        d = leaf(M01)
        w = fit(d, EMPTY_HULL, 3, d.sig.seq, bound=OMEGA)
        assert w.sig.bound == OMEGA
        assert w.sig.rank == 3

    def test_rejects_lower_bound(self):
        d = leaf(M01, bound=5)
        with pytest.raises(ConstructionError):
            fit(d, EMPTY_HULL, 0, d.sig.seq, bound=ZERO)

    def test_rejects_lower_rank(self):
        d = leaf(M01, rank_=2)
        with pytest.raises(ConstructionError):
            fit(d, EMPTY_HULL, 1, d.sig.seq)

    def test_unchanged_signature_returns_the_term(self):
        d = leaf(M01, bound=2)
        assert fit(d, EMPTY_HULL, 0, d.sig.seq) is d
        assert fit(d, EMPTY_HULL, 0, frozenset({M01}), bound=from_nat(2)) is d
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
            one = fit(w, sig.hull, sig.rank, sig.seq, bound=sig.bound)
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
        w = fit(d, P, 2, seq2, bound=from_nat(3))
        for hull, rank_, seq_, bound in [
            (EMPTY_HULL, 2, seq2, 3),  # shrinks the hull
            (P, 1, seq2, 3),  # lowers the rank
            (P, 2, seq2, 1),  # lowers the bound
            (P, 2, d.sig.seq, 3),  # drops a member
        ]:
            with pytest.raises(ConstructionError):
                fit(w, hull, rank_, seq_, bound=from_nat(bound))
            fit(d, hull, rank_, seq_, bound=from_nat(bound))


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
        d0 = leaf(M00 and negate(M00), extra=[negate(C)], bound=1)
        with pytest.raises(ConstructionError):
            Red(C, d0, leaf(M01, extra=[C], bound=1))

    def test_rejects_conjunctive(self):
        from proofkit.formulas import All

        C = All("x", Mem(Var("x"), Name(ONE)))
        d0 = leaf(M01, extra=[negate(C)], bound=1, rank_=1)
        d1 = leaf(M01, extra=[C], bound=1, rank_=1)
        with pytest.raises(ConstructionError):
            Red(C, d0, d1)

    def test_rejects_deep_formula(self):
        C = Ex("x", Mem(Var("x"), Name(ONE)))  # depth 1 > rank 0
        d0 = leaf(M01, extra=[negate(C)], bound=1)
        d1 = leaf(M01, extra=[C], bound=1)
        with pytest.raises(ConstructionError):
            Red(C, d0, d1)

    def test_rejects_rank_mismatch(self):
        C = M00
        d0 = leaf(negate(C), bound=1, rank_=1)
        d1 = leaf(M01, extra=[C], bound=1, rank_=0)
        with pytest.raises(ConstructionError):
            Red(C, d0, d1)


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

    def test_noop_at_rank_zero(self):
        d = leaf(M01)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = elim_cuts(d)
        assert out is d
        assert caught

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
