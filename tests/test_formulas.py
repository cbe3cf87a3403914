"""Sentence language: negation, classification, depth, support,
relativization, decomposition, and the text syntax."""

import random
from dataclasses import fields

import pytest

from proofkit import formulas
from proofkit.formulas import (
    Ad,
    All,
    And,
    BAll,
    BEx,
    Ex,
    JBounded,
    JEmpty,
    JTwo,
    JUniverse,
    Mem,
    Name,
    NotAd,
    NotMem,
    Or,
    Var,
    ZERO_TERM,
    classify,
    close,
    component,
    decompose,
    depth,
    equals,
    eval_formula_bounded,
    free_vars,
    is_delta0,
    is_sentence,
    member_pi,
    negate,
    parse_formula,
    parse_sequent,
    reflection_guard,
    relativize,
    render_formula,
    render_sequent,
    seq,
    subst,
    support,
)
from proofkit.universe import Concrete, EMPTY, EvaluationError

ONE = Concrete(frozenset({EMPTY}))
TWO = Concrete(frozenset({EMPTY, ONE}))


def random_formula(rng, budget, vars_=()):
    """Random negation-normal formula over 0, {0}, and bound variables."""
    terms = [ZERO_TERM, Name(ONE)] + [Var(v) for v in vars_]
    t = lambda: rng.choice(terms)
    if budget == 0:
        return rng.choice(
            [Mem(t(), t()), NotMem(t(), t()), Ad(t()), NotAd(t())]
        )
    kind = rng.randrange(6)
    if kind == 0:
        return Or(random_formula(rng, budget - 1, vars_),
                  random_formula(rng, budget - 1, vars_))
    if kind == 1:
        return And(random_formula(rng, budget - 1, vars_),
                   random_formula(rng, budget - 1, vars_))
    v = "v%d" % len(vars_)
    inner = random_formula(rng, budget - 1, vars_ + (v,))
    if kind == 2:
        return BEx(v, t(), inner)
    if kind == 3:
        return BAll(v, t(), inner)
    if kind == 4:
        return Ex(v, inner)
    return All(v, inner)


# reference implementations: the recursive definitions that the
# one-pass classification and depth replaced


def ref_member_sigma(A, i):
    if i <= 0 or is_delta0(A):
        return is_delta0(A)
    if isinstance(A, (Or, And)):
        return ref_member_sigma(A.left, i) and ref_member_sigma(A.right, i)
    if isinstance(A, (BEx, BAll, Ex)):
        return ref_member_sigma(A.body, i)
    return ref_member_pi(A, i - 1)


def ref_member_pi(A, i):
    if i <= 0 or is_delta0(A):
        return is_delta0(A)
    if isinstance(A, (Or, And)):
        return ref_member_pi(A.left, i) and ref_member_pi(A.right, i)
    if isinstance(A, (BEx, BAll, All)):
        return ref_member_pi(A.body, i)
    return ref_member_sigma(A, i - 1)


def ref_classify(A):
    if is_delta0(A):
        return "Delta0"
    i = 1
    while True:
        s, p = ref_member_sigma(A, i), ref_member_pi(A, i)
        if s and p:
            return ("Delta", i)
        if s:
            return ("Sigma", i)
        if p:
            return ("Pi", i)
        i += 1


def ref_depth(A):
    if is_delta0(A):
        return 0
    if isinstance(A, (Or, And)):
        return max(ref_depth(A.left), ref_depth(A.right)) + 1
    return ref_depth(subst(A.body, A.var, ZERO_TERM)) + 1


def ref_negate(A):
    """negate without the stored twin: one new object per call."""
    if isinstance(A, Mem):
        return NotMem(A.left, A.right)
    if isinstance(A, NotMem):
        return Mem(A.left, A.right)
    if isinstance(A, Ad):
        return NotAd(A.term)
    if isinstance(A, NotAd):
        return Ad(A.term)
    if isinstance(A, Or):
        return And(ref_negate(A.left), ref_negate(A.right))
    if isinstance(A, And):
        return Or(ref_negate(A.left), ref_negate(A.right))
    if isinstance(A, BEx):
        return BAll(A.var, A.bound, ref_negate(A.body))
    if isinstance(A, BAll):
        return BEx(A.var, A.bound, ref_negate(A.body))
    if isinstance(A, Ex):
        return All(A.var, ref_negate(A.body))
    if isinstance(A, All):
        return Ex(A.var, ref_negate(A.body))
    raise TypeError("not a formula: %r" % (A,))


def ref_component(A, iota):
    """component without the stored instances: a substitution per call."""
    if isinstance(A, (Or, And)):
        return A.left if iota == 0 else A.right
    return subst(A.body, A.var, Name(iota))


def subformulas(A):
    out, todo = [], [A]
    while todo:
        B = todo.pop()
        out.append(B)
        if isinstance(B, (Or, And)):
            todo += [B.left, B.right]
        elif isinstance(B, (BEx, BAll, Ex, All)):
            todo.append(B.body)
    return out


FORMULA_CLASSES = (Mem, NotMem, Ad, NotAd, Or, And, BEx, BAll, Ex, All)


def _as_tuples(x):
    """A formula or term as nested tuples of its fields, all the way down."""
    if isinstance(x, (Var, Name, *FORMULA_CLASSES)):
        return tuple(_as_tuples(getattr(x, f.name)) for f in fields(x))
    return x


def ref_hash(A):
    """The hash of A's field tuple, with no stored hash taking part."""
    return hash(_as_tuples(A))


def _terms(A):
    if isinstance(A, (Mem, NotMem)):
        return [A.left, A.right]
    if isinstance(A, (Ad, NotAd)):
        return [A.term]
    if isinstance(A, (BEx, BAll)):
        return [A.bound]
    return []


def ref_is_delta0(A):
    return not any(isinstance(B, (Ex, All)) for B in subformulas(A))


def ref_support(A):
    return frozenset(t.value for B in subformulas(A) for t in _terms(B)
                     if isinstance(t, Name))


def ref_free_vars(A):
    names = {t.name for t in _terms(A) if isinstance(t, Var)}
    if isinstance(A, (Or, And)):
        names |= ref_free_vars(A.left) | ref_free_vars(A.right)
    elif isinstance(A, (BEx, BAll, Ex, All)):
        names |= ref_free_vars(A.body) - {A.var}
    return frozenset(names)


def reference_sample(seed, count=10_000):
    rng = random.Random(seed)
    return [random_formula(rng, rng.randrange(6)) for _ in range(count)]


class TestNegate:
    def test_atoms(self):
        a = Mem(ZERO_TERM, Name(ONE))
        assert negate(a) == NotMem(ZERO_TERM, Name(ONE))
        assert negate(Ad(ZERO_TERM)) == NotAd(ZERO_TERM)

    def test_de_morgan(self):
        b = Mem(Var("x"), Name(ONE))
        assert negate(BAll("x", Name(TWO), b)) == BEx("x", Name(TWO), negate(b))
        assert negate(All("x", b)) == Ex("x", negate(b))

    def test_involution_random(self):
        rng = random.Random(0)
        for _ in range(500):
            A = random_formula(rng, 4)
            assert negate(negate(A)) == A

    def test_depth_blind_to_polarity(self):
        rng = random.Random(1)
        for _ in range(300):
            A = random_formula(rng, 4)
            assert depth(A) == depth(negate(A))

    def test_dual_classification(self):
        rng = random.Random(2)
        dual = {"Sigma": "Pi", "Pi": "Sigma", "Delta": "Delta"}
        for _ in range(300):
            A = random_formula(rng, 4)
            c = classify(A)
            cn = classify(negate(A))
            if c == "Delta0":
                assert cn == "Delta0"
            else:
                assert cn == (dual[c[0]], c[1])


class TestStoredResults:
    """negate and component store their results on the formula object."""

    INDICES = (EMPTY, ONE, TWO, Concrete(frozenset({ONE})))

    def test_negate_agrees_with_reference(self):
        rng = random.Random(11)
        for _ in range(2000):
            for B in subformulas(random_formula(rng, rng.randrange(6))):
                first = negate(B)
                assert first == ref_negate(B)
                assert negate(B) is first
                assert negate(first) is B

    def test_component_agrees_with_reference(self):
        rng = random.Random(12)
        for _ in range(2000):
            for B in subformulas(random_formula(rng, rng.randrange(6))):
                if isinstance(B, (Or, And)):
                    iotas = [0, 1]
                elif isinstance(B, (BEx, BAll, Ex, All)):
                    iotas = [rng.choice(self.INDICES) for _ in range(3)]
                else:
                    continue
                for iota in iotas:
                    first = component(B, iota)
                    assert first == ref_component(B, iota)
                    assert component(B, iota) is first

    def test_an_equal_index_finds_the_stored_instance(self):
        A = Ex("x", Mem(Var("x"), Name(TWO)))
        first = component(A, Concrete(frozenset({EMPTY})))
        assert component(A, ONE) is first
        assert first == Mem(Name(ONE), Name(TWO))

    def test_failing_substitution_is_not_stored(self):
        # capture: y is free under the binder on x, which would take it
        A = All("x", Mem(Var("y"), Var("x")))
        for _ in range(2):
            with pytest.raises(ValueError, match="captured"):
                subst(A, "y", Var("x"))
        broken = Ex("x", None)
        for _ in range(2):
            with pytest.raises(TypeError, match="not a formula"):
                component(broken, ONE)
        assert broken._instances == {}

    def test_kept_attributes_agree_with_reference(self):
        rng = random.Random(14)
        for _ in range(2000):
            A = random_formula(rng, rng.randrange(6), ("x",))
            for B in subformulas(A):
                for _ in range(2):  # computed and kept, then read back
                    assert hash(B) == ref_hash(B)
                    assert depth(B) == ref_depth(B)
                    assert is_delta0(B) == ref_is_delta0(B)
                    assert support(B) == ref_support(B)
                    assert free_vars(B) == ref_free_vars(B)
                assert support(B) is support(B)
                assert free_vars(B) is free_vars(B)
            G = seq(A, negate(A))
            assert support(G) == ref_support(A) | ref_support(negate(A))
            assert free_vars(G) == ref_free_vars(A) | ref_free_vars(negate(A))

    def test_stores_are_not_fields(self):
        rng = random.Random(13)
        for _ in range(300):
            A = random_formula(rng, 4, ("x",))
            fresh_copy = parse_formula(render_formula(A))
            negate(A)
            for B in subformulas(A):
                if isinstance(B, (BEx, BAll, Ex, All)):
                    component(B, ONE)
                hash(B), depth(B), is_delta0(B), support(B), free_vars(B)
            assert A == fresh_copy and hash(A) == hash(fresh_copy)
            assert repr(A) == repr(fresh_copy)

    @pytest.mark.parametrize("A, names", [
        (Mem(ZERO_TERM, Name(ONE)), ["left", "right"]),
        (NotMem(Var("x"), Name(ONE)), ["left", "right"]),
        (Ad(Var("x")), ["term"]),
        (NotAd(ZERO_TERM), ["term"]),
        (Or(Ad(ZERO_TERM), NotAd(ZERO_TERM)), ["left", "right"]),
        (And(Ad(ZERO_TERM), NotAd(ZERO_TERM)), ["left", "right"]),
        (BEx("x", Name(TWO), Ad(Var("x"))), ["var", "bound", "body"]),
        (BAll("x", Name(TWO), Ad(Var("x"))), ["var", "bound", "body"]),
        (Ex("x", Ad(Var("x"))), ["var", "body"]),
        (All("x", Ad(Var("x"))), ["var", "body"]),
    ])
    def test_hash_is_the_hash_of_the_fields(self, A, names):
        negate(A)
        if names[-1] == "body":
            component(A, ONE)
        depth(A), is_delta0(A), support(A), free_vars(A)
        assert [f.name for f in fields(A)] == names
        assert hash(A) == hash(tuple(getattr(A, n) for n in names))
        assert A._hash == hash(A)

    @pytest.mark.parametrize("t, names", [
        (Var("x"), ["name"]),
        (Name(ONE), ["value"]),
        (ZERO_TERM, ["value"]),
    ])
    def test_term_hash_is_the_hash_of_the_field(self, t, names):
        assert [f.name for f in fields(t)] == names
        assert hash(t) == hash(tuple(getattr(t, n) for n in names))
        assert t._hash == hash(t)


class TestClassify:
    def test_bounded_is_delta0(self):
        A = BAll("x", Name(TWO), Mem(Var("x"), Name(ONE)))
        assert classify(A) == "Delta0"
        assert is_delta0(A)

    def test_pi2(self):
        A = All("x", Ex("y", Mem(Var("x"), Var("y"))))
        assert classify(A) == ("Pi", 2)

    def test_sigma1(self):
        A = Or(Mem(ZERO_TERM, Name(ONE)), Ex("x", Mem(Var("x"), Name(ONE))))
        assert classify(A) == ("Sigma", 1)

    def test_bounded_quantifier_preserves_class(self):
        inner = Ex("y", Mem(Var("x"), Var("y")))
        assert classify(BAll("x", Name(TWO), inner)) == ("Sigma", 1)

    def test_agrees_with_reference(self):
        for A in reference_sample(5):
            assert classify(A) == ref_classify(A)
            for i in range(-1, 7):
                assert member_pi(A, i) == ref_member_pi(A, i)
                # Sigma_i membership, read through the dual
                assert member_pi(negate(A), i) == ref_member_sigma(A, i)


class TestDepth:
    def test_delta0_is_zero(self):
        assert depth(BAll("x", Name(TWO), Mem(Var("x"), Name(ONE)))) == 0

    def test_unbounded_exists(self):
        assert depth(Ex("x", Mem(Var("x"), Name(ONE)))) == 1

    def test_binary_connective(self):
        A = Or(Ex("x", Mem(Var("x"), Name(ONE))), Ex("y", Mem(Var("y"), Name(TWO))))
        assert depth(A) == 2

    def test_bounded_over_unbounded(self):
        A = BAll("x", Name(TWO), Ex("y", Mem(Var("x"), Var("y"))))
        assert depth(A) == 2

    def test_agrees_with_reference(self):
        for A in reference_sample(6):
            assert depth(A) == ref_depth(A)


class TestSupport:
    def test_atoms(self):
        A = Mem(Name(ONE), Name(TWO))
        assert support(A) == frozenset({ONE, TWO})

    def test_no_names(self):
        assert support(Ex("x", Mem(Var("x"), Var("x")))) == frozenset()

    def test_sequent_union(self):
        G = seq(Mem(Name(ONE), Name(ONE)), Mem(Name(TWO), Name(TWO)))
        assert support(G) == frozenset({ONE, TWO})

    def test_relativize_adds_bound(self):
        A = Ex("x", Mem(Var("x"), Name(ONE)))
        assert support(relativize(A, Name(TWO))) == frozenset({ONE, TWO})


class TestFresh:
    def test_numbered_after_the_base(self):
        assert formulas.fresh("z", {"x"}) == "z"
        assert formulas.fresh("z", {"z", "z0", "z2"}) == "z1"

    def test_reflection_guard_avoids_bound_names(self):
        # the reflected formula binds z, so the guard's admissible set is z0
        A = parse_formula("(all u (ex z (all w (in w z))))")
        guard = reflection_guard(A, ZERO_TERM)
        assert guard.var == "z0"
        assert "(ball z z " not in render_formula(guard)


class TestRelativize:
    def test_bounds_unbounded(self):
        A = Ex("x", Mem(Var("x"), Name(ONE)))
        assert relativize(A, Var("c")) == BEx("x", Var("c"), Mem(Var("x"), Name(ONE)))

    def test_leaves_delta0(self):
        A = Mem(ZERO_TERM, Name(ONE))
        assert relativize(A, Var("c")) == A

    def test_makes_delta0(self):
        A = All("x", Ex("y", All("z", Mem(Var("x"), Var("z")))))
        assert classify(relativize(A, Name(TWO))) == "Delta0"


class TestDecompose:
    def test_false_delta0(self):
        d = decompose(Mem(ZERO_TERM, ZERO_TERM))
        assert d.polarity == "disjunctive"
        assert isinstance(d.index_set, JEmpty)

    def test_true_delta0(self):
        d = decompose(Mem(ZERO_TERM, Name(ONE)))
        assert d.polarity == "conjunctive"
        assert isinstance(d.index_set, JEmpty)

    def test_true_delta0_compound(self):
        m = Mem(ZERO_TERM, ZERO_TERM)
        d = decompose(Or(m, negate(m)))
        assert d.polarity == "conjunctive"
        assert isinstance(d.index_set, JEmpty)

    def test_connectives(self):
        A = Or(Ex("x", Mem(Var("x"), Name(ONE))), Ad(ZERO_TERM))
        d = decompose(A)
        assert d.polarity == "disjunctive"
        assert isinstance(d.index_set, JTwo)

    def test_bounded(self):
        A = BEx("x", Name(TWO), Ex("y", Mem(Var("x"), Var("y"))))
        d = decompose(A)
        assert d.polarity == "disjunctive"
        assert d.index_set == JBounded(TWO)
        assert d.instantiate(EMPTY) == Ex("y", Mem(Name(EMPTY), Var("y")))

    def test_unbounded(self):
        A = All("x", Ex("y", Mem(Var("x"), Var("y"))))
        d = decompose(A)
        assert d.polarity == "conjunctive"
        assert isinstance(d.index_set, JUniverse)

    def test_opaque_delta0_fails(self):
        with pytest.raises(EvaluationError):
            decompose(Ad(ZERO_TERM))

    def test_negation_flips_polarity(self):
        rng = random.Random(3)
        flip = {"disjunctive": "conjunctive", "conjunctive": "disjunctive"}
        for _ in range(300):
            A = random_formula(rng, 4)
            if is_delta0(A):
                continue
            d, dn = decompose(A), decompose(negate(A))
            assert dn.polarity == flip[d.polarity]
            assert type(dn.index_set) is type(d.index_set)


class TestEval:
    def test_atoms(self):
        assert eval_formula_bounded(Mem(ZERO_TERM, Name(ONE)))
        assert not eval_formula_bounded(Mem(ZERO_TERM, ZERO_TERM))

    def test_bounded_quantifiers(self):
        A = BAll("x", Name(TWO), Or(equals(Var("x"), ZERO_TERM),
                                    Mem(ZERO_TERM, Var("x"))))
        assert eval_formula_bounded(A)

    def test_equality_abbreviation(self):
        assert is_delta0(equals(ZERO_TERM, ZERO_TERM))
        assert eval_formula_bounded(equals(Name(ONE), Name(ONE)))
        assert not eval_formula_bounded(equals(Name(ONE), Name(TWO)))

    def test_rejects_unbounded(self):
        with pytest.raises(EvaluationError):
            eval_formula_bounded(Ex("x", Mem(Var("x"), Name(ONE))))

    def test_rejects_opaque(self):
        with pytest.raises(EvaluationError):
            eval_formula_bounded(Ad(ZERO_TERM))


class TestSubst:
    def test_basic(self):
        A = Mem(Var("x"), Name(ONE))
        assert subst(A, "x", ZERO_TERM) == Mem(ZERO_TERM, Name(ONE))

    def test_shadowing(self):
        A = Ex("x", Mem(Var("x"), Var("x")))
        assert subst(A, "x", ZERO_TERM) == A

    def test_variable_value_captured(self):
        A = Ex("y", And(Mem(Var("x"), Var("y")), NotMem(Var("y"), Var("y"))))
        with pytest.raises(ValueError, match="captured"):
            subst(A, "x", Var("y"))
        with pytest.raises(ValueError, match="captured"):
            subst(BAll("y", Var("x"), Mem(Var("x"), Var("y"))), "x", Var("y"))

    def test_variable_value_not_captured(self):
        # the binder does not see the substituted variable, or binds
        # another name
        A = BAll("y", Var("x"), Mem(Var("y"), Var("y")))
        assert subst(A, "x", Var("y")) == BAll("y", Var("y"), Mem(Var("y"), Var("y")))
        B = Ex("z", Mem(Var("x"), Var("z")))
        assert subst(B, "x", Var("y")) == Ex("z", Mem(Var("y"), Var("z")))

    def test_free_vars_and_closure(self):
        A = Ex("x", Mem(Var("x"), Var("y")))
        assert free_vars(A) == frozenset({"y"})
        assert is_sentence(close(A, {}))


class TestTextSyntax:
    def test_roundtrip_random(self):
        rng = random.Random(4)
        for _ in range(300):
            A = random_formula(rng, 4)
            assert parse_formula(render_formula(A)) == A

    def test_sequent_roundtrip(self):
        G = seq(Mem(ZERO_TERM, Name(ONE)), Ad(ZERO_TERM))
        assert parse_sequent(render_sequent(G)) == G

    def test_deep_nesting_reads_without_recursion(self):
        # the chains of 3,000 nested connectives that test_cli checks,
        # past the interpreter's recursion limit
        A, B = "(in 0 0)", "(notin 0 0)"
        for _ in range(3000):
            A, B = "(or (in 0 0) %s)" % A, "(and (notin 0 0) %s)" % B
        G = parse_sequent("(seq %s %s)" % (A, B))
        assert len(G) == 2

    def test_rejects_negation(self):
        with pytest.raises(ValueError):
            parse_formula("(not (in 0 0))")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_formula("(frob 0 0)")
