"""Sentence language: negation, classification, depth, support,
relativization, decomposition, and the text syntax."""

import copy
import gc
import pickle
import random
import weakref
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from proofkit import formulas
from proofkit.formulas import (
    Ad,
    All,
    And,
    BAll,
    BEx,
    BY_HEAD,
    CONJUNCTIVE,
    DISJUNCTIVE,
    Ex,
    JBounded,
    JTwo,
    J_TWO,
    J_UNIVERSE,
    JUniverse,
    Mem,
    Name,
    NotAd,
    NotMem,
    Or,
    Var,
    ZERO_TERM,
    all_vars,
    classify,
    close,
    component,
    conjunctive,
    depth,
    determinable,
    equals,
    eval_formula_bounded,
    evaluate,
    facts,
    free_vars,
    index_set,
    is_delta0,
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
from proofkit.corpus import build_corpus
from proofkit.ordinals import from_nat
from proofkit.universe import (
    Abstract,
    Concrete,
    EMPTY,
    EvaluationError,
    OMEGA_WITNESS,
    enumerate_hf,
    is_concrete,
    render_set,
    set_member,
    set_members,
    witness_pool,
)

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


def ref_subst_term(t, var, value):
    return value if isinstance(t, Var) and t.name == var else t


def ref_subst(A, var, value):
    """subst with a branch per class."""
    if isinstance(A, Mem):
        return Mem(ref_subst_term(A.left, var, value), ref_subst_term(A.right, var, value))
    if isinstance(A, NotMem):
        return NotMem(ref_subst_term(A.left, var, value), ref_subst_term(A.right, var, value))
    if isinstance(A, Ad):
        return Ad(ref_subst_term(A.term, var, value))
    if isinstance(A, NotAd):
        return NotAd(ref_subst_term(A.term, var, value))
    if isinstance(A, Or):
        return Or(ref_subst(A.left, var, value), ref_subst(A.right, var, value))
    if isinstance(A, And):
        return And(ref_subst(A.left, var, value), ref_subst(A.right, var, value))
    if A.var == var:
        body = A.body
    elif isinstance(value, Var) and value.name == A.var and var in ref_free_vars(A.body):
        raise ValueError("substituting %s for %s: captured by the quantifier on %s"
                         % (value.name, var, A.var))
    else:
        body = ref_subst(A.body, var, value)
    if isinstance(A, BEx):
        return BEx(A.var, ref_subst_term(A.bound, var, value), body)
    if isinstance(A, BAll):
        return BAll(A.var, ref_subst_term(A.bound, var, value), body)
    if isinstance(A, Ex):
        return Ex(A.var, body)
    if isinstance(A, All):
        return All(A.var, body)
    raise TypeError("not a formula: %r" % (A,))


def ref_relativize(A, c):
    """relativize with a branch per class."""
    if isinstance(A, (Mem, NotMem, Ad, NotAd)):
        return A
    if isinstance(A, Or):
        return Or(ref_relativize(A.left, c), ref_relativize(A.right, c))
    if isinstance(A, And):
        return And(ref_relativize(A.left, c), ref_relativize(A.right, c))
    if isinstance(A, BEx):
        return BEx(A.var, A.bound, ref_relativize(A.body, c))
    if isinstance(A, BAll):
        return BAll(A.var, A.bound, ref_relativize(A.body, c))
    if isinstance(A, Ex):
        return BEx(A.var, c, ref_relativize(A.body, c))
    if isinstance(A, All):
        return BAll(A.var, c, ref_relativize(A.body, c))
    raise TypeError("not a formula: %r" % (A,))


def relativize_to_zero(A):
    return relativize(A, ZERO_TERM)


def subst_zero_for_y(A):
    return subst(A, "y", ZERO_TERM)


def ref_render_term(t):
    if isinstance(t, Var):
        return t.name
    return "0" if t == ZERO_TERM else render_set(t.value)


def ref_render_formula(A):
    """render_formula with a branch per class."""
    r, t = ref_render_formula, ref_render_term
    if isinstance(A, Mem):
        return "(in %s %s)" % (t(A.left), t(A.right))
    if isinstance(A, NotMem):
        return "(notin %s %s)" % (t(A.left), t(A.right))
    if isinstance(A, Ad):
        return "(ad %s)" % t(A.term)
    if isinstance(A, NotAd):
        return "(notad %s)" % t(A.term)
    if isinstance(A, Or):
        return "(or %s %s)" % (r(A.left), r(A.right))
    if isinstance(A, And):
        return "(and %s %s)" % (r(A.left), r(A.right))
    if isinstance(A, BEx):
        return "(bex %s %s %s)" % (A.var, t(A.bound), r(A.body))
    if isinstance(A, BAll):
        return "(ball %s %s %s)" % (A.var, t(A.bound), r(A.body))
    if isinstance(A, Ex):
        return "(ex %s %s)" % (A.var, r(A.body))
    if isinstance(A, All):
        return "(all %s %s)" % (A.var, r(A.body))
    raise TypeError("not a formula: %r" % (A,))


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


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


def ref_all_vars(A):
    return frozenset({t.name for B in subformulas(A) for t in _terms(B)
                      if isinstance(t, Var)}
                     | {B.var for B in subformulas(A) if isinstance(B, (BEx, BAll, Ex, All))})


def ref_determinable(A):
    return (not any(isinstance(B, (Ad, NotAd)) for B in subformulas(A))
            and all(is_concrete(a) for a in ref_support(A)) and not ref_free_vars(A))


def ref_free_vars(A):
    names = {t.name for t in _terms(A) if isinstance(t, Var)}
    if isinstance(A, (Or, And)):
        names |= ref_free_vars(A.left) | ref_free_vars(A.right)
    elif isinstance(A, (BEx, BAll, Ex, All)):
        names |= ref_free_vars(A.body) - {A.var}
    return frozenset(names)


def ref_evaluate(A, domain):
    """evaluate by substitution: each witness gives a new instance of the
    body, and an unbounded quantifier B ranges over ``domain(B)``, B with
    the outer witnesses already substituted."""
    def value(t):
        if isinstance(t, Var):
            raise EvaluationError("open term %r in evaluation" % (t,))
        return t.value

    if isinstance(A, Mem):
        return set_member(value(A.left), value(A.right))
    if isinstance(A, NotMem):
        return not set_member(value(A.left), value(A.right))
    if isinstance(A, (Ad, NotAd)):
        raise EvaluationError("opaque atom cannot be evaluated")
    if isinstance(A, Or):
        return ref_evaluate(A.left, domain) or ref_evaluate(A.right, domain)
    if isinstance(A, And):
        return ref_evaluate(A.left, domain) and ref_evaluate(A.right, domain)
    exists = isinstance(A, (BEx, Ex))
    if isinstance(A, (BEx, BAll)):
        # a member that decides settles it; else the error of the least
        # failing member by repr
        outcomes = [_outcome(lambda: ref_evaluate(subst(A.body, A.var, Name(b)), domain))
                    for b in sorted(set_members(value(A.bound)), key=repr)]
        if exists in outcomes:
            return exists
        errors = [v for v in outcomes if isinstance(v, str)]
        if errors:
            raise EvaluationError(errors[0])
        return not exists
    sets = domain(A)
    if sets is None:
        return False
    instances = (ref_evaluate(subst(A.body, A.var, Name(b)), domain) for b in sets)
    return any(instances) if exists else all(instances)


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

    def test_render_keeps_the_text_on_the_formula_asked_for_only(self):
        rng = random.Random(14)
        for _ in range(300):
            A = random_formula(rng, rng.randrange(1, 6), ("x",))
            parts = [B for B in subformulas(A) if B is not A]
            render_formula(rng.choice(parts))  # a part whose text is kept already
            kept = [B for B in parts if "_text" in vars(B)]
            text = render_formula(A)
            assert parse_formula(text) == A
            assert vars(A)["_text"] is text and render_formula(A) is text
            assert [B for B in parts if "_text" in vars(B)] == kept

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

    def test_rewriting_agrees_with_reference(self):
        rng = random.Random(14)
        values = [ZERO_TERM, Name(TWO), Var("x"), Var("v0"), Var("v1")]
        captured = 0
        for _ in range(2000):
            A = random_formula(rng, rng.randrange(6), ("x",))
            for B in subformulas(A):
                assert render_formula(B) == ref_render_formula(B)
                for c in (Var("c"), Name(TWO)):
                    assert relativize(B, c) == ref_relativize(B, c)
                for var in ("x", "v0", "v1"):
                    for value in values:
                        got = outcome(subst, B, var, value)
                        assert got == outcome(ref_subst, B, var, value)
                        captured += isinstance(got, tuple)
        assert captured > 100

    def test_kept_attributes_agree_with_reference(self):
        rng = random.Random(14)
        for _ in range(2000):
            A = random_formula(rng, rng.randrange(6), ("x",))
            for B in subformulas(A):
                for _ in range(2):  # computed and kept, then read back
                    assert hash(B) == object.__hash__(B)
                    assert depth(B) == ref_depth(B)
                    assert is_delta0(B) == ref_is_delta0(B)
                    assert support(B) == ref_support(B)
                    assert free_vars(B) == ref_free_vars(B)
                    assert classify(B) == ref_classify(B)
                    assert all_vars(B) == ref_all_vars(B)
                    assert determinable(B) == ref_determinable(B)
                assert facts(B) is facts(B)
                assert support(B) is support(B)
                assert free_vars(B) is free_vars(B)
                # B naming an abstract set wherever x is free
                abstract = subst(B, "x", Name(OMEGA_WITNESS))
                assert determinable(abstract) == ref_determinable(abstract)
            assert hash(A) != hash(negate(A))
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
                classify(B), member_pi(B, 1), all_vars(B), determinable(B)
                stores = set(vars(B)) - {f.name for f in fields(B)}
                assert stores <= {"_negation", "_instances", "_facts", "_text"}
            assert A == fresh_copy and hash(A) == hash(fresh_copy)
            assert repr(A) == repr(fresh_copy)

    @pytest.mark.parametrize("ask", [
        free_vars, support, depth, is_delta0,
        negate, relativize_to_zero, render_formula, subst_zero_for_y])
    @pytest.mark.parametrize("x", [
        None, Var("x"), Or(None, Mem(ZERO_TERM, ZERO_TERM)), Ex("x", None)])
    def test_a_non_formula_is_refused(self, ask, x):
        # also a formula with a part that is not one
        with pytest.raises(TypeError, match="not a formula"):
            ask(x)

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
    def test_hash_is_identity(self, A, names):
        negate(A)
        if names[-1] == "body":
            component(A, ONE)
        depth(A), is_delta0(A), support(A), free_vars(A)
        assert [f.name for f in fields(A)] == names
        assert type(A).__hash__ is object.__hash__
        assert hash(A) == object.__hash__(A)
        assert "_hash" not in vars(A)
        assert hash(A) != hash(negate(A))

    @pytest.mark.parametrize("t, names", [
        (Var("x"), ["name"]),
        (Name(ONE), ["value"]),
        (ZERO_TERM, ["value"]),
    ])
    def test_term_hash_is_identity(self, t, names):
        assert [f.name for f in fields(t)] == names
        assert type(t).__hash__ is object.__hash__
        assert hash(t) == object.__hash__(t)
        assert "_hash" not in vars(t)


class TestHeadWords:
    """Each formula class has a head word and a dual, the class of its
    negation; formulas.BY_HEAD finds the class by head word."""

    EXAMPLES = [
        Mem(ZERO_TERM, Name(ONE)), NotMem(Var("x"), Name(ONE)),
        Ad(Var("x")), NotAd(ZERO_TERM),
        Or(Ad(ZERO_TERM), NotAd(ZERO_TERM)), And(Ad(ZERO_TERM), NotAd(ZERO_TERM)),
        BEx("x", Name(TWO), Ad(Var("x"))), BAll("x", Var("y"), Ad(Var("x"))),
        Ex("x", Ad(Var("x"))), All("x", Ad(Var("x"))),
    ]

    def test_every_class_has_a_head_word(self):
        assert [type(A) for A in self.EXAMPLES] == list(FORMULA_CLASSES)
        assert formulas.BY_HEAD == {A.head: type(A) for A in self.EXAMPLES}
        assert list(formulas.BY_HEAD) == [
            "in", "notin", "ad", "notad", "or", "and", "bex", "ball", "ex", "all"]

    @pytest.mark.parametrize("A", EXAMPLES, ids=lambda A: A.head)
    def test_head_word_reads_renders_and_negates(self, A):
        # the parts as the reader gives them: a term as its atom or set
        parts = [A.head] + [
            x.name if isinstance(x, Var) else x.value if isinstance(x, Name) else x
            for x in (getattr(A, f.name) for f in fields(A))]
        assert formulas.formula_from_tree(parts, {}) == A
        text = render_formula(A)
        assert text.startswith("(%s " % A.head)
        assert parse_formula(text) == A
        assert type(negate(A)) is A.dual and A.dual.dual is type(A)
        assert [f.name for f in fields(A.dual)] == [f.name for f in fields(A)]


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

    def test_closing_keeps_depth(self):
        # emb_rank reads an open formula's depth as that of its closure
        rng = random.Random(9)
        sample = reference_sample(9, 1000) + [
            random_formula(rng, rng.randrange(6), ("a", "b")) for _ in range(2000)]
        assert sum(bool(free_vars(A)) for A in sample) > 1000
        for A in sample:
            for assignment in ({}, {"a": ONE}, {"a": TWO, "b": EMPTY}):
                assert depth(close(A, assignment)) == depth(A)


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
    def test_each_dual_pair_declares_opposite_polarities(self):
        atoms = {"in", "notin", "ad", "notad"}
        for head, C in BY_HEAD.items():
            if head in atoms:
                assert C.polarity is None, head
            else:
                assert {C.polarity, C.dual.polarity} == {DISJUNCTIVE, CONJUNCTIVE}, head
        assert [h for h, C in BY_HEAD.items() if C.polarity == DISJUNCTIVE] == ["or", "bex", "ex"]

    def test_false_delta0(self):
        A = Mem(ZERO_TERM, ZERO_TERM)
        assert conjunctive(A) is False
        assert index_set(A) is None

    def test_true_delta0(self):
        A = Mem(ZERO_TERM, Name(ONE))
        assert conjunctive(A) is True
        assert index_set(A) is None

    def test_true_delta0_compound(self):
        m = Mem(ZERO_TERM, ZERO_TERM)
        A = Or(m, negate(m))
        assert conjunctive(A)  # by its truth value, not its connective
        assert A.polarity == DISJUNCTIVE
        assert index_set(A) == J_TWO

    def test_connectives(self):
        A = Or(Ex("x", Mem(Var("x"), Name(ONE))), Ad(ZERO_TERM))
        assert not conjunctive(A)
        assert isinstance(index_set(A), JTwo)

    def test_bounded(self):
        A = BEx("x", Name(TWO), Ex("y", Mem(Var("x"), Var("y"))))
        assert not conjunctive(A)
        assert index_set(A) is JBounded(TWO)
        assert index_set(A).contains(EMPTY)
        assert component(A, EMPTY) == Ex("y", Mem(Name(EMPTY), Var("y")))

    def test_bounded_over_a_variable_has_no_index_set(self):
        A = BEx("x", Var("y"), Ex("z", Mem(Var("x"), Var("z"))))
        assert index_set(A) is None
        assert A.polarity == DISJUNCTIVE

    def test_unbounded(self):
        A = All("x", Ex("y", Mem(Var("x"), Var("y"))))
        assert conjunctive(A)
        assert isinstance(index_set(A), JUniverse)

    def test_opaque_delta0_fails(self):
        with pytest.raises(EvaluationError):
            conjunctive(Ad(ZERO_TERM))

    @pytest.mark.parametrize("J, outside, message", [
        (J_TWO, 2, "binary index must be 0 or 1"),
        (JBounded(TWO), TWO, "index outside the bounding set"),
        (J_UNIVERSE, 0, "universe indices are desk sets"),
    ], ids=repr)
    def test_an_index_outside_the_set_is_refused(self, J, outside, message):
        J.require(J.members()[-1] if J is not J_UNIVERSE else TWO)
        with pytest.raises(IndexError, match="^%s$" % message):
            J.require(outside)

    def test_negation_flips_polarity(self):
        rng = random.Random(3)
        settled = 0
        for _ in range(300):
            A = random_formula(rng, rng.randrange(5))
            assert type(index_set(negate(A))) is type(index_set(A))
            if is_delta0(A) and not determinable(A):
                continue
            settled += is_delta0(A)
            assert conjunctive(negate(A)) != conjunctive(A)
        assert settled > 50


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

    @pytest.mark.parametrize("reverse", [False, True], ids=["p-first", "p-last"])
    def test_a_bounded_quantifier_has_one_value_in_any_member_order(self, monkeypatch, reverse):
        """A member that decides settles the quantifier even where another
        member raises; with none that decides, the undecided member's
        error."""
        params = {"p": Abstract("p", from_nat(1))}
        real = formulas.set_members
        monkeypatch.setattr(formulas, "set_members",
                            lambda a: sorted(real(a), key=repr, reverse=reverse))
        assert conjunctive(parse_formula("(bex x {p,{{}}} (in 0 x))", params)) is True
        assert conjunctive(parse_formula("(ball x {p,{{}}} (notin 0 x))", params)) is False
        with pytest.raises(EvaluationError) as ex:
            conjunctive(parse_formula("(bex x {p} (in 0 x))", params))
        assert str(ex.value) == "membership in abstract parameter 'p' is undecidable"

    def test_rejects_opaque(self):
        with pytest.raises(EvaluationError):
            eval_formula_bounded(Ad(ZERO_TERM))


def _pool(B, params):
    """A small search domain for the unbounded quantifier B: existentials
    range over four sets and those inside the parameters, universals
    over four sets; each in an order fixed by the sets alone."""
    if isinstance(B, All):
        return enumerate_hf(4)
    return sorted(witness_pool(4, params), key=render_set)


def _outcome(run):
    try:
        return run()
    except EvaluationError as ex:
        return str(ex)


def assert_evaluates_as_reference(A):
    """``evaluate`` gives what substitution gives, value or error, when the
    domain reads the instance's parameters from the environment."""
    def domain(B, env):
        return _pool(B, support(B) | {env[v] for v in free_vars(B) if v in env})

    got = _outcome(lambda: evaluate(A, domain, {}))
    assert got == _outcome(lambda: ref_evaluate(A, lambda B: _pool(B, support(B)))), A


_VARS = ("x", "y")
_TERMS = st.sampled_from([ZERO_TERM, Name(ONE), Name(TWO), *map(Var, _VARS)])
_ATOMS = st.builds(Mem, _TERMS, _TERMS) | st.builds(NotMem, _TERMS, _TERMS)
_BINDERS = st.sampled_from(_VARS)  # two names, so binders often shadow


def _compound(parts, binders=_BINDERS, terms=_TERMS):
    return (st.builds(Or, parts, parts) | st.builds(And, parts, parts)
            | st.builds(BEx, binders, terms, parts) | st.builds(BAll, binders, terms, parts)
            | st.builds(Ex, binders, parts) | st.builds(All, binders, parts))


class TestEvaluateInAnEnvironment:
    def test_corpus_sentences_agree_with_reference(self):
        for e in build_corpus():
            for A in e.script.root.conclusion:
                for B in subformulas(A):  # the open parts raise "open term"
                    assert_evaluates_as_reference(B)

    @pytest.mark.parametrize("A", [
        # a shadowed binder: the inner x ranges over the outer x
        BEx("x", Name(TWO), BAll("x", Var("x"), Mem(Var("x"), Name(ONE)))),
        BEx("x", Name(TWO), BAll("x", Var("x"), NotMem(Var("x"), Var("x")))),
        # the outer x is read again after an inner binder of x
        BAll("x", Name(ONE), And(BEx("x", Name(TWO), Mem(ZERO_TERM, Var("x"))),
                                 NotMem(ZERO_TERM, Var("x")))),
        # a bounded quantifier whose bound is an outer bound variable
        BAll("x", Name(TWO), BAll("y", Var("x"), Mem(Var("y"), Var("x")))),
        Ex("x", BEx("y", Var("x"), Mem(Var("y"), Name(ONE)))),
        # unbounded quantifiers, one under the other, and a shadowed one
        All("x", Ex("y", Mem(Var("x"), Var("y")))),
        Ex("x", All("y", Or(NotMem(Var("y"), Var("x")), Mem(Var("y"), Name(TWO))))),
        Ex("x", Ex("x", Mem(Var("x"), Name(TWO)))),
        # open: a variable outside every binder, also after a sibling's binder
        BAll("x", Name(TWO), Mem(Var("x"), Var("y"))),
        And(BEx("y", Name(ONE), Mem(Var("y"), Name(ONE))), Mem(Var("y"), Name(ONE))),
    ])
    def test_edge_cases_agree_with_reference(self, A):
        assert_evaluates_as_reference(A)
        assert_evaluates_as_reference(negate(A))

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(_ATOMS, _compound, max_leaves=8))
    def test_random_formulas_agree_with_reference(self, A):
        assert_evaluates_as_reference(A)

    def test_evaluate_builds_no_instances(self, monkeypatch):
        calls = []
        real = formulas.subst
        monkeypatch.setattr(formulas, "subst", lambda *a: calls.append(a) or real(*a))
        A = All("x", BEx("y", Name(TWO), Or(NotMem(Var("x"), Var("x")), Mem(Var("y"), Var("x")))))
        assert evaluate(A, lambda B, env: enumerate_hf(4), {})
        assert evaluate(Ex("x", BAll("y", Var("x"), Mem(Var("y"), Name(TWO)))),
                        lambda B, env: enumerate_hf(4), {})
        assert calls == []

    def test_an_unbound_variable_is_an_open_term(self):
        A = BAll("x", Name(ONE), Mem(Var("x"), Var("y")))
        for env in ({}, {"x": ONE}):
            with pytest.raises(EvaluationError, match="open term Var\\('y'\\)"):
                evaluate(A, lambda B, env: None, env)
        assert evaluate(A, lambda B, env: None, {"y": ONE})
        with pytest.raises(EvaluationError, match="open term"):
            eval_formula_bounded(Mem(Var("x"), ZERO_TERM))

    def test_bounded_evaluation_refuses_an_unbounded_quantifier(self):
        with pytest.raises(EvaluationError,
                           match="^unbounded quantifier in bounded evaluation$"):
            eval_formula_bounded(Ex("x", Mem(ZERO_TERM, Var("x"))))

    def test_the_universe_index_set_has_no_member_list(self):
        with pytest.raises(EvaluationError, match="^the universe index set is not enumerable$"):
            JUniverse().members()


def loop_evaluate(A, domain, env):
    """``evaluate`` with no shortcut for a vacuous binder: a quantifier
    evaluates its body once for each set of its range."""
    def value(t):
        if isinstance(t, Name):
            return t.value
        if t.name not in env:
            raise EvaluationError("open term %r in evaluation" % (t,))
        return env[t.name]

    if isinstance(A, Mem):
        return set_member(value(A.left), value(A.right))
    if isinstance(A, NotMem):
        return not set_member(value(A.left), value(A.right))
    if isinstance(A, (Ad, NotAd)):
        raise EvaluationError("opaque atom cannot be evaluated")
    if isinstance(A, Or):
        return loop_evaluate(A.left, domain, env) or loop_evaluate(A.right, domain, env)
    if isinstance(A, And):
        return loop_evaluate(A.left, domain, env) and loop_evaluate(A.right, domain, env)
    if isinstance(A, (BEx, BAll)):
        sets = set_members(value(A.bound))
    else:
        sets = domain(A, env)
        if sets is None:
            return False
    instances = (loop_evaluate(A.body, domain, {**env, A.var: b}) for b in sets)
    return any(instances) if isinstance(A, (BEx, Ex)) else all(instances)


_P = Abstract("p", from_nat(1))
#: bounds that are empty, concrete and abstract; "z" is bound and never read
_VACUOUS_TERMS = st.sampled_from(
    [ZERO_TERM, Name(ONE), Name(TWO), Name(_P), Var("x"), Var("y")])
_VACUOUS_ATOMS = (st.builds(Mem, _VACUOUS_TERMS, _VACUOUS_TERMS)
                  | st.builds(NotMem, _VACUOUS_TERMS, _VACUOUS_TERMS)
                  | st.builds(Ad, _VACUOUS_TERMS))
_VACUOUS_BINDERS = st.sampled_from(("x", "y", "z"))

#: unbounded ranges: some sets, none (undecided), and an empty one
_DOMAINS = {
    "sets": lambda B, env: enumerate_hf(3),
    "undecided universals": lambda B, env: None if isinstance(B, All) else enumerate_hf(2),
    "empty": lambda B, env: [],
}


class TestVacuousBinders:
    @settings(max_examples=400, deadline=None)
    @given(st.recursive(_VACUOUS_ATOMS,
                        lambda parts: _compound(parts, _VACUOUS_BINDERS, _VACUOUS_TERMS),
                        max_leaves=8),
           st.sampled_from(sorted(_DOMAINS)),
           st.sampled_from([{}, {"x": ONE}, {"x": TWO, "y": EMPTY}]))
    def test_random_formulas_agree_with_the_loop(self, A, domain, env):
        domain = _DOMAINS[domain]
        assert _outcome(lambda: evaluate(A, domain, env)) == _outcome(
            lambda: loop_evaluate(A, domain, env)), A

    def test_edge_cases_agree_with_the_loop(self):
        raising, true = Ad(ZERO_TERM), Mem(ZERO_TERM, Name(ONE))
        empty, undecided = _DOMAINS["empty"], lambda B, env: None
        abstract = "cannot enumerate members of abstract parameter 'p'"
        for A, domain, want in [
            # an empty range: the body is never read, even one that raises
            (BAll("z", ZERO_TERM, raising), empty, True),
            (BEx("z", ZERO_TERM, raising), empty, False),
            (All("z", raising), empty, True),
            (Ex("z", raising), empty, False),
            # an abstract bound raises before the body is read
            (BAll("z", Name(_P), true), empty, abstract),
            (BEx("z", Name(_P), raising), empty, abstract),
            # an undecided range counts as false
            (Ex("z", true), undecided, False),
            (All("z", true), undecided, False),
            # a body that raises over a nonempty range
            (BAll("z", Name(TWO), raising), empty, "opaque atom cannot be evaluated"),
            (BEx("z", Name(ONE), Mem(Var("y"), Name(ONE))), empty,
             "open term Var('y') in evaluation"),
        ]:
            assert _outcome(lambda: evaluate(A, domain, {})) == want, A
            assert _outcome(lambda: loop_evaluate(A, domain, {})) == want, A

    def test_a_vacuous_body_is_evaluated_once(self, monkeypatch):
        seen = []
        real = formulas.evaluate
        monkeypatch.setattr(formulas, "evaluate",
                            lambda A, domain, env: seen.append(A) or real(A, domain, env))
        true, false = Mem(ZERO_TERM, Name(ONE)), NotMem(ZERO_TERM, Name(ONE))
        read_x = Mem(Var("x"), Name(TWO))
        for A, body, times in [
            (BAll("x", Name(TWO), true), true, 1),
            (BEx("x", Name(TWO), false), false, 1),
            (All("x", true), true, 1),
            (Ex("x", false), false, 1),
            (BAll("x", ZERO_TERM, true), true, 0),
            # the body reads x: once for each set of the range
            (BAll("x", Name(TWO), read_x), read_x, 2),
            (All("x", Or(read_x, true)), Or(read_x, true), 4),
        ]:
            seen.clear()
            assert real(A, lambda B, env: enumerate_hf(4), {}) == (body is not false)
            assert seen.count(body) == times, A


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

    def test_parts_without_the_variable_are_kept(self):
        """Each part of A in which the variable is not free, A itself
        included, is the same object in the result."""
        rng = random.Random(16)
        kept = 0
        for _ in range(2000):
            A = random_formula(rng, rng.randrange(6), ("x",))
            for var in ("x", "v0", "v1"):
                for value in (ZERO_TERM, Var("x"), Var("v1")):
                    try:
                        todo = [(A, subst(A, var, value))]
                    except ValueError:  # captured
                        continue
                    while todo:
                        B, R = todo.pop()
                        if var not in ref_free_vars(B):
                            assert R is B
                            kept += 1
                        else:
                            todo += [(getattr(B, n), getattr(R, n))
                                     for n, kind in B.shape if kind is formulas.Formula]
        assert kept > 10000

    def test_an_instance_keeps_its_closed_parts(self):
        P = Mem(ZERO_TERM, Name(ONE))
        Q = NotMem(Var("x"), Name(TWO))
        B = component(Ex("x", And(P, Q)), ONE)
        assert B.left is P and B.right == NotMem(Name(ONE), Name(TWO))

    def test_free_vars_and_closure(self):
        A = Ex("x", Mem(Var("x"), Var("y")))
        assert free_vars(A) == frozenset({"y"})
        assert not free_vars(close(A, {}))


class TestInterning:
    """Equal formulas and terms are one object while they live."""

    def test_a_component_of_a_negation_is_the_negation_of_the_component(self):
        rng = random.Random(17)
        quantifiers = 0
        for _ in range(500):
            for B in subformulas(random_formula(rng, rng.randrange(1, 6), ("x",))):
                if isinstance(B, (BEx, BAll, Ex, All)):
                    quantifiers += 1
                    for c in (EMPTY, TWO):
                        assert component(negate(B), c) is negate(component(B, c))
        assert quantifiers > 200
        A = parse_formula("(ex x (or (in x 0) (all y (notin y x))))")
        assert component(negate(A), ONE) is negate(component(A, ONE))

    def test_close_and_subst_give_back_the_parsed_object(self):
        A = parse_formula("(ex x (and (in x y) (notin z x)))")
        B = parse_formula("(ex x (and (in x {{}}) (notin 0 x)))")
        assert close(A, {"y": ONE}) is B
        assert subst(subst(A, "z", ZERO_TERM), "y", Name(ONE)) is B
        assert subst(B, "z", Var("y")) is B  # z is not free in B

    def test_two_live_parses_of_one_text_share_their_formulas(self):
        text = ("(seq (or (in 0 {{}}) (ex x (in x 0)))"
                " (and (notin 0 {{}}) (all x (notin x 0))))")
        G, H = parse_sequent(text), parse_sequent(text)
        mine = {id(B) for A in G for B in subformulas(A)}
        theirs = {id(B) for A in H for B in subformulas(A)}
        assert len(mine) == 8 and mine == theirs

    def test_copies_are_the_interned_object(self):
        A = parse_formula("(bex x {{}} (or (ad x) (all y (and (notin y x) (in 0 {{},{{}}})))))")
        for B in subformulas(A) + [Var("y"), Name(TWO), ZERO_TERM]:
            assert copy.copy(B) is B
            assert copy.deepcopy(B) is B
            assert pickle.loads(pickle.dumps(B)) is B
        # a parameter is interned too, so a term naming it is copied as itself
        p = Name(Abstract("p", from_nat(1)))
        assert copy.copy(p) is p and copy.deepcopy(p) is p

    def test_a_formula_naming_a_parameter_is_copied_as_itself(self):
        params = {"p": Abstract("p", from_nat(2))}
        A = parse_formula("(ball x p (or (in x {p}) (ex y (notin p y))))", params)
        assert parse_formula(render_formula(A), {"p": Abstract("p", from_nat(2))}) is A
        for B in [A, *subformulas(A), Name(params["p"])]:
            assert copy.copy(B) is B
            assert copy.deepcopy(B) is B
            assert pickle.loads(pickle.dumps(B)) is B

    def test_equality_is_identity(self):
        for C in [Var, Name, *BY_HEAD.values()]:
            assert C.__eq__ is object.__eq__ and C.__ne__ is object.__ne__, C
        A = parse_formula("(or (in 0 {{}}) (ex x (in x 0)))")
        assert A == parse_formula("(or (in 0 {{}}) (ex x (in x 0)))")
        assert A != A.right and A != negate(A)

    @pytest.mark.parametrize("b", [TWO, Abstract("b", from_nat(3))], ids=repr)
    def test_a_bounded_quantifier_has_one_index_set_per_bound(self, b):
        J = index_set(BAll("x", Name(b), Mem(Var("x"), Var("y"))))
        assert J is JBounded(b) and J is index_set(BEx("z", Name(b), Ad(Var("z"))))
        assert J is not JBounded(ONE) and J is not J_TWO
        assert hash(J) == object.__hash__(J)
        assert repr(J) == "JBounded(bound=%r)" % (b,)
        assert copy.deepcopy(J) is J and pickle.loads(pickle.dumps(J)) is J
        with pytest.raises(AttributeError):
            J.bound = EMPTY

    def test_the_unit_index_sets_keep_their_names(self):
        assert (repr(J_TWO), repr(J_UNIVERSE)) == ("JTwo()", "JUniverse()")
        assert index_set(Or(Ad(ZERO_TERM), Ad(ZERO_TERM))) is J_TWO
        assert index_set(Ex("x", Ad(Var("x")))) is J_UNIVERSE

    def test_the_table_keeps_no_formula_alive(self):
        texts = [render_formula(random_formula(random.Random(seed), 5, ("x",)))
                 for seed in range(40)]

        def one_pass():
            for text in texts:
                A = parse_formula(text)
                for B in subformulas(A):
                    negate(B)  # a formula and its negation refer to each other
                    if isinstance(B, (BEx, BAll, Ex, All)):
                        component(B, TWO)

        table = formulas._FORMULAS
        sizes = []
        for _ in range(3):
            one_pass()
            gc.collect()
            sizes.append(len(table))
        assert sizes[0] == sizes[1] == sizes[2]
        A = parse_formula("(ex u17 (or (in u17 {{{}}}) (all u18 (notin u18 u17))))")
        negate(A)
        assert len(table) > sizes[0]
        left = weakref.ref(A)
        del A
        gc.collect()
        assert left() is None
        assert len(table) == sizes[0]
        assert all(ref() is not None for ref in table.values())

    def test_a_deep_chain_is_built_hashed_and_freed_without_recursion(self):
        # past the interpreter's recursion limit: the hash reads the
        # object's identity, not its parts
        before = len(formulas._FORMULAS)
        A = Mem(Var("u19"), ZERO_TERM)
        for _ in range(3000):
            A = Or(Mem(Var("u20"), ZERO_TERM), A)
        assert hash(A) == object.__hash__(A)
        assert A in {A} and Or(A.left, A.right) is A
        assert len(formulas._FORMULAS) == before + 3004  # two variables, two atoms
        left = weakref.ref(A)
        del A
        gc.collect()
        assert left() is None
        assert len(formulas._FORMULAS) == before

    def test_a_wrong_number_of_parts_is_refused(self):
        with pytest.raises(TypeError, match=r"^Mem\(left, right\): 1 given$"):
            Mem(ZERO_TERM)
        with pytest.raises(TypeError, match=r"^Ex\(var, body\): 3 given$"):
            Ex("x", Ad(ZERO_TERM), ZERO_TERM)
        with pytest.raises(TypeError, match=r"^Var\(name\): 0 given$"):
            Var()


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

    def test_rejects_an_empty_formula(self):
        with pytest.raises(ValueError) as raised:
            parse_formula("()")
        assert str(raised.value) == "formula expressions are lists, got []"

    def test_a_sequent_starts_with_seq(self):
        with pytest.raises(ValueError, match="^sequent expressions start with 'seq'$"):
            parse_sequent("(in 0 0)")
