"""Ordinal notation system: normal forms, ordering, arithmetic, interning."""

import copy
import importlib.util
import pickle
import random
from dataclasses import field, make_dataclass

import pytest

from proofkit import ordinals
from proofkit.ordinals import (
    CNF,
    CNF_ONE,
    CNF_W,
    CNF_ZERO,
    EQUAL,
    GREATER,
    LESS,
    MalformedOrdinalError,
    OMEGA,
    OmegaCode,
    OrdCode,
    OrdinalParseError,
    Sub,
    Sum,
    WPow,
    ZERO,
    add,
    cmp,
    cnf_from_int,
    enumerate_codes,
    nat_sum,
    omega_exp,
    omega_tower,
    parse,
    parse_query,
    random_code,
    render,
    times_nat,
    tree_size,
    validate_nf,
)

ONE = Sub(CNF_ONE)
W_SUB = Sub(CNF_W)  # the ordinal omega, below Omega


def fin(n):
    return Sub(cnf_from_int(n))


class TestCmp:
    def test_sub_below_omega(self):
        assert cmp(W_SUB, OMEGA) == LESS

    def test_wpow_above_omega(self):
        assert cmp(WPow(Sum((OMEGA, ONE))), OMEGA) == GREATER

    def test_reflexive_equal_random(self):
        rng = random.Random(0)
        for _ in range(1000):
            a = random_code(rng, 8)
            assert cmp(a, a) == EQUAL

    def test_antisymmetry_random(self):
        rng = random.Random(1)
        flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
        for _ in range(1000):
            a, b = random_code(rng, 8), random_code(rng, 8)
            assert cmp(b, a) is flip[cmp(a, b)]

    def test_rejects_malformed(self):
        with pytest.raises(MalformedOrdinalError):
            cmp(Sum((ONE, OMEGA)), OMEGA)


class TestAdd:
    def test_absorption(self):
        assert add(fin(3), OMEGA) == OMEGA

    def test_omega_plus_omega(self):
        assert add(OMEGA, OMEGA) == Sum((OMEGA, OMEGA))

    def test_right_identity(self):
        rng = random.Random(2)
        for _ in range(200):
            a = random_code(rng, 8)
            assert add(a, ZERO) == a

    def test_left_identity(self):
        rng = random.Random(3)
        for _ in range(200):
            a = random_code(rng, 8)
            assert add(ZERO, a) == a

    def test_associative_random(self):
        rng = random.Random(4)
        for _ in range(500):
            a, b, c = (random_code(rng, 6) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))

    def test_strictly_monotone_right(self):
        rng = random.Random(5)
        for _ in range(500):
            a, b, c = (random_code(rng, 6) for _ in range(3))
            v = cmp(b, c)
            if v != LESS:
                continue
            assert cmp(add(a, b), add(a, c)) == LESS


class TestNatSum:
    def test_merges_principal_parts(self):
        assert nat_sum(Sum((OMEGA, OMEGA)), OMEGA) == Sum((OMEGA, OMEGA, OMEGA))

    def test_identity(self):
        rng = random.Random(6)
        for _ in range(200):
            a = random_code(rng, 8)
            assert nat_sum(a, ZERO) == a

    def test_below_omega_tail(self):
        assert nat_sum(ONE, OMEGA) == Sum((OMEGA, ONE))

    def test_commutative_random(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = random_code(rng, 6), random_code(rng, 6)
            assert nat_sum(a, b) == nat_sum(b, a)

    def test_associative_random(self):
        rng = random.Random(8)
        for _ in range(500):
            a, b, c = (random_code(rng, 6) for _ in range(3))
            assert nat_sum(nat_sum(a, b), c) == nat_sum(a, nat_sum(b, c))

    def test_dominates_add(self):
        rng = random.Random(9)
        for _ in range(500):
            a, b = random_code(rng, 6), random_code(rng, 6)
            assert cmp(add(a, b), nat_sum(a, b)) != GREATER


class TestOmegaExp:
    def test_fixed_point_at_omega(self):
        assert omega_exp(OMEGA) == OMEGA

    def test_above_omega(self):
        a = Sum((OMEGA, ONE))
        assert omega_exp(a) == WPow(a)

    def test_below_omega(self):
        assert omega_exp(fin(2)) == parse("w^2")

    def test_towers(self):
        a = Sum((OMEGA, ONE))
        assert omega_tower(0, a) == a
        assert omega_tower(1, a) == WPow(a)
        assert omega_tower(2, a) == WPow(WPow(a))

    def test_lemma_inequality_random(self):
        # beta < alpha implies omega^beta + omega^beta <= omega^alpha
        rng = random.Random(10)
        for _ in range(1000):
            a, b = random_code(rng, 7), random_code(rng, 7)
            if cmp(b, a) != LESS:
                a, b = b, a
            if cmp(b, a) != LESS:
                continue
            wb = omega_exp(b)
            assert cmp(add(wb, wb), omega_exp(a)) != GREATER


def ref_times_nat(a, n):
    """``a * n`` by n additions, the definition binary doubling replaced."""
    if n < 0:
        raise ValueError("natural number expected")
    out = ZERO
    for _ in range(n):
        out = add(out, a)
    return out


class TestTimesNat:
    def test_zero(self):
        assert times_nat(OMEGA, 0) == ZERO

    def test_agrees_with_repeated_addition(self):
        for a in enumerate_codes(6):
            reference = ZERO  # ref_times_nat(a, n), one addition per n
            for n in range(65):
                assert times_nat(a, n) == reference, (a, n)
                reference = add(reference, a)
            assert reference == ref_times_nat(a, 65)

    def test_negative_multiple(self):
        for f in (times_nat, ref_times_nat):
            with pytest.raises(ValueError, match="natural number expected"):
                f(OMEGA, -1)

    def test_logarithmic_additions(self, monkeypatch):
        calls = []
        real_add = ordinals.add
        monkeypatch.setattr(ordinals, "add", lambda a, b: calls.append(1) or real_add(a, b))
        assert times_nat(OMEGA, 3000) == Sum((OMEGA,) * 3000)
        assert len(calls) <= 2 * (3000).bit_length()

    def test_finite_multiple(self):
        assert times_nat(OMEGA, 2) == Sum((OMEGA, OMEGA))
        assert times_nat(fin(2), 3) == fin(6)


class TestValidateNf:
    def test_decreasing_violation(self):
        assert not validate_nf(Sum((ONE, OMEGA)))

    def test_wpow_needs_large_exponent(self):
        assert not validate_nf(WPow(ONE))
        assert not validate_nf(WPow(OMEGA))

    def test_sum_needs_two_parts(self):
        assert not validate_nf(Sum((OMEGA,)))

    def test_sum_head_at_least_omega(self):
        assert not validate_nf(Sum((ONE, ONE)))

    def test_good_codes(self):
        assert validate_nf(OMEGA)
        assert validate_nf(Sum((OMEGA, OMEGA, ONE)))
        assert validate_nf(WPow(Sum((OMEGA, ONE))))

    def test_random_codes_valid(self):
        rng = random.Random(11)
        for _ in range(1000):
            assert validate_nf(random_code(rng, 10))

    def test_cached_operations_reject_a_malformed_code_every_time(self):
        bad = Sum((ONE, OMEGA))
        for _ in range(2):
            for call in (lambda: add(bad, ONE), lambda: add(ONE, bad),
                         lambda: omega_exp(bad)):
                with pytest.raises(MalformedOrdinalError):
                    call()


def ref_tokenize(text):
    """The ordinal tokenizer as a character-by-character scan, for reference."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()+#*?":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif text.startswith("w_", i):
            j = i + 2
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 2:
                raise OrdinalParseError("w_ needs a numeric subscript")
            tokens.append(text[i:j])
            i = j
        elif text.startswith("w^", i):
            tokens.append("w^")
            i += 2
        elif ch in "wW":
            tokens.append(ch)
            i += 1
        else:
            raise OrdinalParseError(f"unexpected character {ch!r}")
    return tokens


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except OrdinalParseError as e:
        return str(e)


class TestRenderParse:
    def test_examples(self):
        assert render(OMEGA) == "W"
        assert parse("W") == OMEGA
        assert parse("w_2(W+1)") == WPow(WPow(Sum((OMEGA, ONE))))
        assert parse("w_0(W+1)") == Sum((OMEGA, ONE))
        assert parse("W * 3") == times_nat(OMEGA, 3)

    def test_roundtrip_random(self):
        rng = random.Random(12)
        for _ in range(1000):
            a = random_code(rng, 10)
            assert parse(render(a)) == a

    def test_parse_errors(self):
        for bad in ("", "(", "w^", "W +", "q"):
            with pytest.raises(OrdinalParseError):
                parse(bad)

    def test_tokenizer_agrees_with_reference(self):
        rng = random.Random(13)
        alphabet = "0123456789wW()+#*?^_ \t\nx"
        for _ in range(20000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
            assert _outcome(ordinals._tokenize, text) == _outcome(ref_tokenize, text)

    def test_tokenizer_messages(self):
        with pytest.raises(OrdinalParseError, match=r"^w_ needs a numeric subscript$"):
            parse("w_(W)")
        with pytest.raises(OrdinalParseError, match=r"^unexpected character 'x'$"):
            parse("W + x")
        # a digit that is not decimal is no number
        with pytest.raises(OrdinalParseError, match=r"^unexpected character '²'$"):
            parse("W * ²")

    def test_query(self):
        a, b = parse_query("w^(W+1) ? W")
        assert cmp(a, b) == GREATER
        assert parse_query("W + W") == Sum((OMEGA, OMEGA))


class TestEnumerate:
    def test_all_valid_and_unique(self):
        codes = enumerate_codes(6)
        assert len(codes) == len(set(codes))
        assert all(validate_nf(c) for c in codes)
        assert all(tree_size(c) <= 6 for c in codes)
        assert OMEGA in codes
        assert Sub(CNF_ZERO) in codes

    def test_monotone_in_budget(self):
        assert set(enumerate_codes(4)) <= set(enumerate_codes(6))


# ---------------------------------------------------------------------------
# Reference implementation: the codes as frozen dataclasses, whose hash,
# repr and equality the interned codes must match, and the operations of
# proofkit.ordinals run over them.
# ---------------------------------------------------------------------------

RefCNF = make_dataclass("CNF", [("terms", tuple, field(default=()))], frozen=True,
                        namespace={"is_zero": lambda self: not self.terms})
RefSub = make_dataclass("Sub", [("value", RefCNF)], frozen=True)
RefOmegaCode = make_dataclass("OmegaCode", [], frozen=True)
RefWPow = make_dataclass("WPow", [("exponent", object)], frozen=True)
RefSum = make_dataclass("Sum", [("parts", tuple)], frozen=True)


def reference_ordinals():
    """A second copy of ``proofkit.ordinals`` whose code classes and
    constants are the reference dataclasses."""
    spec = importlib.util.spec_from_file_location("ordinals_reference",
                                                  ordinals.__file__)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    ref.CNF, ref.Sub, ref.OmegaCode, ref.WPow, ref.Sum = (
        RefCNF, RefSub, RefOmegaCode, RefWPow, RefSum)
    ref.CNF_ZERO = RefCNF()
    ref.CNF_ONE = RefCNF(((ref.CNF_ZERO, 1),))
    ref.CNF_W = RefCNF(((ref.CNF_ONE, 1),))
    ref.OMEGA = RefOmegaCode()
    ref.ZERO, ref.ONE, ref.SUB_W = (RefSub(v) for v in
                                    (ref.CNF_ZERO, ref.CNF_ONE, ref.CNF_W))
    return ref


def to_ref(x):
    if isinstance(x, CNF):
        return RefCNF(tuple((to_ref(e), c) for e, c in x.terms))
    if isinstance(x, Sub):
        return RefSub(to_ref(x.value))
    if isinstance(x, OmegaCode):
        return RefOmegaCode()
    if isinstance(x, WPow):
        return RefWPow(to_ref(x.exponent))
    if isinstance(x, Sum):
        return RefSum(tuple(to_ref(p) for p in x.parts))
    return x


def outcome(fn, *args):
    """The result of ``fn(*args)`` in reference codes, or the error it raised."""
    try:
        return ("ok", to_ref(fn(*args)))
    except ValueError as e:
        return ("raises", type(e).__name__, str(e))


MALFORMED = (Sum((ONE, OMEGA)), WPow(ONE), WPow(OMEGA), Sum((OMEGA,)),
             Sum((ONE, ONE)), Sub(CNF(((CNF_ZERO, 1), (CNF_ONE, 1)))))


def comparison_sample():
    rng = random.Random(13)
    randoms = [random_code(rng, rng.randint(1, 10)) for _ in range(2000)]
    return enumerate_codes(6) + randoms + list(MALFORMED)


class TestInterning:
    def test_equal_codes_are_identical(self):
        assert Sum((OMEGA, ONE)) is Sum((OMEGA, ONE))
        assert parse("w^(W+1) + 2") is add(WPow(Sum((OMEGA, ONE))), fin(2))
        assert CNF() is CNF_ZERO

    def test_hash_is_the_dataclass_hash(self):
        # the same in every process, whatever PYTHONHASHSEED is
        assert hash(OMEGA) == 5740354900026072187
        assert hash(ZERO) == 4510597632111149919
        assert hash(ONE) == -1503045194600647154

    def test_agrees_with_reference(self):
        ref = reference_ordinals()
        assert ref.parse("W + 1") == RefSum((RefOmegaCode(), RefSub(ref.CNF_ONE)))
        codes = comparison_sample()
        for a in codes:
            r = to_ref(a)
            assert hash(a) == hash(r)
            assert repr(a) == repr(r)
            assert outcome(render, a) == outcome(ref.render, r)
            assert validate_nf(a) == ref.validate_nf(r)
            assert outcome(omega_exp, a) == outcome(ref.omega_exp, r)
        exhaustive = enumerate_codes(6) + list(MALFORMED)
        pairs = [(a, b) for a in exhaustive for b in exhaustive]
        pairs += list(zip(codes[::2], codes[1::2]))
        for a, b in pairs:
            ra, rb = to_ref(a), to_ref(b)
            assert (a == b) == (a is b) == (ra == rb)
            for op in ("cmp", "add", "nat_sum"):
                assert outcome(getattr(ordinals, op), a, b) == \
                    outcome(getattr(ref, op), ra, rb)

    def test_copies_are_the_interned_object(self):
        a = parse("w^(W+1) + W + 2")
        assert copy.copy(a) is a
        assert copy.deepcopy(a) is a
        assert pickle.loads(pickle.dumps(a)) is a

    def test_immutable(self):
        a = Sum((OMEGA, ONE))
        with pytest.raises(AttributeError):
            a.parts = (OMEGA,)
        with pytest.raises(AttributeError):
            del a.parts
        with pytest.raises(AttributeError):
            CNF_ONE.terms = ()

    def test_ordcode_is_the_base_of_the_codes(self):
        for a in (ZERO, OMEGA, WPow(Sum((OMEGA, ONE))), Sum((OMEGA, ONE))):
            assert isinstance(a, OrdCode)
        assert not isinstance(CNF_ONE, OrdCode)
