"""Ordinal notation system: normal forms, ordering, arithmetic, interning."""

import copy
import hashlib
import importlib.util
import pickle
import random
from dataclasses import field, make_dataclass

import pytest

from proofkit import ordinals
from proofkit.ordinals import (
    EQUAL,
    GREATER,
    LESS,
    MalformedOrdinalError,
    OMEGA,
    OMEGA_LOG,
    ONE,
    OmegaLog,
    OrdCode,
    OrdinalParseError,
    SUB_W,
    ZERO,
    add,
    cmp,
    enumerate_codes,
    from_nat as fin,
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

W_PLUS_1 = OrdCode(((OMEGA_LOG, 1), (ZERO, 1)))


def power(e):
    """The code of ``w^e``, built by hand."""
    return OrdCode(((e, 1),))


def omega_times(n):
    return OrdCode(((OMEGA_LOG, n),))


#: the terms of no normal code: a rising exponent
RISING = ((ZERO, 1), (OMEGA_LOG, 1))


class TestCmp:
    def test_sub_below_omega(self):
        assert cmp(SUB_W, OMEGA) == LESS

    def test_wpow_above_omega(self):
        assert cmp(power(W_PLUS_1), OMEGA) == GREATER

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
        # no operation can be handed a malformed code: none is built
        with pytest.raises(MalformedOrdinalError) as raised:
            cmp(OrdCode(RISING), OMEGA)
        assert str(raised.value) == (
            "not a normal-form code: OrdCode(terms=((OrdCode(terms=()), 1), (OmegaLog(), 1)))")

    def test_deep_towers_compare_without_recursion(self):
        # 2,000 levels, past the interpreter's recursion limit: the first
        # distinct exponents decide, and the comparison descends into them
        low, high = omega_tower(2000, ZERO), omega_tower(2000, ONE)
        assert cmp(low, high) == LESS
        assert cmp(high, low) == GREATER
        assert cmp(low, low) == EQUAL


class TestAdd:
    def test_absorption(self):
        assert add(fin(3), OMEGA) == OMEGA

    def test_omega_plus_omega(self):
        assert add(OMEGA, OMEGA) == omega_times(2)

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
        assert nat_sum(omega_times(2), OMEGA) == omega_times(3)

    def test_identity(self):
        rng = random.Random(6)
        for _ in range(200):
            a = random_code(rng, 8)
            assert nat_sum(a, ZERO) == a

    def test_below_omega_tail(self):
        assert nat_sum(ONE, OMEGA) == W_PLUS_1

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
        assert omega_exp(W_PLUS_1) == power(W_PLUS_1)

    def test_below_omega(self):
        assert omega_exp(fin(2)) == parse("w^2")

    def test_towers(self):
        a = W_PLUS_1
        assert omega_tower(0, a) == a
        assert omega_tower(1, a) == power(a)
        assert omega_tower(2, a) == power(power(a))

    def test_a_negative_tower_height_is_refused(self):
        with pytest.raises(ValueError, match="^tower height must be a natural number$"):
            omega_tower(-1, W_PLUS_1)

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
        assert times_nat(OMEGA, 3000) == omega_times(3000)
        assert len(calls) <= 2 * (3000).bit_length()

    def test_finite_multiple(self):
        assert times_nat(OMEGA, 2) == omega_times(2)
        assert times_nat(fin(2), 3) == fin(6)


def refused(terms) -> str:
    """The message with which the constructor refuses ``terms``."""
    with pytest.raises(MalformedOrdinalError) as raised:
        OrdCode(terms)
    return str(raised.value)


class TestValidateNf:
    """The constructor builds only normal codes, so ``validate_nf`` is
    true of exactly the codes."""

    def test_decreasing_violation(self):
        for terms in (RISING, ((ZERO, 1), (ONE, 1)), ((ONE, 1), (ONE, 1))):
            assert refused(terms) == "not a normal-form code: OrdCode(terms=%r)" % (terms,)
        assert not validate_nf(RISING)

    def test_omega_is_no_exponent(self):
        # Omega is w^Omega, written with the marker
        assert refused(((OMEGA, 1),)) == (
            "not a normal-form code: OrdCode(terms=((OrdCode(terms=((OmegaLog(), 1),)), 1),))")
        assert validate_nf(power(OMEGA_LOG))

    def test_coefficients_are_positive_ints(self):
        for c in (0, -1, 1.5, "2"):
            assert refused(((OMEGA_LOG, c),)) == (
                "not a normal-form code: OrdCode(terms=((OmegaLog(), %r),))" % (c,))

    def test_exponents_are_normal(self):
        # an exponent is a code built before, or the marker
        assert refused((("W", 1),)) == "not a normal-form code: OrdCode(terms=(('W', 1),))"
        assert refused(((RefOrdCode(RISING), 1),)) == (
            "not a normal-form code: OrdCode(terms=((%r, 1),))" % (RefOrdCode(RISING),))
        assert not validate_nf(OMEGA_LOG) and not validate_nf("W")

    def test_good_codes(self):
        assert validate_nf(OMEGA)
        assert validate_nf(OrdCode(((OMEGA_LOG, 2), (ZERO, 1))))
        assert validate_nf(power(W_PLUS_1))
        assert validate_nf(power(ONE))  # w, below Omega

    def test_random_codes_valid(self):
        rng = random.Random(11)
        for _ in range(1000):
            assert validate_nf(random_code(rng, 10))

    @pytest.mark.parametrize("call, error", [
        (lambda bad: cmp(bad, ONE), AttributeError),
        (lambda bad: cmp(ONE, bad), AttributeError),
        (lambda bad: add(bad, ZERO), AttributeError),
        (lambda bad: add(ONE, bad), AttributeError),
        (lambda bad: nat_sum(bad, ONE), AttributeError),
        (lambda bad: nat_sum(ONE, bad), AttributeError),
        (lambda bad: times_nat(bad, 2), AttributeError),
        (lambda bad: omega_exp(bad), MalformedOrdinalError),
        (lambda bad: omega_tower(1, bad), MalformedOrdinalError),
    ])
    def test_cached_operations_reject_a_non_code_every_time(self, call, error):
        # an operation reads its arguments' terms, and w^bad is a code
        # with the exponent bad, which the constructor refuses; a
        # cached operation keeps no error
        for _ in range(2):
            with pytest.raises(error):
                call("W")


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
        assert parse("w_2(W+1)") == power(power(W_PLUS_1))
        assert parse("w_0(W+1)") == W_PLUS_1
        assert parse("W * 3") == times_nat(OMEGA, 3)
        # every term with its coefficient, below Omega and above it
        assert render(parse("w*2 + 5")) == "w*2 + 5"
        assert render(parse("W + W + w + w + 1 + 1")) == "W*2 + w*2 + 2"
        assert render(parse("w^(W + W + 1) + w^(W + W + 1)")) == "w^(W*2 + 1)*2"

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

    def test_a_long_sum_keeps_no_code_per_term(self):
        # a sum is kept as a list of terms until its bracket closes, so a
        # long sum read a term at a time builds no long code per term
        L = ordinals.MAX_TOWER
        text = " + ".join("w^%d" % n for n in range(L, 0, -1)) + " + 1" * 1000 + " # 1" * 1000
        before = len(ordinals._INTERNED)
        a = parse("(%s) * 3" % text)
        assert len(a.terms) == L + 1 and a.terms[0][1] == 3 and a.terms[-1] == (ZERO, 2000)
        # the naturals n and the powers w^n, each built once, and the result
        assert len(ordinals._INTERNED) - before <= 2 * L + 1

    def test_query(self):
        a, b = parse_query("w^(W+1) ? W")
        assert cmp(a, b) == GREATER
        assert parse_query("W + W") == omega_times(2)


def behaviour_texts():
    """The text of every result the ordinal operations give on the codes
    of size 6 and on 2,000 random codes."""
    rng = random.Random(19)
    codes = enumerate_codes(6)
    randoms = [random_code(rng, rng.randint(1, 10)) for _ in range(2000)]
    for a in codes + randoms:
        yield render(a)
        yield str(tree_size(a))
        for n in (0, 1, 2, 3, 7):
            yield render(times_nat(a, n))
        yield render(omega_exp(a))
        for k in (1, 2, 3):
            yield render(omega_tower(k, a))
        yield render(parse(render(a)))
    pairs = [(a, b) for a in codes for b in codes] + list(zip(randoms, randoms[1:]))
    for a, b in pairs:
        yield str(cmp(a, b))
        yield render(add(a, b))
        yield render(nat_sum(a, b))


def test_behaviour_digest():
    text = "\n".join(behaviour_texts())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "78d4d74b6da02487df587746d7d6cd1c69d4ffd7f3027a2c124d620c7d377ae5")


class TestEnumerate:
    def test_all_valid_and_unique(self):
        codes = enumerate_codes(6)
        assert len(codes) == len(set(codes))
        assert all(validate_nf(c) for c in codes)
        assert all(tree_size(c) <= 6 for c in codes)
        assert OMEGA in codes
        assert ZERO in codes

    def test_monotone_in_budget(self):
        assert set(enumerate_codes(4)) <= set(enumerate_codes(6))


# ---------------------------------------------------------------------------
# Reference implementation: the codes as frozen dataclasses, whose hash,
# repr and equality the interned codes must match, and the operations of
# proofkit.ordinals run over them.
# ---------------------------------------------------------------------------

RefOrdCode = make_dataclass("OrdCode", [("terms", tuple, field(default=()))],
                            frozen=True)
RefOmegaLog = make_dataclass("OmegaLog", [], frozen=True)


def reference_ordinals():
    """A second copy of ``proofkit.ordinals`` whose code classes and
    constants are the reference dataclasses."""
    spec = importlib.util.spec_from_file_location("ordinals_reference",
                                                  ordinals.__file__)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    ref.OrdCode, ref.OmegaLog = RefOrdCode, RefOmegaLog
    ref.OMEGA_LOG = RefOmegaLog()
    ref.ZERO = RefOrdCode()
    ref.ONE = RefOrdCode(((ref.ZERO, 1),))
    ref.SUB_W = RefOrdCode(((ref.ONE, 1),))
    ref.OMEGA = RefOrdCode(((ref.OMEGA_LOG, 1),))
    return ref


def to_ref(x):
    if isinstance(x, OrdCode):
        return RefOrdCode(tuple((to_ref(e), c) for e, c in x.terms))
    if isinstance(x, OmegaLog):
        return RefOmegaLog()
    return x


def outcome(fn, *args):
    """The result of ``fn(*args)`` in reference codes, or the error it raised."""
    try:
        return ("ok", to_ref(fn(*args)))
    except ValueError as e:
        return ("raises", type(e).__name__, str(e))


#: the terms of one code per violation of the normal form
MALFORMED = (
    RISING,  # a rising exponent
    ((OMEGA_LOG, 1), (OMEGA_LOG, 1)),  # an equal exponent
    ((OMEGA_LOG, 0),),  # a coefficient 0
    ((ONE, -1),),  # a negative coefficient
    ((ONE, 1.5),),  # a coefficient that is no int
    ((OMEGA, 1),),  # the exponent Omega, not its marker
    ((OMEGA_LOG, 1), (RefOrdCode(((RefOrdCode(RISING), 1),)), 1)),  # a malformed exponent
)


@pytest.mark.parametrize("terms", MALFORMED)
def test_the_constructor_refuses_a_malformed_code(terms):
    """The text that the operations gave for the malformed code, when one
    could be built: ``repr`` of the reference code with these terms."""
    assert refused(terms) == "not a normal-form code: %r" % (RefOrdCode(terms),)


def comparison_sample():
    rng = random.Random(13)
    randoms = [random_code(rng, rng.randint(1, 10)) for _ in range(2000)]
    return enumerate_codes(6) + randoms


class TestInterning:
    def test_equal_codes_are_identical(self):
        assert OrdCode(((OMEGA_LOG, 1), (ZERO, 1))) is W_PLUS_1
        assert parse("w^(W+1) + 2") is add(power(W_PLUS_1), fin(2))
        assert OrdCode() is ZERO
        assert OmegaLog() is OMEGA_LOG

    def test_hash_is_identity(self):
        # not the dataclass hash: no output of a run follows a set's order
        for a in (OMEGA, ZERO, ONE, OMEGA_LOG):
            assert type(a).__hash__ is object.__hash__
            assert hash(a) == object.__hash__(a)
            assert hash(a) != hash(to_ref(a))

    def test_agrees_with_reference(self):
        ref = reference_ordinals()
        assert ref.parse("W + 1") == RefOrdCode(((RefOmegaLog(), 1), (ref.ZERO, 1)))
        codes = comparison_sample()
        for a in codes:
            r = to_ref(a)
            assert hash(a) == object.__hash__(a)
            assert repr(a) == repr(r)
            assert outcome(render, a) == outcome(ref.render, r)
            assert validate_nf(a) == ref.validate_nf(r)
            assert outcome(omega_exp, a) == outcome(ref.omega_exp, r)
        exhaustive = enumerate_codes(6)
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
        a = W_PLUS_1
        with pytest.raises(AttributeError):
            a.terms = ()
        with pytest.raises(AttributeError):
            del a.terms
        with pytest.raises(AttributeError):
            OMEGA_LOG.terms = ()

    def test_ordcode_is_the_base_of_the_codes(self):
        for a in (ZERO, OMEGA, power(W_PLUS_1), W_PLUS_1):
            assert isinstance(a, OrdCode)
        assert not isinstance(OMEGA_LOG, OrdCode)
