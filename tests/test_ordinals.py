"""Ordinal notation system: normal forms, ordering, arithmetic."""

import random

import pytest

from proofkit.ordinals import (
    CNF_ONE,
    CNF_W,
    CNF_ZERO,
    EQUAL,
    GREATER,
    LESS,
    MalformedOrdinalError,
    OMEGA,
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


class TestTimesNat:
    def test_zero(self):
        assert times_nat(OMEGA, 0) == ZERO

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
