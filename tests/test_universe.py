"""Desk-scale universe: hereditarily finite sets, abstract parameters,
ranks, and hulls."""

import hashlib
import random

import pytest

from proofkit.ordinals import OMEGA, Sub, cmp, cnf_from_int, LESS
from proofkit.universe import (
    Abstract,
    Concrete,
    EMPTY,
    EMPTY_HULL,
    EvaluationError,
    OMEGA_WITNESS,
    HF_LIMIT,
    enumerate_hf,
    hull_contains,
    hull_extend,
    hull_subsumes,
    is_concrete,
    parse_set,
    rank,
    rank_int,
    render_set,
    set_member,
    set_members,
    transitive_closure,
    witness_pool,
)

ONE = Concrete(frozenset({EMPTY}))
TWO = Concrete(frozenset({EMPTY, ONE}))


class TestSets:
    def test_rank(self):
        assert rank_int(EMPTY) == 0
        assert rank_int(ONE) == 1
        assert rank_int(TWO) == 2
        assert rank(TWO) == Sub(cnf_from_int(2))

    def test_abstract_rank(self):
        om = Abstract("om", Sub(cnf_from_int(5)))
        assert rank(om) == Sub(cnf_from_int(5))
        assert not is_concrete(om)

    def test_rank_over_an_abstract_member(self):
        om = Abstract("om", Sub(cnf_from_int(5)))
        inner = Concrete(frozenset({EMPTY, om}))
        assert rank(inner) == Sub(cnf_from_int(6))
        with pytest.raises(EvaluationError):
            rank_int(Concrete(frozenset({inner})))

    def test_omega_witness_rank(self):
        assert cmp(rank(EMPTY), rank(OMEGA_WITNESS)) == LESS
        assert cmp(rank(OMEGA_WITNESS), OMEGA) == LESS

    def test_membership(self):
        assert set_member(EMPTY, ONE)
        assert not set_member(ONE, ONE)
        assert set_members(TWO) == frozenset({EMPTY, ONE})

    def test_membership_needs_concrete(self):
        with pytest.raises(EvaluationError):
            set_member(EMPTY, Abstract("a", Sub(cnf_from_int(1))))

    def test_transitive_closure(self):
        assert transitive_closure(TWO) == frozenset({EMPTY, ONE})
        assert transitive_closure(EMPTY) == frozenset()


class TestRenderParse:
    def test_literals(self):
        assert render_set(EMPTY) == "{}"
        assert parse_set("{}") == EMPTY
        assert parse_set("{{},{{}}}") == TWO

    def test_roundtrip(self):
        for s in enumerate_hf(40):
            assert parse_set(render_set(s)) == s

    def test_params(self):
        om = Abstract("om", Sub(cnf_from_int(1)))
        assert parse_set("om", {"om": om}) == om


class TestEnumerateHf:
    def test_prefix_property(self):
        assert enumerate_hf(1) == [EMPTY]
        small = enumerate_hf(10)
        assert small == enumerate_hf(20)[:10]

    def test_ranks_nondecreasing(self):
        ranks = [rank_int(s) for s in enumerate_hf(30)]
        assert ranks == sorted(ranks)

    def test_distinct(self):
        out = enumerate_hf(50)
        assert len(set(out)) == 50

    def test_order_is_pinned(self):
        h = hashlib.sha256()
        for s in enumerate_hf(HF_LIMIT):
            h.update(render_set(s).encode() + b"\n")
        assert h.hexdigest() == (
            "fb13b8f406b35c7150ba7ff400dc24497af54bcf66710521b9f73962dd45c4da")

    def test_rejects_more_than_it_can_list(self):
        assert HF_LIMIT == 65536
        with pytest.raises(ValueError, match="65536"):
            enumerate_hf(HF_LIMIT + 1)


class TestWitnessPool:
    def test_small_sets_then_parameter_closure(self):
        big = Concrete(frozenset({Concrete(frozenset({TWO}))}))  # rank 4
        pool = witness_pool(8, [big, Abstract("p", Sub(cnf_from_int(1)))])
        assert pool[:8] == enumerate_hf(8)
        assert pool[8:] == [big]  # the sets below it are already listed

    def test_each_set_once_in_repr_order(self):
        a = Concrete(frozenset({TWO, Concrete(frozenset({ONE}))}))
        extra = sorted(transitive_closure(a) | {a}, key=repr)
        pool = witness_pool(1, [a, a])
        assert pool == [EMPTY] + [b for b in extra if b != EMPTY]


class TestHull:
    def test_concrete_always_contained(self):
        assert hull_contains(EMPTY_HULL, TWO)
        assert hull_contains(EMPTY_HULL, EMPTY)

    def test_ordinals_always_contained(self):
        assert hull_contains(EMPTY_HULL, OMEGA)

    def test_omega_witness_always_contained(self):
        assert hull_contains(EMPTY_HULL, OMEGA_WITNESS)

    def test_abstract_needs_generator(self):
        a = Abstract("a", Sub(cnf_from_int(1)))
        assert not hull_contains(EMPTY_HULL, a)
        h = hull_extend(EMPTY_HULL, a)
        assert hull_contains(h, a)

    def test_extend_idempotent(self):
        a = Abstract("a", Sub(cnf_from_int(1)))
        h = hull_extend(EMPTY_HULL, a)
        assert hull_extend(h, a) == h

    def test_concrete_envelope(self):
        a = Abstract("a", Sub(cnf_from_int(1)))
        s = Concrete(frozenset({a}))
        assert not hull_contains(EMPTY_HULL, s)
        assert hull_contains(hull_extend(EMPTY_HULL, a), s)

    def test_concrete_sets_against_a_recursive_walk(self):
        a, b, c = (Abstract(n, Sub(cnf_from_int(1))) for n in "abc")
        hulls = [EMPTY_HULL, hull_extend(EMPTY_HULL, a),
                 hull_extend(EMPTY_HULL, Concrete(frozenset({b, ONE})))]
        rng = random.Random(15)
        checked = {True: 0, False: 0}
        for _ in range(500):
            s = random_desk_set(rng, 4, [EMPTY, ONE, a, b, c])
            for P in hulls:
                for _ in range(2):  # computed and kept, then read back
                    answer = hull_contains(P, s)
                    assert answer == all(hull_contains(P, p) for p in ref_abstract_atoms(s))
                checked[bool(ref_abstract_atoms(s))] += 1
        assert min(checked.values()) > 100

    def test_hereditarily_finite_index_leaves_the_hull(self):
        a, b = (Abstract(n, Sub(cnf_from_int(1))) for n in "ab")
        P = hull_extend(EMPTY_HULL, a)
        for s in (EMPTY, TWO, Concrete(frozenset({TWO}))):
            assert hull_extend(P, s) is P
            assert hull_extend(EMPTY_HULL, s) is EMPTY_HULL
        for s in (Concrete(frozenset({EMPTY, b})),
                  Concrete(frozenset({TWO, Concrete(frozenset({a, b}))}))):
            assert not hull_contains(P, s)
            assert hull_extend(P, s) != P

    def test_subsumes(self):
        a = Abstract("a", Sub(cnf_from_int(1)))
        h = hull_extend(EMPTY_HULL, a)
        assert hull_subsumes(h, EMPTY_HULL)
        assert not hull_subsumes(EMPTY_HULL, h)


def ref_abstract_atoms(a):
    """The abstract parameters hereditarily inside a, by a recursive walk."""
    if isinstance(a, Abstract):
        return {a}
    return set().union(*(ref_abstract_atoms(b) for b in a.members))


def random_desk_set(rng, depth, leaves):
    """A random concrete set of nesting at most ``depth`` over ``leaves``."""
    members = (
        rng.choice(leaves) if depth == 1 or rng.random() < 0.4
        else random_desk_set(rng, depth - 1, leaves)
        for _ in range(rng.randrange(4)))
    return Concrete(frozenset(members))
