"""Desk-scale universe: hereditarily finite sets, abstract parameters,
ranks, and hulls."""

import copy
import hashlib
import pickle
import random

import pytest

from proofkit import universe
from proofkit.finitary import parse_script
from proofkit.ordinals import (OMEGA, ONE as ORD_ONE, ZERO, MalformedOrdinalError, OrdCode, add,
                               cmp, from_nat, LESS)
from proofkit.universe import (
    Abstract,
    Concrete,
    EMPTY,
    EMPTY_HULL,
    EvaluationError,
    Hull,
    OMEGA_WITNESS,
    HF_LIMIT,
    enumerate_hf,
    hull_at,
    hull_contains,
    hull_extend,
    hull_subsumes,
    is_concrete,
    parse_set,
    rank,
    rank_int,
    render_set,
    set_facts,
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
        assert rank(TWO) == from_nat(2)

    def test_abstract_rank(self):
        om = Abstract("om", from_nat(5))
        assert rank(om) == from_nat(5)
        assert not is_concrete(om)

    def test_abstract_rank_is_a_normal_code_below_omega(self):
        for bad in (OMEGA, add(OMEGA, ORD_ONE), 5):
            with pytest.raises(ValueError, match="^parameter ranks lie below Omega$"):
                Abstract("p", bad)
        # a rank that is not in normal form is never built
        with pytest.raises(MalformedOrdinalError, match=r"^not a normal-form code: OrdCode\(terms="):
            OrdCode(((ZERO, 1), (ORD_ONE, 1)))

    def test_rank_over_an_abstract_member(self):
        om = Abstract("om", from_nat(5))
        inner = Concrete(frozenset({EMPTY, om}))
        assert rank(inner) == from_nat(6)
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
        with pytest.raises(EvaluationError,
                           match="^membership in abstract parameter 'a' is undecidable$"):
            set_member(EMPTY, Abstract("a", from_nat(1)))

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
        om = Abstract("om", from_nat(1))
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
        message = "only the first 65536 hereditarily finite sets are enumerable, asked for 70000"
        with pytest.raises(ValueError, match="^%s$" % message):
            enumerate_hf(70000)


class TestWitnessPool:
    def test_small_sets_then_parameter_closure(self):
        big = Concrete(frozenset({Concrete(frozenset({TWO}))}))  # rank 4
        pool = witness_pool(8, [big, Abstract("p", from_nat(1))])
        assert pool[:8] == enumerate_hf(8)
        assert pool[8:] == [big]  # the sets below it are already listed

    def test_each_set_once_in_repr_order(self):
        a = Concrete(frozenset({TWO, Concrete(frozenset({ONE}))}))
        extra = sorted(transitive_closure(a) | {a}, key=repr)
        pool = witness_pool(1, [a, a])
        assert pool == [EMPTY] + [b for b in extra if b != EMPTY]

    def test_the_parameters_are_read_in_repr_order(self):
        A = parse_set("{{{{{}}}}}")
        B = parse_set("{{{{},{{}}}}}")
        assert witness_pool(4, [A, B]) == witness_pool(4, [B, A])
        assert witness_pool(4, {A, B}) == witness_pool(4, [A, B])

    def test_a_parameter_keeps_its_closure_in_order(self, monkeypatch):
        a = Concrete(frozenset({TWO, Concrete(frozenset({Concrete(frozenset({TWO}))}))}))
        first = witness_pool(3, [a])
        kept = a._closure
        assert kept == tuple(sorted(transitive_closure(a) | {a}, key=repr))
        calls = []
        monkeypatch.setattr(universe, "transitive_closure", lambda x: calls.append(x))
        assert witness_pool(3, [a]) == first and a._closure is kept
        assert calls == []
        assert a.__reduce__() == (Concrete, (a.members,)) and "_closure" not in repr(a)


class TestHull:
    def test_concrete_always_contained(self):
        assert hull_contains(EMPTY_HULL, TWO)
        assert hull_contains(EMPTY_HULL, EMPTY)

    def test_ordinals_always_contained(self):
        assert hull_contains(EMPTY_HULL, OMEGA)

    def test_omega_witness_always_contained(self):
        assert hull_contains(EMPTY_HULL, OMEGA_WITNESS)

    def test_abstract_needs_generator(self):
        a = Abstract("a", from_nat(1))
        assert not hull_contains(EMPTY_HULL, a)
        h = hull_extend(EMPTY_HULL, a)
        assert hull_contains(h, a)

    def test_extend_idempotent(self):
        a = Abstract("a", from_nat(1))
        h = hull_extend(EMPTY_HULL, a)
        assert hull_extend(h, a) == h

    def test_concrete_envelope(self):
        a = Abstract("a", from_nat(1))
        s = Concrete(frozenset({a}))
        assert not hull_contains(EMPTY_HULL, s)
        assert hull_contains(hull_extend(EMPTY_HULL, a), s)

    def test_concrete_sets_against_a_recursive_walk(self):
        a, b, c = (Abstract(n, from_nat(1)) for n in "abc")
        hulls = [EMPTY_HULL, hull_extend(EMPTY_HULL, a),
                 hull_extend(EMPTY_HULL, Concrete(frozenset({b, ONE}))),
                 Hull(frozenset({b, Concrete(frozenset({TWO, Concrete(frozenset({c}))}))}))]
        checked = {True: 0, False: 0}
        for s in random_desk_sets(15, [a, b, c]):
            for P in hulls:
                for _ in range(2):  # computed and kept, then read back
                    assert hull_contains(P, s) == ref_hull_contains(P, s)
                checked[bool(ref_abstract_atoms(s))] += 1
            for p in (a, b, c, OMEGA_WITNESS):
                assert [hull_contains(P, p) for P in hulls] == [
                    ref_hull_contains(P, p) for P in hulls]
        assert min(checked.values()) > 100

    def test_hereditarily_finite_index_leaves_the_hull(self):
        a, b = (Abstract(n, from_nat(1)) for n in "ab")
        P = hull_extend(EMPTY_HULL, a)
        for s in (EMPTY, TWO, Concrete(frozenset({TWO}))):
            assert hull_extend(P, s) is P
            assert hull_extend(EMPTY_HULL, s) is EMPTY_HULL
        for s in (Concrete(frozenset({EMPTY, b})),
                  Concrete(frozenset({TWO, Concrete(frozenset({a, b}))}))):
            assert not hull_contains(P, s)
            assert hull_extend(P, s) != P

    def test_hull_at_a_set_is_its_extension(self):
        a = Abstract("a", from_nat(1))
        P = hull_extend(EMPTY_HULL, Abstract("b", from_nat(1)))
        fresh = parse_set("{{{{{{{}}}}},{{{},{{}}}}}}")
        object.__setattr__(fresh, "_facts", None)  # as if never asked for
        assert hull_at(P, fresh) is P and fresh._facts is not None
        for s in (fresh, EMPTY, TWO, a, Concrete(frozenset({a, ONE}))):
            assert hull_at(P, s) is hull_extend(P, s)
        assert hull_at(P, 0) is P and hull_at(P, 1) is P

    def test_not_a_desk_set_is_refused(self):
        for x in ("p", 0, Hull(frozenset())):
            with pytest.raises(TypeError, match="^hull membership is defined for desk sets and codes$"):
                hull_contains(EMPTY_HULL, x)

    def test_subsumes(self):
        a = Abstract("a", from_nat(1))
        h = hull_extend(EMPTY_HULL, a)
        assert hull_subsumes(h, EMPTY_HULL)
        assert not hull_subsumes(EMPTY_HULL, h)


class TestSetFacts:
    """set_facts against the recursive walks it replaced."""

    def test_against_recursive_walks(self):
        # the sets of test_concrete_sets_against_a_recursive_walk, one
        # parameter of infinite rank
        leaves = [Abstract("a", from_nat(1)), Abstract("b", from_nat(1)),
                  Abstract("c", OMEGA_WITNESS.declared_rank)]
        checked = {True: 0, False: 0}
        for s in random_desk_sets(15, leaves) + enumerate_hf(300):
            for _ in range(2):  # computed and kept, then read back
                assert is_concrete(s) == ref_is_concrete(s)
                assert rank(s) == ref_rank(s)
                assert render_set(s) == ref_render_set(s)
                assert repr(s) == "Concrete(%s)" % ref_render_set(s)
                assert rank_int_outcome(rank_int, s) == rank_int_outcome(ref_rank_int, s)
            assert set_facts(s) is set_facts(s)
            assert set_facts(s).atoms == ref_abstract_atoms(s)
            checked[ref_is_concrete(s)] += 1
        assert min(checked.values()) > 100
        for p in leaves:
            assert (is_concrete(p), rank(p), render_set(p)) == (False, p.declared_rank, p.name)
            assert rank_int_outcome(rank_int, p) == rank_int_outcome(ref_rank_int, p)

    def test_the_record_is_not_a_field(self):
        a = Abstract("a", from_nat(1))
        for s in random_desk_sets(17, [a])[:200]:
            F = set_facts(s)
            assert s._facts is F
            assert s.__reduce__() == (Concrete, (s.members,))
            assert hash(s) == object.__hash__(s)
            assert repr(s) == "Concrete(%s)" % F.text
        with pytest.raises(AttributeError):
            s._facts = None


class TestInterning:
    def test_equal_sets_are_one_object(self):
        a = Abstract("a", from_nat(1))
        for s in random_desk_sets(19, [a]) + enumerate_hf(100):
            assert Concrete(frozenset(s.members)) is s
            assert Concrete(frozenset(sorted(s.members, key=ref_render_set))) is s
            # the identity hash: what a run writes never follows a set's order
            assert hash(s) == object.__hash__(s)
            assert copy.copy(s) is s and copy.deepcopy(s) is s
            assert pickle.loads(pickle.dumps(s)) is s
            assert repr(s) == "Concrete(%s)" % ref_render_set(s)

    def test_equal_hulls_are_one_object(self):
        p = Abstract("p", from_nat(1))
        h = Hull(frozenset({p, TWO}))
        assert Hull(frozenset({TWO, Abstract("p", from_nat(1))})) is h
        assert hull_extend(hull_extend(EMPTY_HULL, TWO), p) is hull_extend(EMPTY_HULL, p)
        assert Hull(frozenset()) is EMPTY_HULL and h != EMPTY_HULL
        # the identity hash: what a run writes never follows a set's order
        assert hash(h) == object.__hash__(h)
        assert copy.copy(h) is h and copy.deepcopy(h) is h
        assert pickle.loads(pickle.dumps(h)) is h
        assert repr(h) == "Hull(p, {{{}},{}})"
        with pytest.raises(AttributeError):
            h.generators = frozenset()

    def test_equal_parameters_are_one_object(self):
        p = Abstract("p", ORD_ONE)
        assert Abstract("p", ORD_ONE) is p
        assert Abstract(name="p", declared_rank=from_nat(1)) is p
        assert Abstract("p", from_nat(2)) is not p and Abstract("q", ORD_ONE) is not p
        # the identity hash: the traces never follow a hull's or a
        # support's order
        assert hash(p) == object.__hash__(p)
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        assert pickle.loads(pickle.dumps(p)) is p
        assert repr(p) == "Abstract('p')"
        assert Abstract("omega", OMEGA_WITNESS.declared_rank) is OMEGA_WITNESS
        with pytest.raises(AttributeError):
            p.name = "q"
        # the rank is checked before the parameter is interned
        with pytest.raises(ValueError, match="^parameter ranks lie below Omega$"):
            Abstract("p", OMEGA)

    def test_scripts_read_one_set_for_equal_parameters(self):
        def read(rank):
            script = parse_script(
                "param p rank %d\nassign x {p}\n"
                "n1 logax (seq (in 0 {p}) (notin 0 {p})) main=(in 0 {p})\n" % rank)
            (value,) = {A.right.value for A in script.root.conclusion}
            assert value is script.assignment["x"]
            return value

        assert read(1) is read(1)
        assert read(2) is read(2)
        assert read(2) is not read(1) and read(2) != read(1)


def ref_is_concrete(a):
    if isinstance(a, Abstract):
        return False
    return all(ref_is_concrete(b) for b in a.members)


def ref_rank(a):
    if isinstance(a, Abstract):
        return a.declared_rank
    best = ZERO
    for b in a.members:
        succ = add(ref_rank(b), ORD_ONE)
        if cmp(best, succ) == LESS:
            best = succ
    return best


def ref_rank_int(a):
    if isinstance(a, Abstract):
        raise EvaluationError("rank_int needs a concrete set")
    if not a.members:
        return 0
    return 1 + max(ref_rank_int(b) for b in a.members)


def ref_render_set(a):
    if isinstance(a, Abstract):
        return a.name
    return "{" + ",".join(sorted(ref_render_set(b) for b in a.members)) + "}"


def rank_int_outcome(fn, a):
    """fn(a), or the type and message of the error it raises."""
    try:
        return fn(a)
    except EvaluationError as e:
        return type(e), str(e)


def ref_hull_contains(P, x):
    """hull_contains by a transitive closure walk per generator."""
    if isinstance(x, Abstract):
        return x == OMEGA_WITNESS or any(
            g == x or x in transitive_closure(g) for g in P.generators)
    return all(ref_hull_contains(P, p) for p in ref_abstract_atoms(x))


def ref_abstract_atoms(a):
    """The abstract parameters hereditarily inside a, by a recursive walk."""
    if isinstance(a, Abstract):
        return {a}
    return set().union(*(ref_abstract_atoms(b) for b in a.members))


def random_desk_sets(seed, abstract, count=500):
    """``count`` random concrete sets of nesting at most 4 over the empty
    set, {0} and the ``abstract`` parameters."""
    rng = random.Random(seed)
    return [random_desk_set(rng, 4, [EMPTY, ONE, *abstract]) for _ in range(count)]


def random_desk_set(rng, depth, leaves):
    """A random concrete set of nesting at most ``depth`` over ``leaves``."""
    members = (
        rng.choice(leaves) if depth == 1 or rng.random() < 0.4
        else random_desk_set(rng, depth - 1, leaves)
        for _ in range(rng.randrange(4)))
    return Concrete(frozenset(members))
