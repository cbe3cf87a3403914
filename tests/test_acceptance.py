"""Acceptance suite: the seven properties the package must satisfy,
each with its time budget.

The bound formulas checked here are recomputed inside the tests from
the ordinal arithmetic primitives, independently of the derivation
module's own bookkeeping.
"""

import functools
import random
import time

import pytest

from proofkit.checking import (
    check_local,
    eval_cutfree,
    oracle_sequent,
)
from proofkit.corpus import ONE, TWO, build_corpus
from proofkit.derivations import (
    CutNode,
    Emb,
    Red,
    RefNode,
    Sig,
    TrueLeaf,
    VeeNode,
    WedgeNode,
    elim_cuts,
)
from proofkit.formulas import (
    All,
    And,
    BAll,
    BEx,
    Ex,
    J_UNIVERSE,
    Mem,
    Name,
    NotMem,
    Or,
    Var,
    ZERO_TERM,
    negate,
    reflection_guard,
)
from proofkit.ordinals import (
    EQUAL,
    GREATER,
    LESS,
    OMEGA,
    add,
    cmp,
    enumerate_codes,
    from_nat,
    nat_sum,
    omega_exp,
    random_code,
    times_nat,
)
from proofkit.universe import (
    EMPTY,
    EMPTY_HULL,
    enumerate_hf,
    rank,
    rank_int,
    set_members,
)

M00 = Mem(ZERO_TERM, ZERO_TERM)  # false
M01 = Mem(ZERO_TERM, Name(ONE))  # true


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                "time budget exceeded: %.1fs of %.1fs" % (elapsed, self.seconds)
            )


def test_1_ordinal_law_suite():
    """Trichotomy, transitivity, addition laws, and the omega-power
    inequality over at least ten thousand random normal codes."""
    with Budget(30):
        rng = random.Random(20240817)
        codes = [random_code(rng, 10) for _ in range(10_000)]

        failures = 0
        for i in range(0, len(codes) - 2, 3):
            a, b, c = codes[i], codes[i + 1], codes[i + 2]
            # trichotomy with antisymmetry
            ab, ba = cmp(a, b), cmp(b, a)
            if (ab, ba) not in ((LESS, GREATER), (GREATER, LESS), (EQUAL, EQUAL)):
                failures += 1
            if cmp(a, a) != EQUAL:
                failures += 1
            # transitivity
            if ab == LESS and cmp(b, c) == LESS and cmp(a, c) != LESS:
                failures += 1
            # addition laws
            if add(add(a, b), c) != add(a, add(b, c)):
                failures += 1
            if nat_sum(a, b) != nat_sum(b, a):
                failures += 1
            if nat_sum(nat_sum(a, b), c) != nat_sum(a, nat_sum(b, c)):
                failures += 1
            if cmp(b, c) == LESS and cmp(add(a, b), add(a, c)) != LESS:
                failures += 1
            if cmp(b, c) == LESS and cmp(nat_sum(a, b), nat_sum(a, c)) != LESS:
                failures += 1
            # beta < alpha implies omega^beta + omega^beta <= omega^alpha
            lo, hi = (a, b) if ab == LESS else (b, a)
            if cmp(lo, hi) == LESS:
                w = omega_exp(lo)
                if cmp(add(w, w), omega_exp(hi)) == GREATER:
                    failures += 1
        assert failures == 0


def test_2_bounded_well_foundedness():
    """The comparison is a strict total order on every normal code of
    tree size at most 8, exhaustively: no cycles, so each strictly
    descending chain is finite."""
    with Budget(60):
        codes = enumerate_codes(8)
        assert len(codes) > 100
        ranked = sorted(codes, key=functools.cmp_to_key(
            lambda a, b: {LESS: -1, EQUAL: 0, GREATER: 1}[cmp(a, b)]
        ))
        # distinct normal forms denote distinct ordinals
        for earlier, later in zip(ranked, ranked[1:]):
            assert cmp(earlier, later) == LESS
        # exhaustive pairwise consistency with the ranking
        position = {c: i for i, c in enumerate(ranked)}
        for i, a in enumerate(ranked):
            for b in ranked[i + 1:]:
                assert cmp(a, b) == LESS
                assert cmp(b, a) == GREATER
        # the longest strictly descending chain is the reversed ranking
        chain = list(reversed(ranked))
        for x, y in zip(chain, chain[1:]):
            assert cmp(y, x) == LESS
        assert len(chain) == len(codes)  # and it terminates


def _expected_emb_bound(m, assignment):
    acc = times_nat(OMEGA, m)
    for key in sorted(assignment):
        acc = nat_sum(acc, times_nat(rank(assignment[key]), 3))
    return acc


def test_3_embedding_signatures():
    """Every corpus proof embeds at the stated rank and at exactly the
    bound Omega*m naturally summed with 3*rank(a) per parameter."""
    with Budget(10):
        entries = build_corpus()
        assert len(entries) >= 10
        for e in entries:
            d = Emb(e.script.root, e.script.assignment, EMPTY_HULL)
            m = d.sig.rank
            assert d.sig.bound == _expected_emb_bound(m, e.script.assignment), e.name
            if not e.script.assignment:  # closed end sequent
                assert d.sig.bound == times_nat(OMEGA, m), e.name


def test_4_cut_elimination_bound():
    """m elimination rounds on the one-cut proof reach rank 0 at the
    m-fold omega power of Omega*m."""
    with Budget(10):
        e = next(x for x in build_corpus() if x.name == "one-cut")
        d = Emb(e.script.root, {}, EMPTY_HULL)
        m = d.sig.rank
        assert m == 2
        for _ in range(m):
            d = elim_cuts(d)
        assert d.sig.rank == 0
        expected = times_nat(OMEGA, m)
        for _ in range(m):
            expected = omega_exp(expected)
        assert d.sig.bound == expected


def _sig(members, bound=1, rank_=0, hull=EMPTY_HULL):
    return Sig(hull, from_nat(bound), rank_, frozenset(members))


def _mutants():
    """Deliberately broken explicit nodes, one per side condition."""
    A_ex = Ex("x", Mem(ZERO_TERM, Var("x")))
    comp = Mem(ZERO_TERM, Name(ONE))

    false_leaf = TrueLeaf(_sig([M00]), M00)

    main_missing = VeeNode(
        _sig([M01]), A_ex, ONE, TrueLeaf(_sig([M01, comp], bound=0), comp)
    )

    no_descent = VeeNode(
        _sig([A_ex], bound=1), A_ex, ONE,
        TrueLeaf(_sig([A_ex, comp], bound=1), comp),
    )

    deep_cut = CutNode(
        _sig([M01], bound=1, rank_=0),
        M00,
        TrueLeaf(_sig([negate(M00), M01], bound=0), negate(M00)),
        TrueLeaf(_sig([M00, M01], bound=0), M01),
    )

    sigma = Ex("x", All("y", Ex("z", Mem(Var("x"), Var("z")))))
    guard = reflection_guard(sigma, ZERO_TERM)
    bad_ref = RefNode(
        _sig([M01], bound=1), sigma, ZERO_TERM, guard,
        TrueLeaf(_sig([M01, sigma], bound=0), M01),
        TrueLeaf(_sig([M01, guard], bound=0), M01),
    )

    premise_mismatch = VeeNode(
        _sig([A_ex]), A_ex, ONE, TrueLeaf(_sig([M01], bound=0), M01)
    )

    wrong_polarity_main = And(A_ex, M01)
    wrong_polarity = VeeNode(
        _sig([wrong_polarity_main]), wrong_polarity_main, 1,
        TrueLeaf(_sig([wrong_polarity_main, M01], bound=0), M01),
    )

    binary = And(A_ex, Or(A_ex, M01))
    wrong_index_set = WedgeNode(
        _sig([binary]), binary, J_UNIVERSE,
        lambda i: TrueLeaf(_sig([binary, M01], bound=0), M01),
    )

    return [
        ("false leaf", false_leaf),
        ("main formula missing", main_missing),
        ("no descent", no_descent),
        ("cut too deep", deep_cut),
        ("reflection class", bad_ref),
        ("premise mismatch", premise_mismatch),
        ("wrong polarity", wrong_polarity),
        ("wrong index set", wrong_index_set),
    ]


def test_5_local_correctness():
    """Depth-3 local checks pass on every corpus embedding and every
    elimination round, and fail on each mutated term."""
    with Budget(120):
        for e in build_corpus():
            d = Emb(e.script.root, e.script.assignment, EMPTY_HULL)
            report = check_local(d, 3)
            assert report.passed, (e.name, report.violations)
            for round_ in range(d.sig.rank):
                d = elim_cuts(d)
                report = check_local(d, 3)
                assert report.passed, (e.name, round_, report.violations)

        mutants = _mutants()
        assert len(mutants) >= 6
        for name, bad in mutants:
            report = check_local(bad, 3)
            assert not report.passed, name


def test_6_desk_scale_soundness():
    """Cut-free, reflection-free corpus outputs over concrete
    parameters are certified true, in agreement with the brute-force
    oracle."""
    with Budget(60):
        covered = 0
        for e in build_corpus():
            if not e.concrete or e.has_ref:
                continue
            d = Emb(e.script.root, e.script.assignment, EMPTY_HULL)
            assert all(rank_int(a) <= 3 for a in _concrete_support(d))
            for _ in range(d.sig.rank):
                d = elim_cuts(d)
            result = eval_cutfree(d, 8)
            assert result.status == "verified-true", (e.name, result)
            assert oracle_sequent(d.sig.seq), e.name
            covered += 1
        assert covered >= 8


def _concrete_support(d):
    from proofkit.formulas import support

    return support(d.sig.seq)


def _reduction_instances():
    """Small reduction inputs whose outputs fully expand at depth 4:
    a false bounded cut formula, certified premises on both sides."""
    hf = enumerate_hf(6)
    out = []
    # false membership atoms
    for a in hf:
        for b in hf:
            if a in set_members(b):
                continue
            out.append(Mem(Name(a), Name(b)))
    # false negated memberships
    for b in hf:
        for a in set_members(b):
            out.append(NotMem(Name(a), Name(b)))
    # false disjunctions and bounded quantifications
    out.append(Or(M00, Mem(Name(ONE), Name(ONE))))
    out.append(BEx("x", Name(TWO), Mem(Name(TWO), Var("x"))))
    out.append(BAll("x", Name(TWO), Mem(Var("x"), ZERO_TERM)))
    return out


def test_7_reduction_oracle_equivalence():
    """On at least twenty fully expanding instances, reduction ends in
    the combined sequent at the added bound and stays certified true."""
    with Budget(60):
        side_truths = [M01, Mem(Name(ONE), Name(TWO)), negate(M00)]
        instances = 0
        for n, C in enumerate(_reduction_instances()):
            g0 = side_truths[n % len(side_truths)]
            g1 = side_truths[(n + 1) % len(side_truths)]
            d0 = TrueLeaf(_sig([negate(C), g0], bound=2 + n % 3), negate(C))
            d1 = TrueLeaf(_sig([C, g1], bound=1 + n % 4), g1)
            r = Red(C, d0, d1)
            delta = d0.sig.seq - {negate(C)}
            gamma = d1.sig.seq - {C}
            assert r.sig.seq == delta | gamma
            assert r.sig.bound == add(d0.sig.bound, d1.sig.bound)
            report = check_local(r, 4)
            assert report.passed, (n, report.violations)
            result = eval_cutfree(r, 4)
            assert result.status == "verified-true", (n, result)
            assert oracle_sequent(r.sig.seq)
            instances += 1
        assert instances >= 20
