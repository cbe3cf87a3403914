"""A small corpus of checked finitary proofs: logical tautologies of
depths 0 through 3, one instance of each set-existence axiom, a
foundation instance over a transitive rank-3 set and one with an
unbounded induction formula, a reflection instance at the lowest
admissible level, a proof with a single cut, and the rules ``ex``,
``all``, ``and``, ``or`` and ``bex`` (witness inside the bound) over
unbounded formulas.  So it takes every axiom schema and every rule but
``ball``.  The embedding derives ``ball``, ``bex`` outside its bound
and bounded ``or`` and ``and`` by cutting a false bounded formula
against a true leaf at rank 0 below a cut of positive rank; those wait
until that leaf is fitted to the cut rank.

Each entry records whether its parameters are fully concrete (so the
soundness evaluator applies) and whether its embedding contains a
reflection inference (which the evaluator cannot certify).  An axiom
entry names only its rule and witnesses: its conclusion is the instance
``finitary.axiom_instance`` builds from them, through the one table
that declares each schema for the checker too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .finitary import ProofNode, ProofScript, axiom_instance, post_order
from .formulas import (
    All,
    And,
    BEx,
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
from .universe import Concrete, EMPTY


def _hf(*members) -> Concrete:
    return Concrete(frozenset(members))


ONE = _hf(EMPTY)  # {0}
TWO = _hf(EMPTY, ONE)  # {0, {0}}
#: transitive set of rank 3
TRANS3 = _hf(EMPTY, ONE, _hf(ONE))


@dataclass
class CorpusEntry:
    name: str
    script: ProofScript
    concrete: bool = True  # parameters all concrete

    @property
    def has_ref(self) -> bool:
        """The script has a reflection axiom, so its embedding contains
        a reflection inference."""
        return any(n.rule == "axiom:reflection" for n in post_order(self.script.root))


def _entry(name, root, assignment=None, **flags):
    return CorpusEntry(name, ProofScript(root, {}, assignment or {}), **flags)


def _logax(A):
    return ProofNode("logax", seq(A, negate(A)), main=A)


def taut_depth0():
    return _entry("taut-depth0", _logax(Mem(ZERO_TERM, ZERO_TERM)))


def taut_depth1():
    return _entry("taut-depth1", _logax(Ex("y", Mem(ZERO_TERM, Var("y")))))


def taut_depth2():
    return _entry("taut-depth2", _logax(Ex("x", Ex("y", Mem(Var("x"), Var("y"))))))


def taut_depth3():
    body = Or(Mem(Var("x"), Var("y")), Mem(Var("y"), Var("z")))
    return _entry("taut-depth3", _logax(Ex("x", Ex("y", Ex("z", body)))))


def _axiom(name, rule, assignment=None, concrete=True, **witnesses):
    """The entry of one axiom node, concluding the instance its
    witnesses give."""
    node = ProofNode(rule, seq(), **witnesses)
    root = replace(node, conclusion=seq(axiom_instance(node, 2)))
    return _entry(name, root, assignment, concrete=concrete)


def pair_instance():
    return _axiom("pair", "axiom:pair", term=ZERO_TERM, term2=Name(ONE))


def union_instance():
    """Union over a free variable, closed by the assignment."""
    return _axiom("union", "axiom:union", {"a": TWO}, term=Var("a"))


def extensionality_instance():
    return _axiom("extensionality", "axiom:extensionality",
                  term=ZERO_TERM, term2=ZERO_TERM, term3=Name(ONE))


def separation_instance():
    return _axiom("separation", "axiom:separation",
                  term=Name(TWO), var="x", formula=Mem(Var("x"), Name(ONE)))


def collection_instance():
    return _axiom("collection", "axiom:collection",
                  term=Name(ONE), var="x", var2="y", formula=Mem(Var("x"), Var("y")))


def infinity_instance():
    return _axiom("infinity", "axiom:infinity", concrete=False)


def foundation_instance():
    return _axiom("foundation", "axiom:foundation",
                  var="x", var2="y", formula=Mem(Var("x"), Name(TRANS3)))


def reflection_instance():
    """A reflection instance whose formula sits exactly at level Pi_3."""
    body = Or(NotMem(Var("z"), Var("x")), Or(Mem(Var("z"), Var("y")), Mem(ZERO_TERM, Var("y"))))
    return _axiom("reflection", "axiom:reflection",
                  formula=All("x", Ex("y", All("z", body))), term=ZERO_TERM, var="c")


def one_cut_proof():
    """A cut on a bounded formula below a disjunctive conclusion; its
    embedding has rank 2 and each elimination round lowers it."""
    m0 = Mem(ZERO_TERM, ZERO_TERM)
    D = Or(m0, negate(m0))
    left = ProofNode("or", seq(D, negate(m0)), (_logax(m0),), main=D)
    right = ProofNode("or", seq(m0, D), (_logax(m0),), main=D)
    root = ProofNode("cut", seq(D), (left, right), formula=m0)
    return _entry("one-cut", root)


def ex_all_or_proof():
    """The existential, universal and disjunctive rules over unbounded
    formulas: (exists y, y notin 0) or (forall x, x in 0), from the
    logical axiom on x in 0 with x as witness and as eigenvariable."""
    x = Var("x")
    ex_part = Ex("y", NotMem(Var("y"), ZERO_TERM))
    all_part = All("x", Mem(x, ZERO_TERM))
    ax = ProofNode("logax", seq(ex_part, all_part, NotMem(x, ZERO_TERM), Mem(x, ZERO_TERM)),
                   main=Mem(x, ZERO_TERM))
    ex = ProofNode("ex", seq(ex_part, all_part, Mem(x, ZERO_TERM)), (ax,),
                   main=ex_part, term=x)
    gen = ProofNode("all", seq(ex_part, all_part), (ex,), main=all_part, var="x")
    D = Or(ex_part, all_part)
    return _entry("ex-all-or", ProofNode("or", seq(D), (gen,), main=D))


def and_proof():
    """The conjunctive rule over an unbounded formula, with one premise
    shared by both conjuncts."""
    A = Ex("y", NotMem(Var("y"), ZERO_TERM))
    ax = ProofNode("logax", seq(A, negate(A)), main=A)
    C = And(A, A)
    return _entry("and", ProofNode("and", seq(C, negate(A)), (ax, ax), main=C))


def bex_proof():
    """The bounded existential rule with its witness 0 inside the bound
    {0}, on an unbounded body."""
    one = Name(ONE)
    side = (NotMem(ZERO_TERM, one), All("y", NotMem(ZERO_TERM, Var("y"))))
    inside = ProofNode("logax", seq(Mem(ZERO_TERM, one), *side), main=Mem(ZERO_TERM, one))
    body = Ex("y", Mem(ZERO_TERM, Var("y")))
    holds = ProofNode("logax", seq(body, *side), main=body)
    B = BEx("x", one, Ex("y", Mem(Var("x"), Var("y"))))
    root = ProofNode("bex", seq(B, *side), (inside, holds), main=B, term=ZERO_TERM)
    return _entry("bex", root)


def foundation_unbounded_instance():
    """A foundation instance whose induction formula is unbounded, so
    its embedding derives each step by induction on rank."""
    return _axiom("foundation-unbounded", "axiom:foundation",
                  var="x", var2="z", formula=All("y", Mem(Var("x"), Var("y"))))


BUILDERS = [
    taut_depth0,
    taut_depth1,
    taut_depth2,
    taut_depth3,
    pair_instance,
    union_instance,
    extensionality_instance,
    separation_instance,
    collection_instance,
    infinity_instance,
    foundation_instance,
    reflection_instance,
    one_cut_proof,
    ex_all_or_proof,
    and_proof,
    bex_proof,
    foundation_unbounded_instance,
]


def build_corpus() -> list:
    return [b() for b in BUILDERS]
