"""Desk-scale set universe: hereditarily finite sets, named abstract
parameters, ranks, and symbolic hull descriptors.

Concrete sets are honest hereditarily finite sets and support exact
truth evaluation of bounded formulas.  Abstract sets are named
parameters with a declared rank; they stand in for members of the
(uncountable) intended universe that have no finite presentation, and
any attempt to evaluate membership questions about them raises
``EvaluationError``.

A ``Hull`` is a certificate-style descriptor of the smallest transitive
admissible hull generated by a finite set of parameters.  Membership is
a decidable syntactic closure check, not genuine admissibility: every
hereditarily finite set is a member, a generator and everything in its
transitive closure is a member, and ordinal codes are members because
the code set below epsilon_0 is generated from 0 by addition, natural
sum and base-omega exponentiation, all of which every hull is closed
under.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .ordinals import (LESS, OMEGA, ONE, SUB_W, ZERO, OrdCode, _Interned, add, cmp,
                       validate_nf)


class EvaluationError(Exception):
    """A truth evaluation hit an abstract parameter or an opaque atom."""


# ---------------------------------------------------------------------------
# desk sets


class Concrete(_Interned):
    """A hereditarily finite set, given extensionally.  Sets are interned
    with the ordinal codes: ``Concrete(members)`` returns the one object
    for those members, so ``==`` and ``hash`` both read identity.  So the
    members, a frozenset, iterate in an order that follows addresses,
    and what a run writes reads them in a sorted order (``set_facts``,
    ``witness_pool``).  It keeps its record of facts (``set_facts``) and
    its closure in pool order (``witness_pool``) once computed, in slots
    that the key, ``repr`` and ``__reduce__`` do not see."""

    __slots__ = ("members", "_facts", "_closure")
    members: frozenset

    def __new__(cls, members: frozenset) -> Concrete:
        return cls._intern((members,))

    def _fields(self) -> tuple:
        return (self.members,)

    def __repr__(self):
        return "Concrete(%s)" % (render_set(self),)


class Abstract(_Interned):
    """An interned set parameter: a name with a declared rank below Omega."""

    __slots__ = ("name", "declared_rank")
    name: str
    declared_rank: OrdCode

    def __new__(cls, name: str, declared_rank: OrdCode) -> Abstract:
        if not (validate_nf(declared_rank) and cmp(declared_rank, OMEGA) == LESS):
            raise ValueError("parameter ranks lie below Omega")
        return cls._intern((name, declared_rank))

    def __repr__(self):
        return "Abstract(%r)" % (self.name,)


DeskSet = Concrete | Abstract

EMPTY = Concrete(frozenset())

#: Distinguished parameter witnessing the infinity axiom.  No
#: hereditarily finite witness exists, so embedding that axiom uses this
#: always-available abstract set; hulls treat it as a free member.
OMEGA_WITNESS = Abstract("omega", SUB_W)


class SetFacts(NamedTuple):
    """What the calculus reads off a desk set, kept on a concrete set by
    ``set_facts``."""

    atoms: frozenset  # the abstract parameters inside, an abstract set itself
    rank: OrdCode
    text: str  # the literal, members in the order of their texts


def set_facts(a: DeskSet) -> SetFacts:
    """a's record, built from its members' records the first time it is
    asked for and kept on a concrete a.  A set's rank is the least
    ordinal above its members' ranks; an abstract set's is declared."""
    if isinstance(a, Abstract):
        return SetFacts(frozenset({a}), a.declared_rank, a.name)
    F = a._facts
    if F is not None:
        return F
    parts = [set_facts(b) for b in a.members]
    r = ZERO
    for p in parts:
        succ = add(p.rank, ONE)
        if cmp(r, succ) == LESS:
            r = succ
    F = SetFacts(frozenset().union(*(p.atoms for p in parts)), r,
                 "{" + ",".join(sorted(p.text for p in parts)) + "}")
    object.__setattr__(a, "_facts", F)
    return F


def is_concrete(a: DeskSet) -> bool:
    """True when *a* and everything hereditarily inside it is Concrete."""
    return not set_facts(a).atoms


def rank(a: DeskSet) -> OrdCode:
    """Set-theoretic rank: sup of member ranks plus one, or the declared one."""
    return set_facts(a).rank


def rank_int(a: DeskSet) -> int:
    """Rank of a fully concrete set as a plain integer; EvaluationError
    when an abstract parameter is inside."""
    F = set_facts(a)
    if F.atoms:
        raise EvaluationError("rank_int needs a concrete set")
    terms = F.rank.terms  # a finite rank: none, or the one term w^0 * n
    return terms[0][1] if terms else 0


def transitive_closure(a: DeskSet) -> frozenset:
    """All desk sets hereditarily reachable from *a*, excluding *a* itself.

    Abstract members contribute themselves (their elements are unknown).
    """
    out = set()

    def walk(x):
        if isinstance(x, Abstract):
            return
        for b in x.members:
            if b not in out:
                out.add(b)
                walk(b)

    walk(a)
    return frozenset(out)


def set_members(a: DeskSet) -> frozenset:
    """Members of *a*; abstract sets have no enumerable members."""
    if isinstance(a, Abstract):
        raise EvaluationError(
            "cannot enumerate members of abstract parameter %r" % a.name
        )
    return a.members


def set_member(x: DeskSet, a: DeskSet) -> bool:
    """Decide x in a for concrete a."""
    if isinstance(a, Abstract):
        raise EvaluationError(
            "membership in abstract parameter %r is undecidable" % a.name
        )
    return x in a.members


# ---------------------------------------------------------------------------
# literals


def render_set(a: DeskSet) -> str:
    return set_facts(a).text


def parse_set(text: str, params: dict | None = None) -> DeskSet:
    """Parse a set literal like ``{{},{{}}}``; names resolve via *params*."""
    from .formulas import as_set, read_text  # formulas builds on this module
    params = params or {}
    return as_set(read_text(text, params), params)


# ---------------------------------------------------------------------------
# hereditarily finite enumeration


@lru_cache(maxsize=None)
def _hf_by_rank(r: int) -> tuple:
    """All hereditarily finite sets of rank <= r, smallest first, each
    after its sort key (rank, size, rendering) made from its members'."""
    if r == 0:
        return (((0, 0, "{}"), EMPTY),)
    prev = _hf_by_rank(r - 1)
    out = []
    for mask in range(1 << len(prev)):
        chosen = [ks for i, ks in enumerate(prev) if mask >> i & 1]
        text = "{" + ",".join(sorted(k[2] for k, _ in chosen)) + "}"
        key = (1 + max((k[0] for k, _ in chosen), default=-1), len(chosen), text)
        out.append((key, Concrete(frozenset(s for _, s in chosen))))
    return tuple(sorted(out, key=lambda ks: ks[0]))


#: How many sets ``enumerate_hf`` can list: all 2**16 sets of rank <= 4.
HF_LIMIT = 1 << 16


def enumerate_hf(count: int) -> list:
    """The first *count* hereditarily finite sets, by rank then size;
    ValueError past ``HF_LIMIT``."""
    if count > HF_LIMIT:
        raise ValueError(
            "only the first %d hereditarily finite sets are enumerable, "
            "asked for %d" % (HF_LIMIT, count))
    r = 0
    while len(_hf_by_rank(r)) < count:
        r += 1
    return [s for _, s in _hf_by_rank(r)[:count]]


def witness_pool(count: int, params) -> list:
    """A finite search domain for unbounded quantifiers: the first
    *count* hereditarily finite sets, then each concrete parameter and
    every set hereditarily inside it, ordered by ``repr``, each set once.
    The concrete parameters are read in ``repr`` order too, by their kept
    texts (no set's text is a proper prefix of another's), so the pool
    does not depend on the order they are given in.  A concrete parameter
    keeps its closure's order once it is first asked for."""
    pool = enumerate_hf(count)
    for a in sorted((a for a in params if isinstance(a, Concrete)), key=render_set):
        closure = a._closure
        if closure is None:
            closure = tuple(sorted(transitive_closure(a) | {a}, key=repr))
            object.__setattr__(a, "_closure", closure)
        for b in closure:
            if b not in pool:
                pool.append(b)
    return pool


# ---------------------------------------------------------------------------
# hulls


class Hull(_Interned):
    """Symbolic descriptor of an admissible hull: a finite generator set.
    Hulls are interned with the sets and the ordinal codes, so ``==`` and
    ``hash`` both read identity."""

    __slots__ = ("generators",)
    generators: frozenset

    def __new__(cls, generators: frozenset) -> Hull:
        return cls._intern((generators,))

    def __repr__(self):
        names = sorted(render_set(g) for g in self.generators)
        return "Hull(%s)" % ", ".join(names)


EMPTY_HULL = Hull(frozenset())


def hull_extend(P: Hull, iota: DeskSet) -> Hull:
    """The extended hull P(iota); a no-op when iota is already a member."""
    if hull_contains(P, iota):
        return P
    return Hull(P.generators | {iota})


def hull_at(P: Hull, iota) -> Hull:
    """The hull of the premise at index iota: P extended by a desk set,
    P itself at a binary index 0 or 1, and at a set whose facts are
    known to hold no abstract parameter, since every hull has it."""
    if isinstance(iota, Concrete):
        F = iota._facts
        return P if F is not None and not F.atoms else hull_extend(P, iota)
    if isinstance(iota, Abstract):
        return hull_extend(P, iota)
    return P


def hull_extend_list(P: Hull, iotas) -> Hull:
    """Fold hull_extend left over a parameter list."""
    for iota in iotas:
        P = hull_extend(P, iota)
    return P


def hull_contains(P: Hull, x) -> bool:
    """Decide membership of a desk set or an ordinal code in the hull.

    Every hereditarily finite set is in every transitive admissible
    hull.  A desk set is in when each abstract parameter inside it is
    the infinity witness or inside a generator, that is, a generator or
    in the transitive closure of one.  Ordinal codes are always in:
    codes below epsilon_0 arise from 0 by the closure operations, Omega
    is in by definition, and every code here is built from those two
    layers by addition, natural sum and exponentiation, under all of
    which hulls are closed.
    """
    if isinstance(x, OrdCode):
        return True
    if not isinstance(x, (Concrete, Abstract)):
        raise TypeError("hull membership is defined for desk sets and codes")
    atoms = set_facts(x).atoms
    return not atoms or all(
        p is OMEGA_WITNESS or any(p in set_facts(g).atoms for g in P.generators)
        for p in atoms)


def hull_subsumes(P2: Hull, P1: Hull) -> bool:
    """True when every member of P1 is a member of P2."""
    return all(hull_contains(P2, g) for g in P1.generators)
