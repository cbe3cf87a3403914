"""Ordinal notation codes below epsilon_(Omega+1).

A code is one ``OrdCode(terms)``: the Cantor normal form
``w^e1 * c1 + ... + w^ek * ck``, written as the tuple of its
``(exponent, coefficient)`` pairs, with strictly decreasing exponents
and positive int coefficients; the empty tuple is zero.  An exponent is
a code other than Omega, or the marker ``OMEGA_LOG``, which stands for
Omega itself: Omega is the fixed point ``w^Omega``, so its own code is
``OrdCode(((OMEGA_LOG, 1),))``.  Codes below Omega are the Cantor normal
forms below epsilon_0 (the desk-scale stand-in for the ordinals of the
universe).  Normal forms are unique: distinct normal codes denote
distinct ordinals.  A non-normal code is refused, never silently
repaired.

Codes and the marker are hash-consed: building a code equal to an
existing one returns that object, so ``==`` and ``hash`` both read
identity.  A code is checked for normal form once, when the intern
table builds it: its exponents are codes built before it, so normal
already, and the check reads only its own terms.  So no malformed code
exists, and no operation checks its arguments again.  Five functions
keep an unbounded cache by interned argument: ``validate_nf``, the
comparison ``_cmp``, ``add``, ``omega_exp`` and ``render``.  Comparing,
rendering and parsing are loops: no level of a code costs a frame.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache, reduce
from itertools import zip_longest

LESS, EQUAL, GREATER = -1, 0, 1


class MalformedOrdinalError(ValueError):
    """Raised when an operation receives a code that is not in normal form."""


class OrdinalParseError(ValueError):
    """Raised on unparsable ordinal expressions."""


# ---------------------------------------------------------------------------
# Interning.
# ---------------------------------------------------------------------------

#: Every interned node by ``(class, fields)``: the ordinal codes, the
#: desk sets and hulls of ``universe`` and the index sets ``JBounded``
#: of ``formulas``.  It grows with the number of distinct values built,
#: not with the number of operations.
_INTERNED: dict = {}


class _Interned:
    """An immutable hash-consed node: one object per class and fields.

    A subclass lists its fields in ``__slots__``, and its constructor
    passes their values, in that order, to ``_intern``, which returns the
    object an earlier call built from equal fields.  So equal nodes are
    identical, and ``==`` and ``hash`` both read identity: they are the
    ones ``object`` gives.  ``repr`` is the dataclass ``repr``, and ``copy``,
    ``deepcopy`` and ``pickle`` give back the interned node.  A slot
    listed after the fields is a store: it starts as None, is set later
    with ``object.__setattr__``, and is no part of the key; a subclass
    with one overrides ``_fields``.
    """

    __slots__ = ()

    @classmethod
    def _intern(cls, fields: tuple):
        key = (cls, fields)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip_longest(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            _INTERNED[key] = node
        return node

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __repr__(self) -> str:
        args = ", ".join("%s=%r" % field
                         for field in zip(type(self).__slots__, self._fields()))
        return "%s(%s)" % (type(self).__qualname__, args)

    def __reduce__(self):
        return (type(self), self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Codes.
# ---------------------------------------------------------------------------


class OrdCode(_Interned):
    """``w^e1 * c1 + ... + w^ek * ck``, its ``(exponent, coefficient)``
    pairs in ``terms``.  The constructor builds a new code only in
    normal form: each coefficient a positive int, each exponent
    ``OMEGA_LOG`` or a code other than Omega, and the exponents strictly
    decreasing; otherwise it raises ``MalformedOrdinalError``."""

    __slots__ = ("terms",)
    terms: tuple[tuple[OrdCode | OmegaLog, int], ...]

    def __new__(cls, terms: tuple[tuple[OrdCode | OmegaLog, int], ...] = ()) -> OrdCode:
        node = _INTERNED.get((cls, (terms,)))
        if node is not None:
            return node
        exponents = [e for e, _ in terms]
        if not (all(isinstance(c, int) and c >= 1 for _, c in terms)
                and all(e == OMEGA_LOG or isinstance(e, OrdCode) and e != OMEGA
                        for e in exponents)
                and all(_ecmp(e, f) == GREATER for e, f in zip(exponents, exponents[1:]))):
            raise MalformedOrdinalError(f"not a normal-form code: OrdCode(terms={terms!r})")
        return cls._intern((terms,))


class OmegaLog(_Interned):
    """The exponent of Omega in its own normal form ``w^Omega``."""

    __slots__ = ()

    def __new__(cls) -> OmegaLog:
        return cls._intern(())


# OMEGA before ONE: the check of a code whose exponent is a code reads it
OMEGA_LOG = OmegaLog()
ZERO = OrdCode()
OMEGA = OrdCode(((OMEGA_LOG, 1),))
ONE = OrdCode(((ZERO, 1),))
SUB_W = OrdCode(((ONE, 1),))


def from_nat(n: int) -> OrdCode:
    if n < 0:
        raise ValueError("natural number expected")
    return OrdCode(((ZERO, n),)) if n else ZERO


def is_principal(a: OrdCode) -> bool:
    """An additively principal code: one term, with coefficient 1."""
    return len(a.terms) == 1 and a.terms[0][1] == 1


def _ecmp(x: OrdCode | OmegaLog, y: OrdCode | OmegaLog) -> int:
    """Compare two exponents, reading ``OMEGA_LOG`` as Omega."""
    return _cmp(OMEGA if x == OMEGA_LOG else x, OMEGA if y == OMEGA_LOG else y)


@lru_cache(maxsize=None)
def validate_nf(a: OrdCode) -> bool:
    """True iff ``a`` is a code: the constructor builds none that is not
    in normal form."""
    return isinstance(a, OrdCode)


@lru_cache(maxsize=None)
def _cmp(a: OrdCode, b: OrdCode) -> int:
    # distinct normal codes denote distinct ordinals, so the first
    # distinct exponents decide: a loop descends into them
    while True:
        for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
            if ea != eb:
                break
            if ca != cb:
                return LESS if ca < cb else GREATER
        else:
            if len(a.terms) == len(b.terms):
                return EQUAL
            return LESS if len(a.terms) < len(b.terms) else GREATER
        a, b = OMEGA if ea == OMEGA_LOG else ea, OMEGA if eb == OMEGA_LOG else eb


def cmp(a: OrdCode, b: OrdCode) -> int:
    """Total order on codes: -1 (less), 0 (equal), or 1 (greater)."""
    return _cmp(a, b)


def _sum_into(terms: list, more, natural: bool) -> list:
    """``terms`` with the terms ``more`` added in place, both a code's
    terms in decreasing order: in a natural sum each term goes to its
    place, and in an ordinal sum the first absorbs the terms below it and
    the rest follow.  A binary search finds each place, so a sum read a
    term at a time costs each term a search, not a copy of the sum."""
    for k, (e, c) in enumerate(more):
        lo, hi = 0, len(terms)
        while lo < hi:  # the first term whose exponent is at most e
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if _ecmp(terms[mid][0], e) == GREATER else (lo, mid)
        if lo < len(terms) and terms[lo][0] == e:
            c += terms.pop(lo)[1]
        if not natural:
            terms[lo:] = [(e, c), *more[k + 1:]]
            break
        terms.insert(lo, (e, c))
    return terms


@lru_cache(maxsize=None)
def add(a: OrdCode, b: OrdCode) -> OrdCode:
    """Ordinal sum in normal form: the terms of a below b's head are
    absorbed, and on an equal head the coefficients add."""
    return OrdCode(tuple(_sum_into(list(a.terms), b.terms, False)))


def nat_sum(a: OrdCode, b: OrdCode) -> OrdCode:
    """Natural (commutative) sum: the terms of a and b merged, the
    coefficients of equal exponents added."""
    return OrdCode(tuple(_sum_into(list(a.terms), b.terms, True)))


@lru_cache(maxsize=None)
def omega_exp(a: OrdCode) -> OrdCode:
    """The code of ``w^a``."""
    return OMEGA if a == OMEGA else OrdCode(((a, 1),))


def omega_tower(n: int, base: OrdCode) -> OrdCode:
    """``w_0(x) = x`` and ``w_(k+1)(x) = w^(w_k(x))``."""
    if n < 0:
        raise ValueError("tower height must be a natural number")
    out = base
    for _ in range(n):
        out = omega_exp(out)
    return out


def times_nat(a: OrdCode, n: int) -> OrdCode:
    """``a * n``: each copy of a after the first absorbs the tail of the
    one before it, so only the head coefficient is multiplied."""
    if n < 0:
        raise ValueError("natural number expected")
    if n == 0 or a == ZERO:
        return ZERO
    (e, c), rest = a.terms[0], a.terms[1:]
    return OrdCode(((e, c * n),) + rest)


def tree_size(a: OrdCode) -> int:
    """The size ``enumerate_codes`` counts: 1 for a code at most Omega,
    1 + the size of e for ``w^e`` above Omega, and otherwise 1 + the
    sizes of a's additively principal parts, each counted once per unit
    of its coefficient."""
    if _cmp(a, OMEGA) != GREATER:
        return 1
    sizes = [c * (1 if e == OMEGA_LOG or _cmp(e, OMEGA) == LESS else 1 + tree_size(e))
             for e, c in a.terms]
    return sizes[0] if is_principal(a) else 1 + sum(sizes)


# ---------------------------------------------------------------------------
# Generation and enumeration (test support).
# ---------------------------------------------------------------------------

_SUB_ATOMS = (ZERO, ONE, from_nat(2), from_nat(3), SUB_W,
              OrdCode(((ONE, 1), (ZERO, 1))), OrdCode(((SUB_W, 1),)))


def random_code(rng: random.Random, size: int) -> OrdCode:
    """A random normal code of roughly the given tree size."""
    if size <= 1:
        if rng.random() < 0.5:
            return rng.choice(_SUB_ATOMS)
        return OMEGA
    r = rng.random()
    if r < 0.35:
        return omega_exp(random_code(rng, size - 1))
    left = random_code(rng, max(1, size // 2))
    right = random_code(rng, max(1, size - size // 2 - 1))
    if r < 0.70:
        return add(left, right)
    return nat_sum(left, right)


def enumerate_codes(max_size: int,
                    sub_values: tuple[OrdCode, ...] = (ZERO, ONE, SUB_W),
                    ) -> list[OrdCode]:
    """All normal codes of tree size <= max_size built from Omega and the
    given codes below Omega, smallest first."""
    by_size: dict[int, list[OrdCode]] = {s: [] for s in range(1, max_size + 1)}
    principals: dict[int, list[OrdCode]] = {s: [] for s in range(1, max_size + 1)}

    def note(code: OrdCode, size: int) -> None:
        by_size[size].append(code)
        if is_principal(code):
            principals[size].append(code)

    if max_size >= 1:
        for c in (*sub_values, OMEGA):
            note(c, 1)

    for size in range(2, max_size + 1):
        # w^x for x of size-1, x > Omega
        for x in by_size[size - 1]:
            if _cmp(x, OMEGA) == GREATER:
                note(omega_exp(x), size)
        # sums: two or more non-increasing principal parts, head >= Omega
        def extend(budget: int, parts: list[OrdCode]) -> None:
            if budget == 0:
                if len(parts) >= 2:
                    note(reduce(add, parts), size)
                return
            for s in range(1, budget + 1):
                for p in principals[s]:
                    if not parts:
                        if _cmp(p, OMEGA) != LESS:
                            extend(budget - s, [p])
                    elif _cmp(parts[-1], p) != LESS:
                        extend(budget - s, parts + [p])

        extend(size - 1, [])
    out: list[OrdCode] = []
    for s in range(1, max_size + 1):
        out.extend(by_size[s])
    return out


# ---------------------------------------------------------------------------
# Rendering and parsing.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def render(a: OrdCode) -> str:
    """Bracketed text form; ``parse(render(a)) == a`` for normal codes.
    Each term is written with its coefficient (``W*2 + w + 1``), and an
    exponent is written bare exactly when it is a natural (``w^2``) or
    ``w`` (``w^w``).  One loop writes a stack of pieces: a string as it
    is, a code as the pieces of its terms, so no depth of nesting costs
    a stack frame.  The cache keeps the texts of the codes asked for
    only: a text for each exponent of a tower would grow with the
    square of its height."""
    out, todo = [], [a]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        pieces = []
        for e, c in piece.terms:
            if pieces:
                pieces.append(" + ")
            if e == ZERO:
                pieces.append(str(c))
                continue
            if e == OMEGA_LOG:
                pieces.append("W")
            elif e == ONE:
                pieces.append("w")
            elif e == SUB_W or e.terms[0][0] == ZERO:  # w or a natural: one token
                pieces += ("w^", e)
            else:
                pieces += ("w^(", e, ")")
            if c != 1:
                pieces.append("*%d" % c)
        todo += reversed(pieces)
    return "".join(out) or "0"  # zero has no terms


#: The most tower levels one text builds, counted over the whole text:
#: a ``w_n(...)`` builds n levels and a ``w^`` one; brackets, ``w``,
#: ``W`` and numbers build none.  A text costs time and memory in its
#: length plus its levels: the costliest within the limit, a sum of
#: ``MAX_TOWER`` distinct ``w^n`` terms, reads and prints in 0.5 s and
#: 40 MB from a fresh interpreter (2-core x86_64).
MAX_TOWER = 10_000

#: The most digits the parser reads in one number: a natural, a ``w_n``
#: subscript or a ``* n`` coefficient.  It is the lowest limit that
#: ``sys.set_int_max_str_digits`` accepts, so that no setting of the
#: interpreter refuses a number the parser reads.
MAX_DIGITS = 640

#: whitespace, or one of: a token, a ``w_`` without its subscript, any
#: other character
_TOKEN = re.compile(r"\s+|(w_\d+|w\^|\d+|[()+#*?W]|w(?!_))|(w_)|(.)")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for tok, bare_w, other in _TOKEN.findall(text):
        if bare_w:
            raise OrdinalParseError("w_ needs a numeric subscript")
        if other:
            raise OrdinalParseError(f"unexpected character {other!r}")
        if tok:
            # only a number is ever longer than two characters
            digits = len(tok.removeprefix("w_"))
            if digits > MAX_DIGITS:
                raise OrdinalParseError(
                    f"number of {digits} digits is above the limit of {MAX_DIGITS} digits")
            tokens.append(tok)
    return tokens


def _read(text: str, query: bool) -> OrdCode | tuple[OrdCode, OrdCode]:
    """One expression, or with ``query`` an ``a ? b`` pair, read by one
    loop over the tokens.  The innermost open bracket holds its sum so
    far as a list of terms, the operator before its next term and the
    ``w^`` powers pending on that term; ``stack`` holds the brackets
    around it, each with the tower height its ``)`` applies.  A sum
    becomes a code only under a ``w^``, which builds a level, or at the
    end, so no text builds a long code once per term of a sum."""
    take = iter(_tokenize(text) + [None]).__next__  # None ends the text
    levels = 0
    stack: list = []
    sides: list[OrdCode] = []
    terms, op, powers = [], "+", 0
    while True:
        tok = take()
        if tok is None:
            raise OrdinalParseError("unexpected end of expression")
        if tok == "w^" or tok.startswith("w_"):
            height = 1 if tok == "w^" else int(tok[2:])
            levels += height
            if levels > MAX_TOWER:
                raise OrdinalParseError(f"tower levels are above the limit of {MAX_TOWER}")
            if tok == "w^":
                powers += 1
                continue
            if (tok := take()) != "(":
                raise OrdinalParseError("unexpected end of expression" if tok is None
                                        else f"expected '(', got {tok!r}")
        elif tok == "(":
            height = 0
        else:
            if tok == "W":
                value = OMEGA.terms
            elif tok == "w":
                value = SUB_W.terms
            elif tok.isdigit():
                value = from_nat(int(tok)).terms
            else:
                raise OrdinalParseError(f"unexpected token {tok!r}")
            # a term is read: add it to its sum, and close each bracket
            # that ends with it
            tok = take()
            while True:
                if powers:
                    value = omega_tower(powers, OrdCode(tuple(value))).terms
                k = 1
                while tok == "*":
                    n = take()
                    if n is None or not n.isdigit():
                        raise OrdinalParseError("unexpected end of expression" if n is None
                                                else "coefficient must be a natural number")
                    k *= int(n)
                    tok = take()
                if k != 1:  # times_nat: only the head coefficient is multiplied
                    value = [(value[0][0], value[0][1] * k), *value[1:]] if k and value else ()
                terms = _sum_into(terms, value, op == "#")
                if tok != ")" or not stack:
                    break
                value = terms
                terms, op, powers, height = stack.pop()
                powers += height
                tok = take()
            if tok in ("+", "#"):
                op, powers = tok, 0
                continue
            if stack:
                raise OrdinalParseError("unexpected end of expression" if tok is None
                                        else f"expected ')', got {tok!r}")
            sides.append(OrdCode(tuple(terms)))
            if tok == "?" and query and len(sides) == 1:
                terms, op, powers = [], "+", 0
                continue
            if tok is not None:
                raise OrdinalParseError(f"trailing input at {tok!r}")
            return tuple(sides) if len(sides) == 2 else sides[0]
        stack.append((terms, op, powers, height))
        terms, op, powers = [], "+", 0


def parse(text: str) -> OrdCode:
    return _read(text, False)


def parse_query(text: str) -> OrdCode | tuple[OrdCode, OrdCode]:
    """Parse either a single expression or an ``a ? b`` comparison query."""
    return _read(text, True)
