"""Ordinal notation codes below epsilon_(Omega+1).

Codes are finite trees built from four constructors:

* ``Sub(v)``   -- an ordinal below Omega, given in Cantor normal form below
  epsilon_0 (the desk-scale stand-in for arbitrary ordinals of the universe);
* ``OMEGA``    -- the order type of the universe's ordinals;
* ``WPow(a)``  -- ``w^a`` for a code ``a`` strictly above Omega;
* ``Sum(ps)``  -- a sum of two or more additively principal parts, written
  non-increasing, with head part >= Omega.

``w^Omega`` normalizes to ``OMEGA`` itself; omega-powers with exponent below
Omega live inside ``Sub``.  Normal forms are unique: distinct normal trees
denote distinct ordinals.  Non-normal inputs are rejected by the public
operations, never silently repaired.

Codes (and the ``CNF`` values inside ``Sub``) are hash-consed: building a
code equal to an existing one returns that object, so equality is
identity and each hash is computed once, when the node is built.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

LESS, EQUAL, GREATER = -1, 0, 1


class MalformedOrdinalError(ValueError):
    """Raised when an operation receives a code that is not in normal form."""


class OrdinalParseError(ValueError):
    """Raised on unparsable ordinal expressions."""


# ---------------------------------------------------------------------------
# Interning.
# ---------------------------------------------------------------------------

#: Every interned node by ``(class, fields)``; it grows with the number of
#: distinct codes built, not with the number of operations.
_INTERNED: dict = {}


class _Interned:
    """An immutable hash-consed node: one object per class and fields.

    A subclass lists its fields in ``__slots__``, and its constructor
    passes their values, in that order, to ``_intern``, which returns the
    object an earlier call built from equal fields.  So equal nodes are
    identical and ``==`` is the identity test.  The hash is the one a
    frozen dataclass with these fields has, ``hash(fields)``, computed
    once at construction; it involves only ints and tuples, so it is the
    same in every process.  ``repr`` is the dataclass ``repr``.
    """

    __slots__ = ("_hash",)

    @classmethod
    def _intern(cls, fields: tuple):
        key = (cls, fields)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_hash", hash(fields))
            _INTERNED[key] = node
        return node

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __hash__(self) -> int:
        return self._hash

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
# Cantor normal form below epsilon_0 (the sub-Omega layer).
# ---------------------------------------------------------------------------


class CNF(_Interned):
    """Sum of ``w^e * c`` terms with strictly decreasing exponents.

    ``terms`` is a tuple of (exponent, coefficient) pairs; the empty tuple
    is zero.  Exponents are themselves CNF values.
    """

    __slots__ = ("terms",)
    terms: tuple[tuple[CNF, int], ...]

    def __new__(cls, terms: tuple[tuple[CNF, int], ...] = ()) -> CNF:
        return cls._intern((terms,))

    def is_zero(self) -> bool:
        return not self.terms


CNF_ZERO = CNF()
CNF_ONE = CNF(((CNF_ZERO, 1),))
CNF_W = CNF(((CNF_ONE, 1),))


def cnf_from_int(n: int) -> CNF:
    if n < 0:
        raise ValueError("natural number expected")
    if n == 0:
        return CNF_ZERO
    return CNF(((CNF_ZERO, n),))


def cnf_cmp(a: CNF, b: CNF) -> int:
    if a == b:
        return EQUAL
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cnf_cmp(ea, eb)
        if c != EQUAL:
            return c
        if ca != cb:
            return LESS if ca < cb else GREATER
    if len(a.terms) == len(b.terms):
        return EQUAL
    return LESS if len(a.terms) < len(b.terms) else GREATER


@lru_cache(maxsize=None)
def cnf_is_valid(a: CNF) -> bool:
    if not isinstance(a, CNF):
        return False
    for (e, c) in a.terms:
        if not isinstance(c, int) or c < 1 or not cnf_is_valid(e):
            return False
    for (e0, _), (e1, _) in zip(a.terms, a.terms[1:]):
        if cnf_cmp(e0, e1) != GREATER:
            return False
    return True


def cnf_add(a: CNF, b: CNF) -> CNF:
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    head = b.terms[0][0]
    kept = []
    for (e, c) in a.terms:
        cc = cnf_cmp(e, head)
        if cc == GREATER:
            kept.append((e, c))
        elif cc == EQUAL:
            kept.append((e, c + b.terms[0][1]))
            return CNF(tuple(kept) + b.terms[1:])
        else:
            break
    return CNF(tuple(kept) + b.terms)


def cnf_omega_exp(e: CNF) -> CNF:
    return CNF(((e, 1),))


def cnf_is_principal(a: CNF) -> bool:
    return len(a.terms) == 1 and a.terms[0][1] == 1


# ---------------------------------------------------------------------------
# Codes below epsilon_(Omega+1).
# ---------------------------------------------------------------------------


class OrdCode(_Interned):
    """A code: ``Sub``, ``OmegaCode``, ``WPow`` or ``Sum``."""

    __slots__ = ()


class Sub(OrdCode):
    __slots__ = ("value",)
    value: CNF

    def __new__(cls, value: CNF) -> Sub:
        return cls._intern((value,))


class OmegaCode(OrdCode):
    __slots__ = ()

    def __new__(cls) -> OmegaCode:
        return cls._intern(())


class WPow(OrdCode):
    __slots__ = ("exponent",)
    exponent: OrdCode

    def __new__(cls, exponent: OrdCode) -> WPow:
        return cls._intern((exponent,))


class Sum(OrdCode):
    __slots__ = ("parts",)
    parts: tuple[OrdCode, ...]

    def __new__(cls, parts: tuple[OrdCode, ...]) -> Sum:
        return cls._intern((parts,))


OMEGA = OmegaCode()
ZERO = Sub(CNF_ZERO)
ONE = Sub(CNF_ONE)
SUB_W = Sub(CNF_W)


def from_nat(n: int) -> OrdCode:
    return Sub(cnf_from_int(n))


def is_principal(a: OrdCode) -> bool:
    """An additively principal normal code: Omega, a WPow, or a sub-Omega
    omega-power."""
    if isinstance(a, OmegaCode):
        return True
    if isinstance(a, WPow):
        return True
    if isinstance(a, Sub):
        return cnf_is_principal(a.value)
    return False


@lru_cache(maxsize=None)
def validate_nf(a: OrdCode) -> bool:
    """True iff every normal-form invariant holds at every node of ``a``."""
    if isinstance(a, Sub):
        return cnf_is_valid(a.value)
    if isinstance(a, OmegaCode):
        return True
    if isinstance(a, WPow):
        if not validate_nf(a.exponent):
            return False
        return _cmp(a.exponent, OMEGA) == GREATER
    if isinstance(a, Sum):
        if len(a.parts) < 2:
            return False
        for p in a.parts:
            if not validate_nf(p) or not is_principal(p):
                return False
        if isinstance(a.parts[0], Sub):
            return False
        for p, q in zip(a.parts, a.parts[1:]):
            if _cmp(p, q) == LESS:
                return False
        return True
    return False


def _require(a: OrdCode) -> None:
    if not validate_nf(a):
        raise MalformedOrdinalError(f"not a normal-form code: {a!r}")


def _plog(p: OrdCode) -> OrdCode:
    """Exponent of an additively principal code (``w^x -> x``)."""
    if isinstance(p, OmegaCode):
        return OMEGA
    if isinstance(p, WPow):
        return p.exponent
    if isinstance(p, Sub):
        return Sub(p.value.terms[0][0])
    raise MalformedOrdinalError(f"not principal: {p!r}")


def _pcmp(p: OrdCode, q: OrdCode) -> int:
    if p == q:
        return EQUAL
    return _cmp(_plog(p), _plog(q))


@lru_cache(maxsize=None)
def _parts(a: OrdCode) -> tuple[OrdCode, ...]:
    """Non-increasing list of additively principal parts of ``a``."""
    if isinstance(a, Sum):
        return a.parts
    if isinstance(a, Sub):
        out = []
        for (e, c) in a.value.terms:
            out.extend([Sub(cnf_omega_exp(e))] * c)
        return tuple(out)
    return (a,)


def _rebuild(parts: list[OrdCode]) -> OrdCode:
    if not parts:
        return ZERO
    split = len(parts)
    for i, p in enumerate(parts):
        if isinstance(p, Sub):
            split = i
            break
    big = parts[:split]
    small = parts[split:]
    if not big:
        acc = CNF_ZERO
        for p in small:
            acc = cnf_add(acc, p.value)  # type: ignore[union-attr]
        return Sub(acc)
    if len(big) == 1 and not small:
        return big[0]
    return Sum(tuple(big) + tuple(small))


@lru_cache(maxsize=None)
def _cmp(a: OrdCode, b: OrdCode) -> int:
    if a == b:
        return EQUAL
    a_sub = isinstance(a, Sub)
    b_sub = isinstance(b, Sub)
    if a_sub and b_sub:
        return cnf_cmp(a.value, b.value)
    if a_sub:
        return LESS
    if b_sub:
        return GREATER
    pa, pb = _parts(a), _parts(b)
    for x, y in zip(pa, pb):
        c = _pcmp(x, y)
        if c != EQUAL:
            return c
    if len(pa) == len(pb):
        return EQUAL
    return LESS if len(pa) < len(pb) else GREATER


def cmp(a: OrdCode, b: OrdCode) -> int:
    """Total order on normal codes: -1 (less), 0 (equal), or 1 (greater)."""
    _require(a)
    _require(b)
    return _cmp(a, b)


def leq(a: OrdCode, b: OrdCode) -> bool:
    return cmp(a, b) != GREATER


@lru_cache(maxsize=None)
def add(a: OrdCode, b: OrdCode) -> OrdCode:
    """Ordinal sum in normal form; left parts below b's head are absorbed."""
    _require(a)
    _require(b)
    pb = _parts(b)
    if not pb:
        return a
    head = pb[0]
    kept = []
    for p in _parts(a):
        if _pcmp(p, head) != LESS:
            kept.append(p)
        else:
            break
    return _rebuild(kept + list(pb))


def nat_sum(a: OrdCode, b: OrdCode) -> OrdCode:
    """Natural (commutative) sum: merge of the principal-part multisets."""
    _require(a)
    _require(b)
    merged = list(_parts(a))
    for q in _parts(b):
        for i, p in enumerate(merged):
            if _pcmp(q, p) == GREATER:
                merged.insert(i, q)
                break
        else:
            merged.append(q)
    return _rebuild(merged)


@lru_cache(maxsize=None)
def omega_exp(a: OrdCode) -> OrdCode:
    """The code of ``w^a``."""
    _require(a)
    if isinstance(a, Sub):
        return Sub(cnf_omega_exp(a.value))
    if isinstance(a, OmegaCode):
        return OMEGA
    return WPow(a)


def omega_tower(n: int, base: OrdCode) -> OrdCode:
    """``w_0(x) = x`` and ``w_(k+1)(x) = w^(w_k(x))``."""
    if n < 0:
        raise ValueError("tower height must be a natural number")
    _require(base)
    out = base
    for _ in range(n):
        out = omega_exp(out)
    return out


def times_nat(a: OrdCode, n: int) -> OrdCode:
    """``a * n`` by binary doubling: the summands are all equal, so
    associativity lets a + ... + a be grouped into a, a*2, a*4, ...,
    and ``add`` runs O(log n) times."""
    if n < 0:
        raise ValueError("natural number expected")
    out = ZERO
    while n:
        if n & 1:
            out = add(out, a)
        n >>= 1
        if n:
            a = add(a, a)
    return out


def tree_size(a: OrdCode) -> int:
    if isinstance(a, (Sub, OmegaCode)):
        return 1
    if isinstance(a, WPow):
        return 1 + tree_size(a.exponent)
    return 1 + sum(tree_size(p) for p in a.parts)


# ---------------------------------------------------------------------------
# Generation and enumeration (test support).
# ---------------------------------------------------------------------------

_SUB_ATOMS = (CNF_ZERO, CNF_ONE, cnf_from_int(2), cnf_from_int(3), CNF_W,
              cnf_add(CNF_W, CNF_ONE), cnf_omega_exp(CNF_W))


def random_code(rng: random.Random, size: int) -> OrdCode:
    """A random normal code of roughly the given tree size."""
    if size <= 1:
        if rng.random() < 0.5:
            return Sub(rng.choice(_SUB_ATOMS))
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
                    sub_values: tuple[CNF, ...] = (CNF_ZERO, CNF_ONE, CNF_W),
                    ) -> list[OrdCode]:
    """All normal codes of tree size <= max_size whose Sub leaves carry one
    of the given sub-Omega values."""
    by_size: dict[int, list[OrdCode]] = {s: [] for s in range(1, max_size + 1)}
    if max_size >= 1:
        by_size[1] = [Sub(v) for v in sub_values] + [OMEGA]
    principals: dict[int, list[OrdCode]] = {s: [] for s in range(1, max_size + 1)}

    def note(code: OrdCode, size: int) -> None:
        by_size[size].append(code)
        if is_principal(code):
            principals[size].append(code)

    for c in list(by_size.get(1, [])):
        if is_principal(c):
            principals[1].append(c)

    for size in range(2, max_size + 1):
        # w^x for x of size-1, x > Omega
        for x in by_size[size - 1]:
            if _cmp(x, OMEGA) == GREATER:
                note(WPow(x), size)
        # sums: head >= Omega, parts principal, non-increasing, n >= 2
        def extend(budget: int, acc: list[OrdCode]) -> None:
            if budget == 0:
                if len(acc) >= 2:
                    note(Sum(tuple(acc)), size)
                return
            for s in range(1, budget + 1):
                for p in principals[s]:
                    if not acc:
                        if not isinstance(p, Sub):
                            extend(budget - s, [p])
                    elif _pcmp(acc[-1], p) != LESS:
                        extend(budget - s, acc + [p])

        extend(size - 1, [])
    out: list[OrdCode] = []
    for s in range(1, max_size + 1):
        out.extend(by_size[s])
    return out


# ---------------------------------------------------------------------------
# Rendering and parsing.
# ---------------------------------------------------------------------------


def _render_cnf(v: CNF) -> str:
    if v.is_zero():
        return "0"
    chunks = []
    for (e, c) in v.terms:
        if e == CNF_ZERO:
            chunks.append(str(c))
            continue
        if e == CNF_ONE:
            base = "w"
        else:
            inner = _render_cnf(e)
            base = f"w^{inner}" if _is_token(inner) else f"w^({inner})"
        chunks.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(chunks)


def _is_token(s: str) -> bool:
    return s.isalnum() or s == "w"


@lru_cache(maxsize=None)
def render(a: OrdCode) -> str:
    """Bracketed text form; ``parse(render(a)) == a`` for normal codes."""
    if isinstance(a, Sub):
        return _render_cnf(a.value)
    if isinstance(a, OmegaCode):
        return "W"
    if isinstance(a, WPow):
        inner = render(a.exponent)
        return f"w^{inner}" if _is_token(inner) else f"w^({inner})"
    return " + ".join(render(p) for p in a.parts)


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
            tokens.append(tok)
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise OrdinalParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise OrdinalParseError(f"expected {tok!r}, got {got!r}")

    def expr(self) -> OrdCode:
        out = self.term()
        while self.peek() in ("+", "#"):
            op = self.take()
            rhs = self.term()
            out = add(out, rhs) if op == "+" else nat_sum(out, rhs)
        return out

    def term(self) -> OrdCode:
        out = self.prim()
        while self.peek() == "*":
            self.take()
            n = self.take()
            if not n.isdigit():
                raise OrdinalParseError("coefficient must be a natural number")
            out = times_nat(out, int(n))
        return out

    def prim(self) -> OrdCode:
        tok = self.take()
        if tok == "W":
            return OMEGA
        if tok == "w":
            return SUB_W
        if tok.isdigit():
            return from_nat(int(tok))
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok == "w^":
            return omega_exp(self.prim())
        if tok.startswith("w_"):
            n = int(tok[2:])
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return omega_tower(n, inner)
        raise OrdinalParseError(f"unexpected token {tok!r}")


def parse(text: str) -> OrdCode:
    p = _Parser(_tokenize(text))
    out = p.expr()
    if p.peek() is not None:
        raise OrdinalParseError(f"trailing input at {p.peek()!r}")
    return out


def parse_query(text: str) -> OrdCode | tuple[OrdCode, OrdCode]:
    """Parse either a single expression or an ``a ? b`` comparison query."""
    p = _Parser(_tokenize(text))
    left = p.expr()
    if p.peek() == "?":
        p.take()
        right = p.expr()
        if p.peek() is not None:
            raise OrdinalParseError(f"trailing input at {p.peek()!r}")
        return (left, right)
    if p.peek() is not None:
        raise OrdinalParseError(f"trailing input at {p.peek()!r}")
    return left
