"""Negation-normal formulas over the language of membership with set
names, plus the syntactic toolbox the calculi need: negation,
Levy-hierarchy classification, depth, name support, substitution,
relativization, and reflection guard sentences.

This module is also the specification layer of the infinitary
calculus.  It alone decides how a sentence is read as OR/AND (A_iota),
iota in J -- a bounded sentence by its truth value, any other by the
polarity its class declares (``conjunctive``); the index set J of a
connective (``index_set``), its members and the component at each --
which sentences evaluation can settle, and what a sentence's truth
value is.  The derivation constructors and the checker both read these
answers from here.

Atoms are ``t in s`` and ``t notin s`` together with the opaque pair
``ad(t)`` / ``notad(t)``.  The latter stand for "t is a transitive model
of the base set theory"; they are never evaluated or decomposed, only
carried around inside reflection sequents.

``BY_HEAD`` declares each dual pair of formula classes once, with the
kind of each field and each class's polarity, and negation, facts,
substitution, relativization, rendering and reading walk the fields by
it.  Only the Sigma/Pi step of ``ex``/``all``, their relativization and
the binder rule of substitution are written per class.

Formulas and terms are hash-consed in a weak table, ``_FORMULAS``, and
the sets they name are interned, so ``==`` and ``hash`` both read
identity, and the sequent sets of the calculi find a member by its
address alone.  Each stores its negation, its quantifier instances, its
record of facts and its text once they are first asked for (see
``_Formula``).
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass, fields
from typing import NamedTuple

from .ordinals import _Interned
from .universe import (
    Abstract,
    Concrete,
    DeskSet,
    EMPTY,
    EvaluationError,
    is_concrete,
    render_set,
    set_member,
    set_members,
)


# ---------------------------------------------------------------------------
# terms and formulas, one object per value


class _Formula:
    """Base of the formula classes.  Each class has its head word
    (``head``), its dual class (``dual``), its ``shape``, its ``arity``
    and its ``polarity`` (see ``_dual_pairs``).  Each object stores its
    negation (``negate``), its quantifier instances by index
    (``component``), its record of syntactic facts (``facts``) and its
    text (``render_formula``) once they are first asked for; the stores
    are plain attributes, not dataclass fields, so ``repr`` and
    ``pickle`` do not see them.  ``==`` and ``hash`` both read identity
    (``_interned``)."""

    polarity = None
    _negation = None
    _instances = None
    _facts = None
    _text = None


#: Every live formula and term under its class and parts: a variable's
#: or a binder's name as it is, every other part by ``id``, since the
#: parts are interned too.  The values are weak references, so the table
#: keeps nothing alive, and the keys hold no formula: a key that held its
#: parts would keep them alive after their node, and as a formula and its
#: negation refer to each other, a tree would then be freed one level per
#: collection.  A part's ``id`` names no other object while the node that
#: holds it lives.
_FORMULAS: dict = {}


class _Ref(weakref.ref):
    """A weak reference to a node of ``_FORMULAS``, with the node's key."""

    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    """Drop the entry of a node that has died, unless a newer node has
    taken its key."""
    if _FORMULAS.get(ref.key) is ref:
        del _FORMULAS[ref.key]


def _interned(cls):
    """Make the frozen dataclass ``cls``, declared with ``eq=False``,
    hash-consed: ``cls(*parts)`` returns the live object built from the
    same parts, so equal formulas and terms are one object, since their
    parts are, and ``==`` and ``hash`` both read identity: they are the
    ones ``object`` gives.  ``copy``, ``deepcopy`` and ``pickle`` give back
    the interned object."""
    names = [f.name for f in fields(cls)]
    named = fields(cls)[0].type == "str"  # a variable, or a binder first

    def __new__(cls, *parts):
        key = (cls, *parts[:1], *map(id, parts[1:])) if named else (cls, *map(id, parts))
        ref = _FORMULAS.get(key)
        node = ref() if ref is not None else None
        if node is None:
            if len(parts) != len(names):
                raise TypeError("%s(%s): %d given" % (cls.__name__, ", ".join(names), len(parts)))
            node = object.__new__(cls)
            for name, x in zip(names, parts):
                object.__setattr__(node, name, x)
            ref = _FORMULAS[key] = _Ref(node, _forget)
            ref.key = key
        return node

    cls.__new__ = __new__
    del cls.__init__  # the fields are set once, by __new__
    cls.__reduce__ = lambda self: (cls, tuple(getattr(self, name) for name in names))
    return cls


@_interned
@dataclass(frozen=True, eq=False)
class Var:
    name: str

    def __repr__(self):
        return "Var(%r)" % self.name


@_interned
@dataclass(frozen=True, eq=False)
class Name:
    """A set constant naming a desk set."""

    value: DeskSet

    def __repr__(self):
        return "Name(%s)" % render_set(self.value)


Term = Var | Name

#: the individual constant 0, naming the empty set
ZERO_TERM = Name(EMPTY)


@_interned
@dataclass(frozen=True, eq=False)
class Mem(_Formula):
    left: Term
    right: Term


@_interned
@dataclass(frozen=True, eq=False)
class NotMem(_Formula):
    left: Term
    right: Term


@_interned
@dataclass(frozen=True, eq=False)
class Ad(_Formula):
    """Opaque atom: the term is a transitive model of the base theory."""

    term: Term


@_interned
@dataclass(frozen=True, eq=False)
class NotAd(_Formula):
    term: Term


@_interned
@dataclass(frozen=True, eq=False)
class Or(_Formula):
    left: "Formula"
    right: "Formula"


@_interned
@dataclass(frozen=True, eq=False)
class And(_Formula):
    left: "Formula"
    right: "Formula"


@_interned
@dataclass(frozen=True, eq=False)
class BEx(_Formula):
    """Bounded existential: exists var in bound, body."""

    var: str
    bound: Term
    body: "Formula"


@_interned
@dataclass(frozen=True, eq=False)
class BAll(_Formula):
    var: str
    bound: Term
    body: "Formula"


@_interned
@dataclass(frozen=True, eq=False)
class Ex(_Formula):
    var: str
    body: "Formula"


@_interned
@dataclass(frozen=True, eq=False)
class All(_Formula):
    var: str
    body: "Formula"


Formula = Mem | NotMem | Ad | NotAd | Or | And | BEx | BAll | Ex | All


DISJUNCTIVE = "disjunctive"
CONJUNCTIVE = "conjunctive"


def _dual_pairs(*pairs) -> dict:
    """Give each class of each dual pair ``(A, a, B, b, kinds, arity)``
    its head word, its dual, its ``shape`` (each field's name and kind:
    ``Term``, ``Formula`` or ``str``, a bound variable's name), its
    ``arity``, the reader's text for its parts, and its ``polarity``: a
    connective, a pair with a formula field, reads A as the disjunction
    and B as the conjunction of its components; an atom keeps None.
    Returns the classes by head word."""
    for A, a, B, b, kinds, arity in pairs:
        A.head, A.dual, B.head, B.dual = a, B, b, A
        if Formula in kinds:
            A.polarity, B.polarity = DISJUNCTIVE, CONJUNCTIVE
        for C in (A, B):
            C.shape, C.arity = tuple(zip([f.name for f in fields(C)], kinds, strict=True)), arity
    return {C.head: C for A, _, B, *_ in pairs for C in (A, B)}


#: The formula classes by head word: five dual pairs, each pair with
#: equal fields.  A variable field comes first: it binds in the formula
#: fields after it.
BY_HEAD = _dual_pairs(
    (Mem, "in", NotMem, "notin", (Term, Term), "two terms"),
    (Ad, "ad", NotAd, "notad", (Term,), "one term"),
    (Or, "or", And, "and", (Formula, Formula), "two formulas"),
    (BEx, "bex", BAll, "ball", (str, Term, Formula), "a variable, a bound and a body"),
    (Ex, "ex", All, "all", (str, Formula), "a variable and a body"),
)


def _shape(A: Formula) -> tuple:
    """The shape of A's class."""
    if isinstance(A, _Formula):
        return A.shape
    raise TypeError("not a formula: %r" % (A,))


Sequent = frozenset


def seq(*formulas) -> Sequent:
    return frozenset(formulas)


def equals(a: Term, b: Term) -> Formula:
    """Extensional equality as its bounded abbreviation."""
    x = _fresh_var(frozenset({a, b}))
    return And(
        BAll(x, a, Mem(Var(x), b)),
        BAll(x, b, Mem(Var(x), a)),
    )


def not_equals(a: Term, b: Term) -> Formula:
    return negate(equals(a, b))


def _fresh_var(avoid_terms) -> str:
    used = {t.name for t in avoid_terms if isinstance(t, Var)}
    i = 0
    while "u%d" % i in used:
        i += 1
    return "u%d" % i


# ---------------------------------------------------------------------------
# negation (de Morgan dual)


def negate(A: Formula) -> Formula:
    """The de Morgan dual, built once per object: A and its negation
    store each other."""
    N = getattr(A, "_negation", None)
    if N is None:
        parts = []
        for name, kind in _shape(A):
            x = getattr(A, name)
            parts.append(negate(x) if kind is Formula else x)
        N = A.dual(*parts)
        object.__setattr__(A, "_negation", N)
        object.__setattr__(N, "_negation", A)
    return N


# ---------------------------------------------------------------------------
# syntactic facts


class Facts(NamedTuple):
    """What the calculus reads off a formula's syntax, kept on the
    formula by ``facts``."""

    free_vars: frozenset
    all_vars: frozenset  # every variable name, bound or free
    support: frozenset  # the desk sets named
    depth: int  # unbounded-quantifier nesting; 0 exactly when bounded
    sigma: int  # the least i with the formula in Sigma_i
    pi: int  # the least i with the formula in Pi_i; 0 exactly when bounded
    opaque: bool  # whether an ad/notad atom occurs


def facts(A: Formula) -> Facts:
    """A's record, built from its parts' records the first time it is
    asked for and kept on A.  A bounded connective is as deep as its
    deepest part, plus one unless that is 0; an unbounded quantifier is
    one deeper than its body.  An unbounded quantifier over a body of
    levels (s, p) is Sigma_max(s,1) and then Pi one higher (existential),
    or Pi_max(p,1) and then Sigma one higher (universal)."""
    F = getattr(A, "_facts", None)
    if F is not None:
        return F
    fv = av = names = frozenset()
    binder, d, s, p, opaque = None, 0, 0, 0, isinstance(A, (Ad, NotAd))
    for name, kind in _shape(A):
        x = getattr(A, name)
        if kind is Formula:  # the first part's sets are kept, not copied
            P = facts(x)
            pv, pa = (P.free_vars, P.all_vars) if binder is None else (
                P.free_vars - {binder}, P.all_vars | {binder})
            fv, av = fv | pv if fv else pv, av | pa if av else pa
            names = names | P.support if names else P.support
            d, s, p, opaque = max(d, P.depth), max(s, P.sigma), max(p, P.pi), opaque or P.opaque
        elif kind is Term:
            if isinstance(x, Var):
                fv = fv | {x.name}
            else:
                names = names | {x.value}
        else:
            binder = x
    if not fv <= av:  # a variable term
        av = av | fv if av else fv
    if isinstance(A, Ex):
        d, s, p = d + 1, max(s, 1), max(s, 1) + 1
    elif isinstance(A, All):
        d, s, p = d + 1, max(p, 1) + 1, max(p, 1)
    elif d:
        d += 1
    F = Facts(fv, av, names, d, s, p, opaque)
    object.__setattr__(A, "_facts", F)
    return F


def free_vars(A) -> frozenset:
    """Free variable names of a formula, or of each member of a sequent."""
    if isinstance(A, frozenset):
        out = frozenset()
        for member in A:
            out |= facts(member).free_vars
        return out
    return facts(A).free_vars


def support(A) -> frozenset:
    """Desk sets named in a formula, or in each member of a sequent."""
    if isinstance(A, frozenset):
        out = frozenset()
        for member in A:
            out |= facts(member).support
        return out
    return facts(A).support


def all_vars(A: Formula) -> frozenset:
    """Every variable name in A, bound or free."""
    return facts(A).all_vars


def depth(A: Formula) -> int:
    """Unbounded-quantifier nesting measure: 0 for a bounded formula, one
    more than its deepest part for any other."""
    return facts(A).depth


def is_delta0(A: Formula) -> bool:
    """No unbounded quantifiers anywhere."""
    return facts(A).pi == 0


def member_pi(A: Formula, i: int) -> bool:
    """Is A a Pi_i formula (syntactically)?  Pi_i for i <= 0 is Delta_0."""
    return facts(A).pi <= max(i, 0)


def classify(A: Formula):
    """Minimal hierarchy level of A.

    Returns "Delta0", ("Sigma", i), ("Pi", i), or ("Delta", i) when A
    lies in both Sigma_i and Pi_i without being lower.
    """
    F = facts(A)
    s, p = F.sigma, F.pi
    if s == p:
        return "Delta0" if s == 0 else ("Delta", s)
    return ("Sigma", s) if s < p else ("Pi", p)


# ---------------------------------------------------------------------------
# variables and substitution


def fresh(base: str, avoid) -> str:
    """``base``, or else the first of base0, base1, ... not in ``avoid``."""
    names = itertools.chain([base], ("%s%d" % (base, i) for i in itertools.count()))
    return next(name for name in names if name not in avoid)


def subst(A: Formula, var: str, value: Term) -> Formula:
    """Substitution of a term for the free occurrences of a variable.
    A itself when the variable is not free in A, so every part the
    substitution does not change is the same object in the result.
    Raises ValueError when a variable term would be captured: a binder
    of its name has the substituted variable free in its body."""
    if var not in facts(A).free_vars:
        return A
    binder, parts = None, []
    for name, kind in _shape(A):
        x = getattr(A, name)
        if kind is str:
            binder = x
        elif kind is Term:
            if isinstance(x, Var) and x.name == var:
                x = value
        elif binder != var:  # a binder of var keeps its body
            if isinstance(value, Var) and value.name == binder and var in free_vars(x):
                raise ValueError(
                    "substituting %s for %s: captured by the quantifier on %s"
                    % (value.name, var, binder))
            x = subst(x, var, value)
        parts.append(x)
    return type(A)(*parts)


def close(A: Formula, assignment: dict, keep=frozenset()) -> Formula:
    """Substitute for each free variable outside ``keep`` the name of its
    value under ``assignment``, the empty set when it has none."""
    for v in sorted(free_vars(A) - keep):
        A = subst(A, v, Name(assignment.get(v, EMPTY)))
    return A


# ---------------------------------------------------------------------------
# relativization


def relativize(A: Formula, c: Term) -> Formula:
    """Bound every unbounded quantifier in A by the term c."""
    parts = []
    for name, kind in _shape(A):
        x = getattr(A, name)
        parts.append(relativize(x, c) if kind is Formula else x)
    if isinstance(A, (Ex, All)):  # the bounded quantifier of the same kind
        return BY_HEAD["b" + A.head](parts[0], c, parts[1])
    return type(A)(*parts)


def reflection_guard(A: Formula, point: Term, var: str = "z") -> Formula:
    """The right-premise sentence of a reflection inference on A at point:
    no admissible set containing point satisfies A relativized to it."""
    z = fresh(var, all_vars(A))
    witness = Ex(z, And(Ad(Var(z)), And(Mem(point, Var(z)), relativize(A, Var(z)))))
    return negate(witness)


# ---------------------------------------------------------------------------
# decomposition


class _IndexSet:
    """The index set J of a connective read as OR/AND (A_iota), iota in J.

    Each kind provides ``members()``, the indices in enumeration order,
    and ``contains(iota)``; ``outside`` is the message for an index
    that is not a member."""

    def require(self, iota) -> None:
        if not self.contains(iota):
            raise IndexError(self.outside)

    def __repr__(self):
        return "%s()" % type(self).__name__


class JTwo(_IndexSet):
    outside = "binary index must be 0 or 1"

    def members(self) -> list:
        return [0, 1]

    def contains(self, iota) -> bool:
        return iota in (0, 1)


class JBounded(_Interned, _IndexSet):
    """The members of a bounding set, ordered by their rendering; interned
    by the bound.  Membership and enumeration raise EvaluationError when
    the bound is an abstract parameter."""

    __slots__ = ("bound",)
    bound: DeskSet
    outside = "index outside the bounding set"

    def __new__(cls, bound: DeskSet) -> JBounded:
        return cls._intern((bound,))

    def members(self) -> list:
        return sorted(set_members(self.bound), key=render_set)

    def contains(self, iota) -> bool:
        return iota in set_members(self.bound)


class JUniverse(_IndexSet):
    outside = "universe indices are desk sets"

    def members(self) -> list:
        raise EvaluationError("the universe index set is not enumerable")

    def contains(self, iota) -> bool:
        return isinstance(iota, (Concrete, Abstract))


J_TWO = JTwo()
J_UNIVERSE = JUniverse()


def component(A: Formula, iota) -> Formula:
    """The component A_iota of a compound formula: a side of a binary
    connective for iota 0/1, the body instantiated at the desk set iota
    for a quantifier.  A quantifier stores each instance it has been
    asked for; a substitution that raises stores nothing."""
    if isinstance(A, (Or, And)):
        return A.left if iota == 0 else A.right
    instances = A._instances
    if instances is None:
        instances = {}
        object.__setattr__(A, "_instances", instances)
    B = instances.get(iota)
    if B is None:
        B = instances[iota] = subst(A.body, A.var, Name(iota))
    return B


def index_set(A: Formula) -> JTwo | JBounded | JUniverse | None:
    """The index set of A's connective, whatever A's truth value: two
    sides, the members of a named bound, or the universe; None for an
    atom and for a bounded quantifier over a variable."""
    if isinstance(A, (Or, And)):
        return J_TWO
    if isinstance(A, (BEx, BAll)):
        return JBounded(A.bound.value) if isinstance(A.bound, Name) else None
    if isinstance(A, (Ex, All)):
        return J_UNIVERSE
    return None


def conjunctive(A: Formula) -> bool:
    """Whether the infinitary rules read the sentence A as a conjunction:
    a bounded sentence when it is true, so abstract parameters or opaque
    atoms inside it raise EvaluationError; any other by its polarity."""
    if is_delta0(A):
        return eval_formula_bounded(A)
    return A.polarity == CONJUNCTIVE


# ---------------------------------------------------------------------------
# truth evaluation


def determinable(A: Formula) -> bool:
    """Whether evaluation can settle A: a sentence with neither opaque
    atoms nor abstract parameters."""
    F = facts(A)
    return not F.opaque and all(is_concrete(a) for a in F.support) and not F.free_vars


def _term_value(t: Term, env: dict) -> DeskSet:
    if isinstance(t, Name):
        return t.value
    try:
        return env[t.name]
    except KeyError:
        raise EvaluationError("open term %r in evaluation" % (t,)) from None


def evaluate(A: Formula, domain, env: dict) -> bool:
    """Classical truth of A over concrete sets, each variable read from
    ``env``, a dict from variable names to desk sets; a variable that
    ``env`` does not bind raises EvaluationError.

    A quantifier binds its variable to each set it ranges over in turn,
    in its own copy of ``env``, and evaluates its one body, so no
    instance is built.  Bounded quantifiers range over their bounding
    set.  An unbounded quantifier B ranges over ``domain(B, env)``; when
    that is None, B is left undecided and counts as false.  ``domain``
    may also raise.  A quantifier whose variable is not free in its
    body has the body's value over a nonempty range, so the body is
    evaluated once, under ``env``.  A bounded quantifier that some
    member decides has that value even where other members raise; when
    none decides and some raised, it raises the error of the least of
    those by ``repr``, so the value and the error do not depend on the
    order in which a set's members are walked.  An unbounded one raises
    at the first member of its domain that raises."""
    if isinstance(A, Mem):
        return set_member(_term_value(A.left, env), _term_value(A.right, env))
    if isinstance(A, NotMem):
        return not set_member(_term_value(A.left, env), _term_value(A.right, env))
    if isinstance(A, (Ad, NotAd)):
        raise EvaluationError("opaque atom cannot be evaluated")
    if isinstance(A, Or):
        return evaluate(A.left, domain, env) or evaluate(A.right, domain, env)
    if isinstance(A, And):
        return evaluate(A.left, domain, env) and evaluate(A.right, domain, env)
    if isinstance(A, (BEx, BAll)):
        sets = set_members(_term_value(A.bound, env))
    elif isinstance(A, (Ex, All)):
        sets = domain(A, env)
        if sets is None:
            return False
    else:
        raise EvaluationError("not a formula: %r" % (A,))
    exists = isinstance(A, (BEx, Ex))
    var, body = A.var, A.body
    if var not in facts(body).free_vars:
        return evaluate(body, domain, env) if sets else not exists
    inner = dict(env)
    bounded = isinstance(A, (BEx, BAll))
    undecided = None  # the least member, by repr, whose body raised
    for b in sets:
        inner[var] = b
        try:
            if evaluate(body, domain, inner) == exists:
                return exists
        except EvaluationError:
            if not bounded:
                raise
            if undecided is None or repr(b) < repr(undecided):
                undecided = b
    if undecided is not None:
        # no member decides: that member's body raises its error again
        inner[var] = undecided
        evaluate(body, domain, inner)
    return not exists


def _bounded_only(B: Formula, env: dict):
    raise EvaluationError("unbounded quantifier in bounded evaluation")


def eval_formula_bounded(A: Formula, env: dict | None = None) -> bool:
    """Classical truth of a bounded formula over concrete sets, each
    variable read from ``env`` (none when it is not given)."""
    return evaluate(A, _bounded_only, env or {})


# ---------------------------------------------------------------------------
# s-expression syntax


def render_formula(A: Formula) -> str:
    """A's s-expression text, kept on A once it is first asked for."""
    text = getattr(A, "_text", None)
    if text is None:
        text = _render(A)
        object.__setattr__(A, "_text", text)
    return text


def _render(A: Formula) -> str:
    """A's text, reading each part's kept text when it has one.  No part
    keeps its own, so the texts kept are as long as the texts asked for,
    not their square, even for deep formulas."""
    shape, parts = _shape(A), [A.head]
    for name, kind in shape:
        x = getattr(A, name)
        parts.append(x if kind is str else render_term(x) if kind is Term
                     else getattr(x, "_text", None) or _render(x))
    return "(%s)" % " ".join(parts)


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t is ZERO_TERM:
        return "0"
    return render_set(t.value)


def render_sequent(G: Sequent) -> str:
    return "(seq %s)" % " ".join(sorted(render_formula(A) for A in G))


#: Brackets, atoms (maybe ending in ``=``) and ``=``; whitespace and
#: commas separate them.
_TOKEN = re.compile(r"[(){}\[\]]|[^\s(){}\[\],=]+=?|=")
_CLOSER = {"(": ")", "{": "}", "[": "]"}
_PUNCTUATION = {*_CLOSER, *_CLOSER.values()}
_UNCLOSED = {"(": "missing closing parenthesis", "{": "unterminated set literal", "[": "missing ]"}

#: the first closer of a kept span, which ends the prefix it is indexed by
_FIRST_CLOSER = re.compile(r"[)}]")

#: the memo's key for its index of kept texts by prefix: not a text, so
#: no span's key, and cleared with the memo
_PREFIXES = ("prefixes",)


class Reader:
    """The items of one text, read in turn: an atom, a set literal
    ``{...}`` of sets and parameter names, a list ``[...]``, or a
    formula, built as its ``)`` closes; outermost, ``(seq ...)`` is a
    sequent.

    Formulas, terms and sets are interned, so equal formulas read from
    any texts while they live are one object.  ``memo`` keeps each
    outermost span, sequent member and set literal under its text, and
    indexes those texts by their prefix up to their first ``)`` or
    ``}``.  At such a span's bracket the reader takes the text from
    there to the first closer, looks that prefix up, and takes the kept
    text that the text continues with; it reads the span token by token
    only on a miss.  A match is exact: a kept text is balanced, and its
    first bracket closes only at its last character, so the text at the
    bracket holds that span and no longer one.  Deeper spans are not
    kept by text, as the keys of a chain of nested spans would grow with
    the square of its length.  A sequent and a list are not kept.  The
    keys read atoms by ``params``: a caller that changes ``params`` must
    clear the memo, which clears the index with it."""

    def __init__(self, text: str, params: dict, memo: dict):
        self.text, self.params, self.memo = text, params, memo
        self.pos = 0
        self._index = memo.setdefault(_PREFIXES, {})  # the kept texts, in lists by prefix

    def tokens(self, n: int | None = None) -> list:
        """The next ``n`` tokens, or all that are left, without reading them."""
        out, pos = [], self.pos
        while len(out) != n and (m := _TOKEN.search(self.text, pos)):
            out.append(m[0])
            pos = m.end()
        return out

    def item(self):
        """The next item; ValueError when there is none or it is malformed."""
        text, params, memo, index = self.text, self.params, self.memo, self._index
        stack = []  # the enclosing open brackets, each with its items and start
        bracket = items = start = None  # the innermost open bracket, its items and kept start
        pos = self.pos
        while m := _TOKEN.search(text, pos):
            tok, pos = m[0], m.end()
            if tok not in _PUNCTUATION:
                value = as_set(tok, params) if bracket == "{" else tok
            elif tok in _CLOSER:
                if bracket == "{" and tok != "{":
                    raise ValueError("unexpected %r in a set literal" % tok)
                at = value = None
                # an outermost span, a sequent member or a set literal, none
                # nested in another of its kind: each character is looked up
                # at most twice.  "(seq" is no formula and is not kept.
                if (tok == "{" and bracket != "{" or tok == "(" and not text.startswith("seq", pos)
                        and (bracket is None or len(stack) == 1 and items[:1] == ["seq"])):
                    at = pos - 1
                    closer = _FIRST_CLOSER.search(text, pos)
                    if closer is not None:  # else no span closes here
                        for span in index.get(text[at:closer.end()], ()):
                            if text.startswith(span, at):
                                value = memo[span]
                                break
                if value is None:
                    stack.append((bracket, items, start))
                    bracket, items, start = tok, [], at
                    continue
                pos += len(span) - 1
            else:
                if tok != _CLOSER.get(bracket):
                    raise ValueError(_UNCLOSED.get(bracket, "unexpected closing parenthesis"))
                closed, parts, at = bracket, items, start
                bracket, items, start = stack.pop()
                if closed == "[":
                    value = parts
                elif closed == "{":
                    value = Concrete(frozenset(parts))
                elif bracket is None and parts[:1] == ["seq"]:
                    value = frozenset(as_formula(x) for x in parts[1:])
                    at = None  # a sequent is kept under no text
                else:
                    value = formula_from_tree(parts, params)
                if at is not None:
                    span = text[at:pos]
                    memo[span] = value
                    index.setdefault(span[:_FIRST_CLOSER.search(span).end()], []).append(span)
            if bracket is None:
                self.pos = pos
                return value
            items.append(value)
        raise ValueError(_UNCLOSED[bracket] if bracket else "unexpected end of expression")


def read_text(text: str, params: dict):
    """The one item a whole text holds."""
    items = Reader(text, params, {})
    item = items.item()
    if rest := items.tokens():
        raise ValueError("trailing input: %r" % " ".join(rest))
    return item


def as_formula(x) -> Formula:
    if isinstance(x, Formula):
        return x
    raise ValueError("formula expressions are lists, got %r" % (x,))


def as_term(x, params: dict) -> Term:
    if x == "0":
        return ZERO_TERM
    if isinstance(x, str):
        return Name(params[x]) if x in params else Var(x)
    if isinstance(x, (Concrete, Abstract)):
        return Name(x)
    raise ValueError("terms are atoms, got %r" % (x,))


def as_set(x, params: dict) -> DeskSet:
    if isinstance(x, (Concrete, Abstract)):
        return x
    if isinstance(x, str) and x in params:
        return params[x]
    raise ValueError("unknown set parameter %r" % (x,))


def formula_from_tree(tree: list, params: dict) -> Formula:
    """One formula from its head and its parts, each already read."""
    if not tree:
        raise ValueError("formula expressions are lists, got []")
    head = tree[0]
    cls = BY_HEAD.get(head) if isinstance(head, str) else None
    if cls is None:
        if head == "not":
            raise ValueError("input must be negation-normal; apply de Morgan first")
        raise ValueError("unknown formula head %r" % (head,))
    shape, parts = cls.shape, []
    if len(tree) == len(shape) + 1:
        for (_, kind), x in zip(shape, tree[1:]):
            if kind is Term:
                x = as_term(x, params)
            elif kind is Formula:
                x = as_formula(x)
            elif not isinstance(x, str):  # the variable comes first
                break
            parts.append(x)
    if len(parts) != len(shape):
        raise ValueError("%s takes %s" % (head, cls.arity))
    return cls(*parts)


def parse_formula(text: str, params: dict | None = None) -> Formula:
    return as_formula(read_text(text, params or {}))


def parse_sequent(text: str, params: dict | None = None) -> Sequent:
    G = read_text(text, params or {})
    if not isinstance(G, frozenset):
        raise ValueError("sequent expressions start with 'seq'")
    return G
