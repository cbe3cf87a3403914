"""Negation-normal formulas over the language of membership with set
names, plus the syntactic toolbox the calculi need: negation,
Levy-hierarchy classification, depth, name support, substitution,
relativization, and reflection guard sentences.

This module is also the specification layer of the infinitary
calculus.  It alone decides how a sentence decomposes -- its polarity,
its index set, membership in and enumeration order of that index set,
and the component at an index -- which sentences bounded evaluation
can settle, and what a sentence's truth value is.  The derivation
constructors and the checker both read these answers from here.

Atoms are ``t in s`` and ``t notin s`` together with the opaque pair
``ad(t)`` / ``notad(t)``.  The latter stand for "t is a transitive model
of the base set theory"; they are never evaluated or decomposed, only
carried around inside reflection sequents.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

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
# terms


def _hash_kept(cls):
    """Make the frozen dataclass ``cls`` compute its hash, the hash of its
    field tuple, on first use and keep it in the attribute ``_hash``."""
    fields_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = fields_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    return cls


@_hash_kept
@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return "Var(%r)" % self.name


@_hash_kept
@dataclass(frozen=True)
class Name:
    """A set constant naming a desk set."""

    value: DeskSet

    def __repr__(self):
        return "Name(%s)" % render_set(self.value)


Term = Var | Name

#: the individual constant 0, naming the empty set
ZERO_TERM = Name(EMPTY)


# ---------------------------------------------------------------------------
# formulas


class _Formula:
    """Base of the formula classes.  Each object stores its hash, its
    negation (``negate``), its quantifier instances by index
    (``component``) and its record of syntactic facts (``facts``) once
    they are first asked for; the stores are plain attributes, not
    dataclass fields, so ``==``, ``repr`` and the value of ``hash`` do
    not see them."""

    _negation = None
    _instances = None
    _facts = None


@_hash_kept
@dataclass(frozen=True)
class Mem(_Formula):
    left: Term
    right: Term


@_hash_kept
@dataclass(frozen=True)
class NotMem(_Formula):
    left: Term
    right: Term


@_hash_kept
@dataclass(frozen=True)
class Ad(_Formula):
    """Opaque atom: the term is a transitive model of the base theory."""

    term: Term


@_hash_kept
@dataclass(frozen=True)
class NotAd(_Formula):
    term: Term


@_hash_kept
@dataclass(frozen=True)
class Or(_Formula):
    left: "Formula"
    right: "Formula"


@_hash_kept
@dataclass(frozen=True)
class And(_Formula):
    left: "Formula"
    right: "Formula"


@_hash_kept
@dataclass(frozen=True)
class BEx(_Formula):
    """Bounded existential: exists var in bound, body."""

    var: str
    bound: Term
    body: "Formula"


@_hash_kept
@dataclass(frozen=True)
class BAll(_Formula):
    var: str
    bound: Term
    body: "Formula"


@_hash_kept
@dataclass(frozen=True)
class Ex(_Formula):
    var: str
    body: "Formula"


@_hash_kept
@dataclass(frozen=True)
class All(_Formula):
    var: str
    body: "Formula"


Formula = Mem | NotMem | Ad | NotAd | Or | And | BEx | BAll | Ex | All

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
        N = _dual(A)
        object.__setattr__(A, "_negation", N)
        object.__setattr__(N, "_negation", A)
    return N


def _dual(A: Formula) -> Formula:
    if isinstance(A, Mem):
        return NotMem(A.left, A.right)
    if isinstance(A, NotMem):
        return Mem(A.left, A.right)
    if isinstance(A, Ad):
        return NotAd(A.term)
    if isinstance(A, NotAd):
        return Ad(A.term)
    if isinstance(A, Or):
        return And(negate(A.left), negate(A.right))
    if isinstance(A, And):
        return Or(negate(A.left), negate(A.right))
    if isinstance(A, BEx):
        return BAll(A.var, A.bound, negate(A.body))
    if isinstance(A, BAll):
        return BEx(A.var, A.bound, negate(A.body))
    if isinstance(A, Ex):
        return All(A.var, negate(A.body))
    if isinstance(A, All):
        return Ex(A.var, negate(A.body))
    raise TypeError("not a formula: %r" % (A,))


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
    if isinstance(A, (Or, And)):
        L, R = facts(A.left), facts(A.right)
        d = max(L.depth, R.depth)
        F = Facts(L.free_vars | R.free_vars, L.all_vars | R.all_vars,
                  L.support | R.support, d + 1 if d else 0,
                  max(L.sigma, R.sigma), max(L.pi, R.pi), L.opaque or R.opaque)
    elif isinstance(A, (BEx, BAll, Ex, All)):
        B = facts(A.body)
        fv, av, names = B.free_vars - {A.var}, B.all_vars | {A.var}, B.support
        d, s, p = B.depth, B.sigma, B.pi
        if isinstance(A, Ex):
            d, s = d + 1, max(s, 1)
            p = s + 1
        elif isinstance(A, All):
            d, p = d + 1, max(p, 1)
            s = p + 1
        else:
            if isinstance(A.bound, Var):
                fv, av = fv | {A.bound.name}, av | {A.bound.name}
            else:
                names = names | {A.bound.value}
            d = d + 1 if d else 0
        F = Facts(fv, av, names, d, s, p, B.opaque)
    else:
        if isinstance(A, (Mem, NotMem)):
            terms = A.left, A.right
        elif isinstance(A, (Ad, NotAd)):
            terms = (A.term,)
        else:
            raise TypeError("not a formula: %r" % (A,))
        fv = frozenset(t.name for t in terms if isinstance(t, Var))
        names = frozenset(t.value for t in terms if isinstance(t, Name))
        F = Facts(fv, fv, names, 0, 0, 0, isinstance(A, (Ad, NotAd)))
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


def is_sentence(A: Formula) -> bool:
    return not free_vars(A)


def _subst_term(t: Term, var: str, value: Term) -> Term:
    if isinstance(t, Var) and t.name == var:
        return value
    return t


def subst(A: Formula, var: str, value: Term) -> Formula:
    """Substitution of a term for the free occurrences of a variable.
    Raises ValueError when a variable term would be captured: a binder
    of its name has the substituted variable free in its body."""
    if isinstance(A, Mem):
        return Mem(_subst_term(A.left, var, value), _subst_term(A.right, var, value))
    if isinstance(A, NotMem):
        return NotMem(_subst_term(A.left, var, value), _subst_term(A.right, var, value))
    if isinstance(A, Ad):
        return Ad(_subst_term(A.term, var, value))
    if isinstance(A, NotAd):
        return NotAd(_subst_term(A.term, var, value))
    if isinstance(A, Or):
        return Or(subst(A.left, var, value), subst(A.right, var, value))
    if isinstance(A, And):
        return And(subst(A.left, var, value), subst(A.right, var, value))
    if isinstance(A, BEx):
        return BEx(A.var, _subst_term(A.bound, var, value), _subst_body(A, var, value))
    if isinstance(A, BAll):
        return BAll(A.var, _subst_term(A.bound, var, value), _subst_body(A, var, value))
    if isinstance(A, Ex):
        return A if A.var == var else Ex(A.var, _subst_body(A, var, value))
    if isinstance(A, All):
        return A if A.var == var else All(A.var, _subst_body(A, var, value))
    raise TypeError("not a formula: %r" % (A,))


def _subst_body(A: Formula, var: str, value: Term) -> Formula:
    """The body of the quantifier A after substitution."""
    if A.var == var:
        return A.body
    if isinstance(value, Var) and value.name == A.var and var in free_vars(A.body):
        raise ValueError(
            "substituting %s for %s: captured by the quantifier on %s"
            % (value.name, var, A.var))
    return subst(A.body, var, value)


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
    if isinstance(A, (Mem, NotMem, Ad, NotAd)):
        return A
    if isinstance(A, Or):
        return Or(relativize(A.left, c), relativize(A.right, c))
    if isinstance(A, And):
        return And(relativize(A.left, c), relativize(A.right, c))
    if isinstance(A, BEx):
        return BEx(A.var, A.bound, relativize(A.body, c))
    if isinstance(A, BAll):
        return BAll(A.var, A.bound, relativize(A.body, c))
    if isinstance(A, Ex):
        return BEx(A.var, c, relativize(A.body, c))
    if isinstance(A, All):
        return BAll(A.var, c, relativize(A.body, c))
    raise TypeError("not a formula: %r" % (A,))


def reflection_guard(A: Formula, point: Term, var: str = "z") -> Formula:
    """The right-premise sentence of a reflection inference on A at point:
    no admissible set containing point satisfies A relativized to it."""
    z = fresh(var, all_vars(A))
    witness = Ex(z, And(Ad(Var(z)), And(Mem(point, Var(z)), relativize(A, Var(z)))))
    return negate(witness)


# ---------------------------------------------------------------------------
# decomposition


class _IndexSet:
    """An index set J of a decomposition A = OR/AND (A_iota), iota in J.

    Each kind provides ``members()``, the indices in enumeration order,
    and ``contains(iota)``; ``outside`` is the message for an index
    that is not a member."""

    outside = ""

    def require(self, iota) -> None:
        if not self.contains(iota):
            raise IndexError(self.outside)


@dataclass(frozen=True)
class JEmpty(_IndexSet):
    outside = "empty index set has no components"

    def members(self) -> list:
        return []

    def contains(self, iota) -> bool:
        return False


@dataclass(frozen=True)
class JTwo(_IndexSet):
    outside = "binary index must be 0 or 1"

    def members(self) -> list:
        return [0, 1]

    def contains(self, iota) -> bool:
        return iota in (0, 1)


@dataclass(frozen=True)
class JBounded(_IndexSet):
    """The members of a bounding set, ordered by their rendering.
    Membership and enumeration raise EvaluationError when the bound is
    an abstract parameter."""

    bound: DeskSet
    outside = "index outside the bounding set"

    def members(self) -> list:
        return sorted(set_members(self.bound), key=render_set)

    def contains(self, iota) -> bool:
        return iota in set_members(self.bound)


@dataclass(frozen=True)
class JUniverse(_IndexSet):
    outside = "universe indices are desk sets"

    def members(self) -> list:
        raise EvaluationError("the universe index set is not enumerable")

    def contains(self, iota) -> bool:
        return isinstance(iota, (Concrete, Abstract))


J_EMPTY = JEmpty()
J_TWO = JTwo()
J_UNIVERSE = JUniverse()

DISJUNCTIVE = "disjunctive"
CONJUNCTIVE = "conjunctive"


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


@dataclass(frozen=True)
class Decomposition:
    polarity: str
    index_set: JEmpty | JTwo | JBounded | JUniverse | None
    main: Formula

    def instantiate(self, iota) -> Formula:
        """The component A_iota, for iota in the index set."""
        self.index_set.require(iota)
        return component(self.main, iota)

    @property
    def by_truth(self) -> bool:
        """Whether the rules read the main formula by its truth value
        instead of this set-indexed reading: it is a connective of a
        bounded sentence.  A bounded quantifier keeps its set-indexed
        reading, which the embedding of bex/ball inferences uses."""
        return self.index_set == J_TWO and is_delta0(self.main)


def split(A: Formula) -> Decomposition | None:
    """The set-indexed reading of a compound formula, read off its top
    connective whatever its truth value; None for an atom.  A bounded
    quantifier over a variable has no index set (None)."""
    if isinstance(A, (Or, And)):
        index_set = J_TWO
    elif isinstance(A, (BEx, BAll)):
        index_set = JBounded(A.bound.value) if isinstance(A.bound, Name) else None
    elif isinstance(A, (Ex, All)):
        index_set = J_UNIVERSE
    else:
        return None
    polarity = CONJUNCTIVE if isinstance(A, (And, BAll, All)) else DISJUNCTIVE
    return Decomposition(polarity, index_set, A)


def decompose(A: Formula) -> Decomposition:
    """Assign the disjunction or conjunction the infinitary rules read off
    a sentence.  Bounded sentences decompose by their truth value, so
    abstract parameters or opaque atoms inside them raise
    EvaluationError."""
    if is_delta0(A):
        pol = CONJUNCTIVE if eval_formula_bounded(A) else DISJUNCTIVE
        return Decomposition(pol, J_EMPTY, A)
    d = split(A)
    if d is None:
        raise TypeError("not a formula: %r" % (A,))
    if d.index_set is None:
        raise ValueError("open sentence cannot be decomposed: %r" % (A,))
    return d


# ---------------------------------------------------------------------------
# truth evaluation


def determinable(A: Formula) -> bool:
    """Whether evaluation can settle A: a sentence with neither opaque
    atoms nor abstract parameters."""
    F = facts(A)
    return not F.opaque and all(is_concrete(a) for a in F.support) and not F.free_vars


def _term_value(t: Term) -> DeskSet:
    if isinstance(t, Var):
        raise EvaluationError("open term %r in evaluation" % (t,))
    return t.value


def evaluate(A: Formula, domain) -> bool:
    """Classical truth of a sentence over concrete sets.

    Bounded quantifiers range over their bounding set.  An unbounded
    quantifier B ranges over ``domain(B)``; when that is None, B is
    left undecided and counts as false.  ``domain`` may also raise."""
    if isinstance(A, Mem):
        return set_member(_term_value(A.left), _term_value(A.right))
    if isinstance(A, NotMem):
        return not set_member(_term_value(A.left), _term_value(A.right))
    if isinstance(A, (Ad, NotAd)):
        raise EvaluationError("opaque atom cannot be evaluated")
    if isinstance(A, Or):
        return evaluate(A.left, domain) or evaluate(A.right, domain)
    if isinstance(A, And):
        return evaluate(A.left, domain) and evaluate(A.right, domain)
    if isinstance(A, (BEx, BAll)):
        sets = set_members(_term_value(A.bound))
    elif isinstance(A, (Ex, All)):
        sets = domain(A)
        if sets is None:
            return False
    else:
        raise EvaluationError("not a formula: %r" % (A,))
    instances = (evaluate(subst(A.body, A.var, Name(b)), domain) for b in sets)
    return any(instances) if isinstance(A, (BEx, Ex)) else all(instances)


def _bounded_only(B: Formula):
    raise EvaluationError("unbounded quantifier in bounded evaluation")


def eval_formula_bounded(A: Formula) -> bool:
    """Classical truth of a bounded sentence over concrete sets."""
    return evaluate(A, _bounded_only)


# ---------------------------------------------------------------------------
# s-expression syntax


def render_formula(A: Formula) -> str:
    if isinstance(A, Mem):
        return "(in %s %s)" % (render_term(A.left), render_term(A.right))
    if isinstance(A, NotMem):
        return "(notin %s %s)" % (render_term(A.left), render_term(A.right))
    if isinstance(A, Ad):
        return "(ad %s)" % render_term(A.term)
    if isinstance(A, NotAd):
        return "(notad %s)" % render_term(A.term)
    if isinstance(A, Or):
        return "(or %s %s)" % (render_formula(A.left), render_formula(A.right))
    if isinstance(A, And):
        return "(and %s %s)" % (render_formula(A.left), render_formula(A.right))
    if isinstance(A, BEx):
        return "(bex %s %s %s)" % (A.var, render_term(A.bound), render_formula(A.body))
    if isinstance(A, BAll):
        return "(ball %s %s %s)" % (A.var, render_term(A.bound), render_formula(A.body))
    if isinstance(A, Ex):
        return "(ex %s %s)" % (A.var, render_formula(A.body))
    if isinstance(A, All):
        return "(all %s %s)" % (A.var, render_formula(A.body))
    raise TypeError("not a formula: %r" % (A,))


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t == ZERO_TERM:
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

#: the step in the depth of parentheses and braces at each byte, -1 as
#: a signed byte
_DEPTH_STEPS = bytes(1 if b in b"({" else 255 if b in b")}" else 0 for b in range(256))


class Reader:
    """The items of one text, read in turn: an atom, a set literal
    ``{...}`` of sets and parameter names, a list ``[...]``, or a
    formula, built as its ``)`` closes; outermost, ``(seq ...)`` is a
    sequent.

    ``memo`` keeps each formula under the tuple of its parts and each set
    under the frozenset of its members, each part already read, so equal
    formulas and sets read through one memo are one object.  It also keeps
    each outermost span, sequent member and set literal under its text:
    the reader finds the matching closer from the text's bracket depths,
    looks the text up, and reads the span token by token only on a miss.
    Deeper spans are not kept by text, as the keys of a chain of nested
    spans would grow with the square of its length.  A sequent and a list
    are kept under neither.  The keys read atoms by ``params``: a caller
    that changes ``params`` must clear the memo."""

    def __init__(self, text: str, params: dict, memo: dict):
        self.text, self.params, self.memo = text, params, memo
        self.pos = 0
        self._depth = None  # the bracket depth after each character, once asked for

    def tokens(self, n: int | None = None) -> list:
        """The next ``n`` tokens, or all that are left, without reading them."""
        out, pos = [], self.pos
        while len(out) != n and (m := _TOKEN.search(self.text, pos)):
            out.append(m[0])
            pos = m.end()
        return out

    def item(self):
        """The next item; ValueError when there is none or it is malformed."""
        text, params, memo, depth = self.text, self.params, self.memo, self._depth
        stack = []  # the enclosing open brackets, each with its items and text
        bracket = items = key = None  # the innermost open bracket, its items and text
        pos = self.pos
        while m := _TOKEN.search(text, pos):
            tok, pos = m[0], m.end()
            if tok not in _PUNCTUATION:
                value = as_set(tok, params) if bracket == "{" else tok
            elif tok in _CLOSER:
                if bracket == "{" and tok != "{":
                    raise ValueError("unexpected %r in a set literal" % tok)
                span = value = None
                # an outermost span, a sequent member or a set literal, none
                # nested in another of its kind: each character is looked up
                # at most twice.  "(seq" is no formula and is not kept.
                if (tok == "{" and bracket != "{" or tok == "(" and not text.startswith("seq", pos)
                        and (bracket is None or len(stack) == 1 and items[:1] == ["seq"])):
                    # the text up to the closer that the depths match with
                    # this bracket (none if no closer does); a non-Latin-1
                    # character encodes as one byte, which keeps positions
                    if depth is None:
                        steps = text.encode("latin-1", "replace").translate(_DEPTH_STEPS)
                        depth = self._depth = list(
                            itertools.accumulate(memoryview(steps).cast("b")))
                    try:
                        span = text[pos - 1:depth.index(depth[pos - 1] - 1, pos) + 1]
                    except ValueError:
                        pass
                    value = memo.get(span)
                if value is None:
                    stack.append((bracket, items, key))
                    bracket, items, key = tok, [], span
                    continue
                pos += len(span) - 1
            else:
                if tok != _CLOSER.get(bracket):
                    raise ValueError(_UNCLOSED.get(bracket, "unexpected closing parenthesis"))
                closed, parts, span = bracket, items, key
                bracket, items, key = stack.pop()
                if closed == "[":
                    value = parts
                elif closed == "{":
                    members = frozenset(parts)
                    value = memo.get(members)
                    if value is None:
                        value = memo[members] = Concrete(members)
                elif bracket is None and parts[:1] == ["seq"]:
                    value = frozenset(as_formula(x) for x in parts[1:])
                    span = None  # a sequent is kept under no text
                else:
                    parts = tuple(parts)
                    try:
                        value = memo.get(parts)
                    except TypeError:  # an unhashable [...] list, which formula_from_tree rejects
                        value = formula_from_tree(parts, params)
                    if value is None:
                        value = memo[parts] = formula_from_tree(parts, params)
                if span is not None:
                    memo[span] = value
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
    if head in ("in", "notin"):
        if len(tree) != 3:
            raise ValueError("%s takes two terms" % head)
        cls = Mem if head == "in" else NotMem
        return cls(as_term(tree[1], params), as_term(tree[2], params))
    if head in ("ad", "notad"):
        if len(tree) != 2:
            raise ValueError("%s takes one term" % head)
        cls = Ad if head == "ad" else NotAd
        return cls(as_term(tree[1], params))
    if head in ("or", "and"):
        if len(tree) != 3:
            raise ValueError("%s takes two formulas" % head)
        cls = Or if head == "or" else And
        return cls(as_formula(tree[1]), as_formula(tree[2]))
    if head in ("bex", "ball"):
        if len(tree) != 4 or not isinstance(tree[1], str):
            raise ValueError("%s takes a variable, a bound and a body" % head)
        cls = BEx if head == "bex" else BAll
        return cls(tree[1], as_term(tree[2], params), as_formula(tree[3]))
    if head in ("ex", "all"):
        if len(tree) != 3 or not isinstance(tree[1], str):
            raise ValueError("%s takes a variable and a body" % head)
        cls = Ex if head == "ex" else All
        return cls(tree[1], as_formula(tree[2]))
    if head == "not":
        raise ValueError("input must be negation-normal; apply de Morgan first")
    raise ValueError("unknown formula head %r" % (head,))


def parse_formula(text: str, params: dict | None = None) -> Formula:
    return as_formula(read_text(text, params or {}))


def parse_sequent(text: str, params: dict | None = None) -> Sequent:
    G = read_text(text, params or {})
    if not isinstance(G, frozenset):
        raise ValueError("sequent expressions start with 'seq'")
    return G
