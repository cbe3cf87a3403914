"""Finitary sequent calculus: deterministic checking, axiom instances,
and the proof-script text format."""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_formulas import random_formula, subformulas

from proofkit import finitary, formulas
from proofkit.corpus import ONE, TRANS3, TWO, build_corpus
from proofkit.derivations import emb_rank
from proofkit.finitary import (
    ProofNode,
    ProofScript,
    ax_foundation,
    ax_pair,
    ax_reflection,
    ax_separation,
    axiom_instance,
    check_proof,
    end_sequent,
    expected_premises,
    parse_script,
    render_script,
)
from proofkit.formulas import (
    Ad,
    All,
    And,
    BAll,
    BEx,
    Ex,
    Mem,
    Name,
    NotAd,
    NotMem,
    Or,
    Var,
    ZERO_TERM,
    classify,
    negate,
    parse_formula,
    parse_sequent,
    render_formula,
    seq,
)
from proofkit.ordinals import parse as parse_ord
from proofkit.universe import EMPTY, Abstract, Concrete, parse_set, render_set


def logax(A):
    return ProofNode("logax", seq(A, negate(A)), main=A)


M00 = Mem(ZERO_TERM, ZERO_TERM)


class TestCorpus:
    def test_all_entries_check(self):
        entries = build_corpus()
        assert len(entries) >= 10
        for e in entries:
            result = check_proof(e.script.root)
            assert result.ok, (e.name, result.diagnostics)

    def test_corpus_covers_required_shapes(self):
        names = {e.name for e in build_corpus()}
        assert {"pair", "union", "collection", "foundation",
                "reflection", "one-cut"} <= names


class TestRules:
    def test_or_rule(self):
        D = Or(M00, negate(M00))
        node = ProofNode("or", seq(D), (logax(M00),), main=D)
        assert check_proof(node).ok

    def test_or_rule_wrong_premise(self):
        D = Or(M00, Mem(ZERO_TERM, Name(ONE)))
        node = ProofNode("or", seq(D), (logax(M00),), main=D)
        result = check_proof(node)
        assert not result.ok

    def test_logax_needs_dual_pair(self):
        node = ProofNode("logax", seq(M00, M00), main=M00)
        result = check_proof(node)
        assert not result.ok
        assert "complementary" in result.diagnostics[0][1]

    def test_ball_eigenvariable_violation(self):
        A = BAll("x", Name(TWO), Or(Mem(Var("x"), Name(ONE)), Mem(Var("y"), Name(ONE))))
        prem_seq = seq(
            A.body and NotMem(Var("y"), Name(TWO)),
        )
        node = ProofNode(
            "ball",
            seq(A, Mem(Var("y"), Name(ONE))),
            (ProofNode("logax", prem_seq, main=M00),),
            main=A,
            var="y",
        )
        result = check_proof(node)
        assert not result.ok
        assert any("eigenvariable" in msg for _, msg in result.diagnostics)

    def test_captured_eigenvariable(self):
        # all x ex y (x in y and y notin y) with eigenvariable y: the
        # instance ex y (y in y and y notin y) would capture y
        body = Ex("y", And(Mem(Var("x"), Var("y")), NotMem(Var("y"), Var("y"))))
        A = All("x", body)
        captured = Ex("y", And(Mem(Var("y"), Var("y")), NotMem(Var("y"), Var("y"))))
        premise = ProofNode("logax", seq(A, captured), main=M00)
        result = check_proof(ProofNode("all", seq(A), (premise,), main=A, var="y"))
        assert result.diagnostics == [
            ("0", "substituting y for x: captured by the quantifier on y")]

    def test_cut_wrong_cut_formula(self):
        D = Or(M00, negate(M00))
        left = ProofNode("or", seq(D, negate(M00)), (logax(M00),), main=D)
        right = ProofNode("or", seq(M00, D), (logax(M00),), main=D)
        bad = ProofNode("cut", seq(D), (left, right), formula=Mem(ZERO_TERM, Name(ONE)))
        result = check_proof(bad)
        assert not result.ok
        assert any("premise" in msg or "mismatch" in msg for _, msg in result.diagnostics)

    def test_unknown_rule(self):
        node = ProofNode("frob", seq(M00))
        assert not check_proof(node).ok


class TestAxioms:
    def test_pair_instance_shape(self):
        inst = ax_pair(ZERO_TERM, Name(ONE))
        assert isinstance(inst, Ex)

    def test_separation_is_delta0_schema(self):
        phi = Mem(Var("x"), Name(ONE))
        inst = ax_separation(Name(TWO), "x", phi)
        assert isinstance(inst, Ex)

    def test_binders_do_not_capture_parameters(self):
        # each conclusion is the false sentence the schema would produce
        # if its binder captured a free variable (y := {0}, x := {0})
        found = parse_formula(
            "(or (ex x (and (ball y x (in y y)) (notin x y))) (all x (in x y)))")
        sep = parse_formula(
            "(ex z (and (ball x z (and (in x x) (notin x x)))"
            " (ball x x (or (in x x) (in x z)))))")
        nodes = [
            ProofNode("axiom:foundation", seq(found), var="x", var2="y",
                      formula=Mem(Var("x"), Var("y"))),
            ProofNode("axiom:separation", seq(sep), term=Var("x"), var="x",
                      formula=NotMem(Var("x"), Var("x"))),
        ]
        messages = ["foundation variable y occurs free in the formula",
                    "separation variable x is its own bounding term"]
        for node, msg in zip(nodes, messages):
            assert check_proof(node).diagnostics == [("0", msg)]

    def test_reflection_level_enforced(self):
        # a Pi_4 formula exceeds the schema's Pi_{N+1} bound at N=2
        body = Mem(Var("u"), Var("w"))
        A = All("u", Ex("v", All("w", Ex("t", body))))
        assert classify(A)[1] > 3
        inst = ax_reflection(A, ZERO_TERM)
        node = ProofNode(
            "axiom:reflection", seq(inst), formula=A, term=ZERO_TERM, var="c"
        )
        result = check_proof(node)
        assert not result.ok
        assert any(
            "reflection class violation" in msg for _, msg in result.diagnostics
        )

    def test_reflection_level_relaxes_with_n(self):
        body = Mem(Var("u"), Var("w"))
        A = All("u", Ex("v", All("w", Ex("t", body))))
        inst = ax_reflection(A, ZERO_TERM)
        node = ProofNode(
            "axiom:reflection", seq(inst), formula=A, term=ZERO_TERM, var="c"
        )
        assert check_proof(node, N=3).ok

    def test_axiom_instance_must_be_in_conclusion(self):
        node = ProofNode(
            "axiom:pair", seq(M00), term=ZERO_TERM, term2=ZERO_TERM
        )
        result = check_proof(node)
        assert not result.ok
        assert "axiom instance not in conclusion" in result.diagnostics[0][1]

    def test_foundation_instance_shape(self):
        phi = Mem(Var("x"), Name(TRANS3))
        inst = ax_foundation("x", "y", phi)
        assert isinstance(inst, Or)
        assert isinstance(inst.right, All)


class TestScripts:
    def test_roundtrip_corpus(self):
        for e in build_corpus():
            text = render_script(e.script)
            back = parse_script(text)
            assert back.root == e.script.root, e.name
            assert back.assignment == e.script.assignment, e.name
            assert check_proof(back.root).ok

    def test_end_sequent(self):
        e = build_corpus()[0]
        assert end_sequent(e.script.root) == e.script.root.conclusion

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_script("0 frobnicate [] (seq (in 0 0))")

    def test_parse_rejects_dangling_premise(self):
        with pytest.raises(ValueError):
            parse_script("0 cut [1,2] (seq (in 0 0)) cut=(in 0 0)")

    def test_parse_rejects_duplicate_node_id(self):
        text = (
            "a logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)\n"
            "a logax (seq (in 0 {0}) (notin 0 {0})) main=(in 0 {0})\n"
        )
        with pytest.raises(ValueError, match=r"^line 2: duplicate node id a$"):
            parse_script(text)


# ---------------------------------------------------------------------------
# reference scanners: the character splitter, s-expression reader, set
# literal reader and tree builders that the one script reader replaced


def ref_split_top_level(text):
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == " " and depth == 0:
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def ref_read_sexp(tokens, pos):
    if pos >= len(tokens):
        raise ValueError("unexpected end of expression")
    if tokens[pos] == "(":
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = ref_read_sexp(tokens, pos)
            out.append(item)
        if pos >= len(tokens):
            raise ValueError("missing closing parenthesis")
        return out, pos + 1
    if tokens[pos] == ")":
        raise ValueError("unexpected closing parenthesis")
    return tokens[pos], pos + 1


def ref_parse_sexp(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    tree, pos = ref_read_sexp(tokens, 0)
    if pos != len(tokens):
        raise ValueError("trailing input: %r" % tokens[pos:])
    return tree


def ref_parse_set(text, params=None):
    params = params or {}
    text = text.strip()
    pos = 0

    def parse_one():
        nonlocal pos
        if pos < len(text) and text[pos] == "{":
            pos += 1
            members = set()
            while True:
                while pos < len(text) and text[pos] in " ,":
                    pos += 1
                if pos >= len(text):
                    raise ValueError("unterminated set literal")
                if text[pos] == "}":
                    pos += 1
                    return Concrete(frozenset(members))
                members.add(parse_one())
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        if not name:
            raise ValueError("bad set literal at position %d" % pos)
        if name not in params:
            raise ValueError("unknown set parameter %r" % name)
        return params[name]

    result = parse_one()
    if text[pos:].strip():
        raise ValueError("trailing input after set literal: %r" % text[pos:])
    return result


def ref_term(tree, params):
    if not isinstance(tree, str):
        raise ValueError("terms are atoms, got %r" % (tree,))
    if tree == "0":
        return ZERO_TERM
    if tree.startswith("{"):
        return Name(ref_parse_set(tree, params))
    if tree in params:
        return Name(params[tree])
    return Var(tree)


def ref_formula(tree, params):
    if not isinstance(tree, list) or not tree:
        raise ValueError("formula expressions are lists, got %r" % (tree,))
    head = tree[0]
    binary = {"in": Mem, "notin": NotMem, "or": Or, "and": And}
    if head in ("in", "notin"):
        return binary[head](ref_term(tree[1], params), ref_term(tree[2], params))
    if head in ("ad", "notad"):
        return (Ad if head == "ad" else NotAd)(ref_term(tree[1], params))
    if head in ("or", "and"):
        return binary[head](ref_formula(tree[1], params), ref_formula(tree[2], params))
    if head in ("bex", "ball"):
        cls = BEx if head == "bex" else BAll
        return cls(tree[1], ref_term(tree[2], params), ref_formula(tree[3], params))
    if head in ("ex", "all"):
        return (Ex if head == "ex" else All)(tree[1], ref_formula(tree[2], params))
    raise ValueError("unknown formula head %r" % head)


def ref_parse_script(text):
    """The line reader before the one reader, for well-formed scripts."""
    params, assignment, nodes, last = {}, {}, {}, None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = ref_split_top_level(line)
        if parts[0] == "param":
            params[parts[1]] = Abstract(parts[1], parse_ord(parts[3]))
            continue
        if parts[0] == "assign":
            assignment[parts[1]] = ref_parse_set(parts[2], params)
            continue
        idx, premise_ids = 2, []
        if parts[idx].startswith("["):
            premise_ids = [p for p in parts[idx][1:-1].replace(",", " ").split() if p]
            idx += 1
        tree = ref_parse_sexp(parts[idx])
        concl = frozenset(ref_formula(t, params) for t in tree[1:])
        kwargs = {}
        for item in parts[idx + 1:]:
            key, value = item.split("=", 1)
            if key in ("main", "formula"):
                kwargs[key] = ref_formula(ref_parse_sexp(value), params)
            elif key in ("term", "term2", "term3"):
                kwargs[key] = ref_term(value, params)
            else:
                kwargs[key] = value
        last = nodes[parts[0]] = ProofNode(
            parts[1], concl, tuple(nodes[p] for p in premise_ids), **kwargs)
    return ProofScript(last, params, assignment)


def random_set(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return EMPTY
    return Concrete(frozenset(random_set(rng, depth - 1)
                              for _ in range(rng.randrange(4))))


class TestReader:
    # each malformed line follows a comment line, so it is line 2
    MALFORMED = [
        ("n1 logax (seq (frob 0 0)) main=(in 0 0)", "unknown formula head 'frob'"),
        ("n1 logax (seq (in 0 0) (notin 0 0) main=(in 0 0)",
         "missing closing parenthesis"),
        ("n1 logax (seq (in 0 0) (notin 0 0)) main=)",
         "unexpected closing parenthesis"),
        ("n1 ex (seq (ex x (in x 0))) main=(ex x (in x 0)) term={{}",
         "unterminated set literal"),
        ("assign x {{}", "unterminated set literal"),
        ("n1 logax (seq (in 0 {p}) (notin 0 {p})) main=(in 0 {p})",
         "unknown set parameter 'p'"),
        ("assign x q", "unknown set parameter 'q'"),
        ("n1 logax (seq (not (in 0 0))) main=(in 0 0)",
         "input must be negation-normal; apply de Morgan first"),
        ("n1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0) foo",
         "witnesses read key=value, got 'foo'"),
        ("n1 logax (seq (in 0 0) (notin 0 0)) (in 0 0)",
         "witnesses read key=value, got '(in 0 0)'"),
        ("n1 logax (seq (in 0 0) (notin 0 0)) mian=(in 0 0)",
         "unknown witness key 'mian'"),
        ("n1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0) main=(in 0 0)",
         "repeated witness main"),
        ("n1 logax (seq (or [n1] (in 0 0))) main=(in 0 0)",
         "formula expressions are lists, got ['n1']"),
        ("n1 logax main=(in 0 0)", "missing conclusion sequent"),
        ("n1 logax", "missing conclusion sequent"),
        ("n1 cut [n0] (seq (in 0 0)) formula=(in 0 0)", "undefined premise id 'n0'"),
        ("n1 frob (seq (in 0 0))", "unknown rule 'frob'"),
        ("n1 logax (seq (or (in 0 0))) main=(in 0 0)", "or takes two formulas"),
        ("n1 logax (seq (ad 0 0)) main=(ad 0)", "ad takes one term"),
        ("n1 logax (seq (bex 0 (in 0 0))) main=(in 0 0)",
         "bex takes a variable, a bound and a body"),
        ("n1 logax (seq (ex x y (in 0 0))) main=(in 0 0)",
         "ex takes a variable and a body"),
        ("n1 logax (seq (in 0 0) (notin 0 0)) main=x",
         "formula expressions are lists, got 'x'"),
        ("n1 logax (seq x) main=(in 0 0)", "formula expressions are lists, got 'x'"),
        ("n1 logax (seq) main=", "unexpected end of expression"),
        ("param p", "param lines read: param <name> rank <ordinal>"),
        ("param p size 1", "param lines read: param <name> rank <ordinal>"),
        ("param p rank W", "parameter ranks lie below Omega"),
        ("assign x", "assign lines read: assign <var> <set>"),
        ("assign x {} {}", "assign lines read: assign <var> <set>"),
        # runs of braces that are not one literal
        ("assign x {{}}}", "assign lines read: assign <var> <set>"),
        ("assign x {}}{{}", "assign lines read: assign <var> <set>"),
        ("assign x {{},q}", "unknown set parameter 'q'"),
        ("n1 logax (seq (in 0 {{}}}) (notin 0 0)) main=(in 0 0)",
         "missing closing parenthesis"),
        ("n1 logax (seq (in 0 {}}{{}) (notin 0 0)) main=(in 0 0)",
         "missing closing parenthesis"),
        ("n1 logax (seq (in 0 {{},q}) (notin 0 0)) main=(in 0 0)",
         "unknown set parameter 'q'"),
        # a member whose parentheses do not close before main=
        ("n1 logax (seq (in 0 0) (notin 0 0 main=(in 0 0)",
         "missing closing parenthesis"),
        ("n1 logax (seq (in 0 0) (notin 0 0 main=(in 0 0)))", "notin takes two terms"),
        # no "(seq" where the conclusion belongs: checked before it is read
        ("n1 logax (sq (in 0 0) (notin 0 0)) main=(in 0 0)", "missing conclusion sequent"),
        ("n1 logax (frob 0) main=(in 0 0)", "missing conclusion sequent"),
        ("n1 logax ((in 0 0) (notin 0 0)) main=(in 0 0)", "missing conclusion sequent"),
        ("n1 logax (in 0 {(in 0 0)}) main=(in 0 0)", "missing conclusion sequent"),
    ]

    @pytest.mark.parametrize("line, message", MALFORMED)
    def test_malformed_line(self, line, message):
        with pytest.raises(ValueError) as info:
            parse_script("# one malformed line\n" + line + "\n")
        assert str(info.value) == "line 2: " + message

    @pytest.mark.parametrize("parse, text", [
        (parse_formula, "(in 0 0) x"),
        (parse_formula, "(in 0 0))"),
        (parse_sequent, "(seq (in 0 0)) x"),
    ])
    def test_trailing_input(self, parse, text):
        # only the prefix: the rest quotes the unread input
        with pytest.raises(ValueError, match=r"^trailing input: "):
            parse(text)

    def test_trailing_literal_is_quoted_brace_by_brace(self):
        with pytest.raises(ValueError) as info:
            parse_formula("(in 0 0) {{},{}}")
        assert str(info.value) == "trailing input: '{ { } { } }'"

    # two logax nodes over A and its negation, the premises of a cut
    SHARED = (
        "n1 logax (seq {A} {N}) main={A}\n"
        "{between}"
        "n2 logax (seq {A} {N}) main={A}\n"
        "n3 cut [n1,n2] (seq {A} {N}) formula=(in 0 0)\n")

    def test_equal_texts_read_as_one_object(self):
        text = self.SHARED.format(
            A="(or (in 0 0) (ex x (in x 0)))",
            N="(and (notin 0 0) (all x (notin x 0)))", between="")
        root = parse_script(text).root
        n1, n2 = root.premises
        assert n1.main is n2.main
        assert root.formula is n1.main.left
        objects = lambda node: {id(A) for A in node.conclusion}
        assert objects(n1) == objects(n2) == objects(root)
        other = parse_script(text).root
        assert other.premises[0].main == n1.main
        mine = {id(B) for A in root.conclusion for B in subformulas(A)}
        theirs = {id(B) for A in other.conclusion for B in subformulas(A)}
        assert not mine & theirs

    def test_a_param_line_changes_how_later_atoms_read(self):
        text = self.SHARED.format(
            A="(in p 0)", N="(notin p 0)", between="param p rank 1\n")
        script = parse_script(text)
        n1, n2 = script.root.premises
        assert n1.main == Mem(Var("p"), ZERO_TERM)
        assert n2.main == Mem(Name(script.params["p"]), ZERO_TERM)

    def test_agrees_with_reference_on_corpus(self):
        for e in build_corpus():
            text = render_script(e.script)
            new, old = parse_script(text), ref_parse_script(text)
            assert (new.root, new.params, new.assignment) == (
                old.root, old.params, old.assignment), e.name

    def test_agrees_with_reference_on_random_formulas(self):
        rng = random.Random(6)
        for _ in range(2000):
            A = random_formula(rng, rng.randrange(6))
            s = random_set(rng, 4)
            sequent = "(seq %s %s)" % (render_formula(A), render_formula(negate(A)))
            text = "assign v %s\nn1 logax %s main=%s\n" % (
                render_set(s), sequent, render_formula(A))
            new, old = parse_script(text), ref_parse_script(text)
            assert (new.root, new.assignment) == (old.root, old.assignment)
            assert parse_sequent(sequent) == frozenset(
                ref_formula(t, {}) for t in ref_parse_sexp(sequent)[1:])
            assert parse_set(render_set(s)) == ref_parse_set(render_set(s)) == s

    def test_agrees_with_reference_on_repeated_text(self):
        """Later lines repeat earlier members, formula values and set
        literals, verbatim or spaced apart, and a param line falls
        between equal texts, which then read differently."""
        rng = random.Random(11)
        for _ in range(300):
            sets = [render_set(random_set(rng, 4)) for _ in range(3)]
            members = [render_formula(random_formula(rng, rng.randrange(4)))
                       for _ in range(3)]
            members += ["(in p %s)" % sets[0], "(notin %s %s)" % (sets[1], sets[2])]
            lines, param_at = [], rng.randrange(1, 6)
            for k in range(1, 6):
                if k == param_at:
                    lines.append("param p rank 1")
                lines.append("assign a%d %s" % (k, rng.choice(sets)))
                chosen = rng.sample(members, 3)
                lines.append("n%d or %s(seq %s) main=%s term=%s" % (
                    k, "[n%d] " % (k - 1) if k > 1 else "", " ".join(chosen),
                    rng.choice(chosen), rng.choice(sets)))
            text = "\n".join(lines) + "\n"
            old = ref_parse_script(text)
            spaced = "\n".join(
                rng.choice([line, respaced(line)]) for line in lines) + "\n"
            for new in (parse_script(text), parse_script(spaced)):
                assert (new.root, new.params, new.assignment) == (
                    old.root, old.params, old.assignment)

    # a text read once reads the same wherever it recurs, except where
    # the reader must not take it as read: a sequent is no formula, and a
    # set literal holds no formula
    LEAF_LINE = "n1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)\n"

    @pytest.mark.parametrize("seq", ["(seq", "( seq"])
    def test_a_sequent_read_before_is_no_formula(self, seq):
        text = ("n1 logax %s (in 0 0) (notin 0 0)) main=(in 0 0)\n"
                "n2 logax (seq (or %s (in 0 0) (notin 0 0)) (in 0 0))) main=(in 0 0)\n"
                % (seq, seq))
        with pytest.raises(ValueError, match=r"^line 2: unknown formula head 'seq'$"):
            parse_script(text)

    def test_a_formula_read_before_is_not_a_set_member(self):
        text = self.LEAF_LINE + "n2 logax (seq (in 0 {(in 0 0)})) main=(in 0 0)\n"
        with pytest.raises(ValueError) as info:
            parse_script(text)
        assert str(info.value) == "line 2: unexpected '(' in a set literal"

    @pytest.mark.parametrize("members", ["(in 0 0)", "(in 0 0) (notin 0 0)"])
    def test_a_sequent_read_before_is_no_main_formula(self, members):
        sequent = "(seq %s)" % members
        text = "n1 logax %s main=%s\n" % (sequent, sequent)
        with pytest.raises(ValueError) as info:
            parse_script(text)
        assert str(info.value) == (
            "line 1: formula expressions are lists, got %r" % parse_sequent(sequent))

    def test_a_literal_is_one_object_throughout_a_script(self):
        text = ("assign v {{},{{}}}\n"
                "assign w { {}, { {} } }\n"
                "n1 ex (seq (ex x (in x {{},{{}}})) (bex y {{},{{}}} (in y y))) "
                "main=(ex x (in x {{},{{}}})) term={{},{{}}}\n"
                "n2 ball [n1] (seq (ball y {{},{{}}} (notin y y)) (in 0 {{},{{}}})) "
                "main=(ball y {{},{{}}} (notin y y)) var=z\n")
        script = parse_script(text)
        n1 = script.root.premises[0]
        one = script.assignment["v"]
        assert one == parse_set("{{},{{}}}")
        found = [script.assignment["w"], n1.term.value, n1.main.body.right.value,
                 script.root.main.bound.value]
        found += [A.bound.value for A in n1.conclusion if isinstance(A, BEx)]
        found += [A.right.value for A in script.root.conclusion if isinstance(A, Mem)]
        assert len(found) == 6
        assert all(s is one for s in found)

    def test_a_second_parse_grows_no_module_table(self):
        def sizes():
            return {(module.__name__, name): len(value)
                    for module in (formulas, finitary)
                    for name, value in vars(module).items()
                    if not name.startswith("__") and isinstance(value, (dict, list, set))}

        texts = [render_script(e.script) for e in build_corpus()]
        for text in texts:
            parse_script(text)
        before = sizes()
        # and a literal no other test reads
        texts.append("assign v %s\n%s" % ("{" * 17 + "}" * 17, self.LEAF_LINE))
        for text in texts:
            parse_script(text)
        assert sizes() == before

    def test_deep_members_read_without_recursion(self):
        # past the interpreter's recursion limit, like the too-deep input
        # that proofkit check reports as one error line
        A, B = "(in 0 {{}})", "(notin 0 {{}})"
        for _ in range(3000):
            A, B = "(or (in 0 0) %s)" % A, "(and (notin 0 0) %s)" % B
        root = parse_script("n1 logax (seq %s %s) main=%s\n" % (A, B, A)).root
        assert any(member is root.main for member in root.conclusion)

    def test_text_keys_grow_with_the_text_not_its_depth(self):
        A = "(in 0 {{}})"
        for _ in range(3000):
            A = "(or (in 0 0) %s)" % A
        text = "(seq %s (and %s %s)) %s" % (A, A, A, A)
        memo = {}
        items = formulas.Reader(text, {}, memo)
        while items.tokens(1):
            items.item()
        assert sum(len(key) for key in memo if isinstance(key, str)) <= 2 * len(text)


CORPUS_LINES = [(text, k) for text in (render_script(e.script) for e in build_corpus())
                for k in range(len(text.splitlines()))]
#: what an edit puts in: brackets, separators, keys, heads, atoms
PIECES = ["(", ")", "{", "}", "[", "]", ",", " ", "=", "0", "x", "p", "n1", "seq", "in",
          "or", "ex", "main=", "formula=", "term=", "var=", "{}", "(in 0 0)", "\n", "#"]


@st.composite
def edited_scripts(draw):
    """A corpus script with one character or one token of one line
    deleted, replaced or inserted before."""
    text, k = draw(st.sampled_from(CORPUS_LINES))
    lines = text.splitlines()
    line = lines[k]
    if draw(st.booleans()):  # a character
        i = draw(st.integers(0, len(line) - 1))
        j = i + 1
    else:  # a token
        m = draw(st.sampled_from(list(formulas._TOKEN.finditer(line))))
        i, j = m.span()
    piece = draw(st.sampled_from(PIECES) | st.characters())
    edit = draw(st.sampled_from(["delete", "replace", "insert"]))
    if edit == "delete":
        piece = ""
    elif edit == "insert":
        j = i
    lines[k] = line[:i] + piece + line[j:]
    return "\n".join(lines) + "\n"


class TestRobustness:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edited_scripts())
    def test_an_edited_script_reads_or_names_its_line(self, text):
        try:
            script = parse_script(text)
        except ValueError as e:
            # a script whose one node line is commented out has no line to name
            assert re.match(r"line \d+: ", str(e)) or str(e) == "empty proof script", str(e)
            return
        assert parse_script(render_script(script)) == script


def respaced(line):
    """``line`` with its set literals and lists spaced apart, as in
    ``{ {}, { {} } }``."""
    return line.replace(",", ", ").replace("{{", "{ {").replace("}}", "} }")


def ref_check_proof(pi, N=2, every_path=False):
    """check_proof as a recursive walk over the paths, for reference: a
    node already walked is skipped, unless ``every_path`` asks for it to
    be walked again on each path that reaches it."""
    diags, walked = [], set()

    def walk(node, path):
        if not every_path and id(node) in walked:
            return
        walked.add(id(node))
        if node.rule not in finitary.RULES:
            diags.append((path, "unknown rule %r" % node.rule))
            return
        try:
            expect = expected_premises(node, N)
        except ValueError as e:
            diags.append((path, str(e)))
            return
        if len(expect) != len(node.premises):
            diags.append((path, "expected %d premises, found %d"
                          % (len(expect), len(node.premises))))
            return
        for i, (want, sub) in enumerate(zip(expect, node.premises)):
            child = "%s.%d" % (path, i)
            if sub.conclusion != want:
                diags.append((child, "premise sequent mismatch"))
            walk(sub, child)

    walk(pi, "0")
    return diags


LEAF = "(seq (in 0 0) (notin 0 0))"
LEAF_SEQ = parse_sequent(LEAF)


def cut_chain(cuts):
    """Two logical axioms and a chain of cuts, each over the previous
    cut and the first axiom, numbered as render_script numbers them."""
    lines = ["n1 logax %s main=(in 0 0)" % LEAF, "n2 logax %s main=(in 0 0)" % LEAF,
             "n3 cut [n1,n2] %s formula=(in 0 0)" % LEAF]
    lines += ["n%d cut [n%d,n1] %s formula=(in 0 0)" % (k, k - 1, LEAF)
              for k in range(4, cuts + 3)]
    return "\n".join(lines) + "\n"


def shared_dag(count):
    """A logical axiom and cuts that each use the previous node as both
    premises: 2**(count-1) paths reach the axiom."""
    lines = ["n1 logax %s main=(in 0 0)" % LEAF]
    lines += ["n%d cut [n%d,n%d] %s formula=(in 0 0)" % (k, k - 1, k - 1, LEAF)
              for k in range(2, count + 1)]
    return "\n".join(lines) + "\n"


def random_dag(rng):
    """A proof of up to 8 nodes over LEAF whose cuts share their premises
    and of which about one in five is faulty: a logical axiom without its
    pair, a cut whose premises mismatch, or a cut with one premise."""
    bad = Mem(ZERO_TERM, parse_set("{{}}"))
    nodes = [logax(M00)]
    for _ in range(rng.randrange(1, 8)):
        kind = rng.choices(("logax", "cut", "bad logax", "bad cut", "short cut"),
                           (2, 10, 1, 1, 1))[0]
        if kind.endswith("logax"):
            nodes.append(ProofNode("logax", LEAF_SEQ, main=bad if kind == "bad logax" else M00))
            continue
        recent = nodes[-3:]
        premises = (rng.choice(recent), rng.choice(recent))[:1 if kind == "short cut" else 2]
        nodes.append(ProofNode("cut", LEAF_SEQ, premises,
                               formula=bad if kind == "bad cut" else M00))
    return nodes[-1]


def is_subsequence(short, long):
    rest = iter(long)
    return all(item in rest for item in short)


def faults(root, diags):
    """The faulty nodes and mismatching edges that diagnostics name, by
    identity: a node's fault with its message, an edge as its source
    node and premise index."""
    def node_at(path):
        node = root
        for i in path.split(".")[1:]:
            node = node.premises[int(i)]
        return node

    named = set()
    for path, msg in diags:
        if msg == "premise sequent mismatch":
            parent, i = path.rsplit(".", 1)
            named.add((id(node_at(parent)), int(i)))
        else:
            named.add((id(node_at(path)), msg))
    return named


class TestDeepAndSharedProofs:
    def test_cut_chain_past_the_recursion_limit(self):
        text = cut_chain(3000)
        script = parse_script(text)
        assert check_proof(script.root).ok
        assert emb_rank(script.root) == 3000
        assert render_script(script) == text

    def test_shared_premises_are_checked_once(self, monkeypatch):
        calls = []

        def counted(node, N):
            calls.append(node)
            return expected_premises(node, N)

        monkeypatch.setattr(finitary, "expected_premises", counted)
        script = parse_script(shared_dag(40))
        assert check_proof(script.root).ok
        assert len(calls) == 40
        assert emb_rank(script.root) == 39
        assert render_script(script) == shared_dag(40)

    def test_shared_bad_node_is_reported_once(self):
        text = shared_dag(4).replace("main=(in 0 0)", "main=(in 0 {{}})", 1)
        paths = [path for path, _ in check_proof(parse_script(text).root).diagnostics]
        assert paths == ["0.0.0.0"]

    def test_bad_axiom_under_a_long_shared_dag(self):
        # 2**39 paths reach the axiom; it is reported at the first
        text = shared_dag(40).replace("main=(in 0 0)", "main=(in 0 {{}})", 1)
        assert check_proof(parse_script(text).root).diagnostics == [
            ("0" + ".0" * 39, "logical axiom lacks the complementary pair")]

    def test_both_mismatching_edges_into_a_shared_node(self, monkeypatch):
        calls = []

        def counted(node, N):
            calls.append(node.rule)
            return expected_premises(node, N)

        monkeypatch.setattr(finitary, "expected_premises", counted)
        text = ("n1 logax %s main=(in 0 0)\n"
                "n2 cut [n1,n1] %s formula=(in 0 {{}})\n" % (LEAF, LEAF))
        assert check_proof(parse_script(text).root).diagnostics == [
            ("0.0", "premise sequent mismatch"), ("0.1", "premise sequent mismatch")]
        assert calls == ["cut", "logax"]

    def test_random_dag_mutants_against_every_path_walk(self):
        rng = random.Random(20)
        shorter = 0
        for _ in range(500):
            root = random_dag(rng)
            diags = check_proof(root).diagnostics
            every = ref_check_proof(root, every_path=True)
            assert diags == ref_check_proof(root)
            assert is_subsequence(diags, every)
            assert faults(root, diags) == faults(root, every)
            shorter += len(diags) < len(every)
        assert shorter > 50

    def test_every_cut_bad_in_a_long_chain(self):
        # each cut mismatches both premises: two diagnostics per cut, and
        # the cost follows the size of that list
        text = cut_chain(3000).replace("formula=(in 0 0)", "formula=(in 0 {{}})")
        diags = check_proof(parse_script(text).root).diagnostics
        assert len(diags) == 6000
        assert diags[:3] == [("0.0", "premise sequent mismatch"),
                             ("0.0.0", "premise sequent mismatch"),
                             ("0.0.0.0", "premise sequent mismatch")]
        assert [path for path, _ in diags[2999:3001]] == [
            "0" + ".0" * 3000, "0" + ".0" * 2999 + ".1"]
        assert diags[-1] == ("0.1", "premise sequent mismatch")

    def test_diagnostics_match_a_path_by_path_walk(self):
        texts = [cut_chain(40).replace("formula=(in 0 0)", "formula=(in 0 {{}})"),
                 shared_dag(5).replace("main=(in 0 0)", "main=(in 0 {{}})", 1),
                 shared_dag(5).replace("n3 cut", "n3 and", 1)]
        texts += [render_script(e.script) for e in build_corpus()]
        for text in texts:
            root = parse_script(text).root
            assert check_proof(root).diagnostics == ref_check_proof(root)

    def test_nothing_is_checked_below_a_faulty_node(self, monkeypatch):
        calls = []

        def counted(node, N):
            calls.append(node.rule)
            return expected_premises(node, N)

        monkeypatch.setattr(finitary, "expected_premises", counted)
        text = ("n1 logax %s main=(in 0 0)\n"
                "n2 or [n1] (seq (in 0 0)) main=(in 0 {{}})\n" % LEAF)
        assert check_proof(parse_script(text).root).diagnostics == [
            ("0", "main formula not in conclusion")]
        assert calls == ["or"]

    def test_node_not_used_by_the_root(self):
        text = ("n1 logax (seq (in 0 0)) main=(in 0 {{}})\n"
                "n2 logax %s main=(in 0 0)\n" % LEAF)
        with pytest.raises(ValueError, match=r"^line 1: node n1 is not used by the root$"):
            parse_script(text)
