"""Finitary sequent calculus: deterministic checking, axiom instances,
and the proof-script text format."""

import pytest

from proofkit.corpus import ONE, TRANS3, TWO, build_corpus
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
    parse_script,
    render_script,
)
from proofkit.formulas import (
    All,
    And,
    BAll,
    Ex,
    Mem,
    Name,
    NotMem,
    Or,
    Var,
    ZERO_TERM,
    classify,
    negate,
    parse_formula,
    seq,
)


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
