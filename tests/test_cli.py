"""Command-line front end: ord, check, elim."""

import sys
import warnings
from contextlib import contextmanager

import families
import pytest
from test_derivations import tree_copy
from test_finitary import M00, cut_chain, logax, shared_dag

from proofkit import cli
from proofkit.cli import main
from proofkit.corpus import build_corpus
from proofkit.derivations import Emb
from proofkit.finitary import (ProofNode, ProofScript, ax_reflection, parse_script,
                               render_script)
from proofkit.formulas import ZERO_TERM, parse_formula, render_formula, seq
from proofkit.ordinals import (MAX_DIGITS, MAX_TOWER, OMEGA, SUB_W, from_nat, omega_tower,
                               parse, render, times_nat)
from proofkit.universe import EMPTY_HULL


@pytest.fixture(scope="module")
def scripts(tmp_path_factory):
    root = tmp_path_factory.mktemp("scripts")
    out = {}
    for e in build_corpus():
        path = root / (e.name + ".proof")
        path.write_text(render_script(e.script), encoding="utf-8")
        out[e.name] = str(path)
    return out


#: the most levels a text builds, in the rows that name the limit
L = MAX_TOWER


def tower(height: int, base: int = 1) -> str:
    """The text ``render`` writes for ``w_height(base)``, for base 1 or
    2 and height at least 2: ``w_1(1)`` is ``w``, written bare."""
    inner = height - 1 - (base == 1)
    return "w^(" * inner + "w^%s" % ("w" if base == 1 else base) + ")" * inner


@contextmanager
def shallow_stack(frames: int = 50):
    """The recursion limit set ``frames`` above the caller's depth, and
    restored on leaving: code that recursed once per level of a tower
    would fail under it."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestOrd:
    def test_compare(self, capsys):
        assert main(["ord", "w^(W+1) ? W"]) == 0
        assert capsys.readouterr().out.strip() == "greater"

    def test_normal_form(self, capsys):
        assert main(["ord", "W + W"]) == 0
        assert capsys.readouterr().out.strip() == "W*2"

    def test_tower_convention(self, capsys):
        assert main(["ord", "w_0(W+1)"]) == 0
        assert capsys.readouterr().out.strip() == "W + 1"

    def test_parse_error(self, capsys):
        assert main(["ord", "w^("]) == 1
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("expr, message", [
        ("w * w", "coefficient must be a natural number"),
        ("+ 1", "unexpected token '+'"),
        ("w w", "trailing input at 'w'"),
        ("1 ? 2 3", "trailing input at '3'"),
        ("w_2 1", "expected '(', got '1'"),
        ("(1 2", "expected ')', got '2'"),
        ("w_", "w_ needs a numeric subscript"),
        ("w $", "unexpected character '$'"),
        ("w^", "unexpected end of expression"),
        ("w_10001(1)", "tower levels are above the limit of 10000"),
        ("w_100000000(1)", "tower levels are above the limit of 10000"),
    ])
    def test_each_parser_message_is_one_line(self, capsys, expr, message):
        assert main(["ord", expr]) == 1
        assert capsys.readouterr().err == "parse error: %s\n" % message

    @pytest.mark.parametrize("template", ["%s", "w * %s", "w_%s(1)"],
                             ids=["natural", "coefficient", "subscript"])
    def test_a_number_past_the_digit_limit_is_one_parse_error(self, capsys, template):
        # the limit is the lowest the interpreter can be set to, so a
        # number at the limit is read and printed under any setting
        assert MAX_DIGITS == 640
        setting = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(MAX_DIGITS)
        try:
            status = main(["ord", template % ("7" * MAX_DIGITS)])
        finally:
            sys.set_int_max_str_digits(setting)
        out, err = capsys.readouterr()
        if template.startswith("w_"):
            assert (status, err) == (1, "parse error: tower levels are above the limit of %d\n"
                                     % MAX_TOWER)
        else:
            assert (status, out) == (0, template.replace(" ", "") % ("7" * MAX_DIGITS) + "\n")
        for digits in (MAX_DIGITS + 1, 5000):
            assert main(["ord", template % ("7" * digits)]) == 1
            assert capsys.readouterr().err == (
                "parse error: number of %d digits is above the limit of 640 digits\n" % digits)

    def test_the_highest_tower_prints_under_a_shallow_stack(self, capsys):
        assert MAX_TOWER == 10_000
        with shallow_stack():
            assert main(["ord", "w_10000(1)"]) == 0
        assert capsys.readouterr() == (tower(L) + "\n", "")

    @pytest.mark.parametrize("expr, out", [
        pytest.param("w^" * 198 + "1", tower(198), id="powers"),
        pytest.param("(" * 198 + "1" + ")" * 198, "1", id="parentheses"),
        pytest.param("w^(" * 99 + "1" + ")" * 99, tower(99), id="powers-of-parentheses"),
        pytest.param("w^(" * 198 + "1" + ")" * 198, tower(198), id="198-powers-of-parentheses"),
        pytest.param("w^(" * 198 + "2" + ")" * 198, tower(198, 2), id="tower-of-2"),
        pytest.param("w_100(w_98(1))", tower(198), id="towers"),
        pytest.param("w_197(w)", tower(198), id="tower-of-w"),
        pytest.param("w_198(1) ? w_197(2)", "greater", id="compare"),
        pytest.param(tower(198), tower(198), id="rendered-tower"),
        # nested deep, but within the limit: brackets and w build no level
        pytest.param("w^" * 199 + "1", tower(199), id="199-powers"),
        pytest.param("w^" * 300 + "1", tower(300), id="300-powers"),
        pytest.param("(" * 199 + "1" + ")" * 199, "1", id="199-parentheses"),
        pytest.param("(" * 600 + "1" + ")" * 600, "1", id="600-parentheses"),
        pytest.param("w_198(w_198(1))", tower(396), id="towers-396"),
        pytest.param("w_100(w_99(1))", tower(199), id="towers-199"),
        pytest.param("w^" * 198 + "w", tower(199), id="198-powers-of-w"),
        pytest.param("w_198(w)", tower(199), id="tower-of-w-199"),
        pytest.param(tower(199), tower(199), id="rendered-tower-199"),
        # at the limit: w builds no level, so w_L(w) is a tower of L + 1
        pytest.param("w_%d(1)" % L, tower(L), id="tower-at-the-limit"),
        pytest.param("w^" * L + "1", tower(L), id="powers-at-the-limit"),
        pytest.param("w_%d(w)" % L, tower(L + 1), id="tower-of-w-at-the-limit"),
        pytest.param(tower(L + 1), tower(L + 1), id="rendered-tower-at-the-limit"),
        pytest.param("w_%d(2) # w_%d(1)" % (L // 2, L // 2),
                     tower(L // 2, 2) + " + " + tower(L // 2), id="summed-towers-at-the-limit"),
        pytest.param("w_%d(1) ? w_%d(2)" % (L // 2, L // 2), "less", id="compare-at-the-limit"),
        pytest.param(" + ".join("w^%d" % n for n in range(L, 0, -1)),
                     " + ".join("w^%d" % n for n in range(L, 1, -1)) + " + w", id="sum-at-the-limit"),
        pytest.param(" # ".join("w^%d" % n for n in range(1, L + 1)),
                     " + ".join("w^%d" % n for n in range(L, 1, -1)) + " + w",
                     id="natural-sum-at-the-limit"),
    ])
    def test_an_expression_nested_to_the_limit_is_read(self, capsys, expr, out):
        with shallow_stack():
            assert main(["ord", expr]) == 0
        assert capsys.readouterr() == (out + "\n", "")

    @pytest.mark.parametrize("expr", [
        pytest.param("w^" * (L + 1) + "1", id="powers"),
        pytest.param("w^(" * (L + 1) + "1" + ")" * (L + 1), id="powers-of-parentheses"),
        pytest.param("w_%d(w_%d(1))" % (L // 2, L // 2 + 1), id="towers"),
        pytest.param("w_%d(1) + w_%d(1)" % (L // 2, L // 2 + 1), id="summed-towers"),
        pytest.param("w_%d(1) ? w_%d(2)" % (L // 2, L // 2 + 1), id="compared-towers"),
        pytest.param(" + ".join("w^%d" % n for n in range(L + 1, 0, -1)), id="sum"),
        pytest.param(" # ".join("w^%d" % n for n in range(1, L + 2)), id="natural-sum"),
        pytest.param(tower(L + 2), id="rendered-tower"),
    ])
    def test_an_expression_nested_past_the_limit_is_one_parse_error(self, capsys, expr):
        # the levels are counted over the whole text, not along one path
        assert main(["ord", expr]) == 1
        assert capsys.readouterr().err == "parse error: tower levels are above the limit of 10000\n"

    def test_every_code_read_to_the_limit_renders_and_reads_back(self):
        # towers over four bases, of each height below 60 and of 21
        # heights up to the limit; render writes a code in no more
        # levels than the text it was read from
        heights = sorted({*range(60), *range(0, L + 1, L // 20)})
        with shallow_stack():
            for base in (from_nat(1), from_nat(2), SUB_W, OMEGA):
                for n in heights:
                    code = omega_tower(n, base)
                    assert parse(render(code)) == code, (n, render(base))

    def test_a_script_with_a_rank_nested_to_the_limit_reads_back(self, tmp_path, capsys):
        # render_script writes the rank with render; the script it writes
        # is read back, and checked
        path = tmp_path / "deep.proof"
        text = "param p rank w_%d(1)\nn1 logax (seq (in 0 p) (notin 0 p)) main=(in 0 p)\n" % L
        with shallow_stack():
            script = parse_script(text)
            assert script.params["p"].declared_rank == omega_tower(L, from_nat(1))
            out = render_script(script)
            assert parse_script(out) == script
            path.write_text(out, encoding="utf-8")
            assert main(["check", str(path)]) == 0
        assert out.startswith("param p rank %s\n" % tower(L))
        assert capsys.readouterr().err == ""


class TestCheck:
    def test_logax_rank_zero(self, scripts, capsys):
        assert main(["check", scripts["taut-depth0"]]) == 0
        out = capsys.readouterr().out
        assert "embedding rank: 0" in out
        assert "end sequent" in out

    def test_cut_rank_exceeds_depth(self, scripts, capsys):
        assert main(["check", scripts["one-cut"]]) == 0
        out = capsys.readouterr().out
        assert "embedding rank: 2" in out

    def test_reflection_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text(
            "n1 axiom:reflection (seq (or (ex u (all v (ex w (notin u w)))) "
            "(ex c (and (ad c) (and (in 0 c) "
            "(ball u c (ex v (ball w v (in u w)))))))))"
            " formula=(all u (ex v (all w (ex t (in u t)))))"
            " term=0 var=c\n",
            encoding="utf-8",
        )
        assert main(["check", str(bad)]) == 1
        assert "reflection class violation" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "n1 axiom:separation (seq (in 0 0)) term=0 var=x",
        "n1 axiom:collection (seq (in 0 0)) term=0 var=x var2=y",
        "n1 axiom:foundation (seq (in 0 0)) var=x var2=y",
        "n1 axiom:reflection (seq (in 0 0)) term=0",
    ])
    def test_axiom_without_formula_is_a_diagnostic(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.proof"
        bad.write_text(line + "\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == "node 0: (%s) needs a formula\n" % line.split()[1]

    @pytest.mark.parametrize("text, message", [
        ("", "parse error: empty proof script\n"),
        ("n1 axiom:separation (seq (in 0 0)) term=0 var=(in 0 0) formula=(in x 0)\n",
         "parse error: line 1: var takes a variable, got "),
    ])
    def test_malformed_script_is_one_error_line(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.proof"
        bad.write_text(text, encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("header, message", [
        ("param p rank 1\nparam p rank 2", "line 2: duplicate param p"),
        ("assign x {}\nassign x {{}}", "line 2: duplicate assignment x"),
    ])
    def test_repeated_header_is_a_parse_error(self, tmp_path, capsys, header, message):
        bad = tmp_path / "bad.proof"
        bad.write_text(header + "\nn1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)\n",
                       encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == "parse error: %s\n" % message

    def test_a_param_rank_above_the_tower_limit_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("param p rank w_10001(1)\nn1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)\n",
                       encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "parse error: line 1: tower levels are above the limit of 10000\n")

    def test_a_param_rank_nested_past_the_limit_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("param p rank w_5000(w_5001(1))\n"
                       "n1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "parse error: line 1: tower levels are above the limit of 10000\n")

    def test_a_param_rank_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("param p rank %s\nn1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)\n"
                       % ("1" * (MAX_DIGITS + 1)), encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "parse error: line 1: number of 641 digits is above the limit of 640 digits\n")

    #: the reflection axiom on a Pi-4 formula at the point 0
    PI4 = parse_formula("(all a (ex b (all c (ex d (in a d)))))")
    PI4_REFLECTION = render_script(ProofScript(ProofNode(
        "axiom:reflection", seq(ax_reflection(PI4, ZERO_TERM)), formula=PI4,
        term=ZERO_TERM, var="c"), {}, {}))

    def test_reflection_on_pi_n_plus_one_is_read_at_that_n(self, tmp_path, capsys):
        path = tmp_path / "refl.proof"
        path.write_text(self.PI4_REFLECTION, encoding="utf-8")
        assert main(["check", str(path), "--N", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("embedding rank: 1\nembedding bound: W\n")
        assert main(["check", str(path), "--N", "2"]) == 1
        assert capsys.readouterr().err == "node 0: reflection class violation\n"

    def test_a_witness_the_rule_does_not_read_is_refused(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("n1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)"
                       " term=0 var2=q formula=(in 0 0)\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == "node 0: (logax) reads no formula\n"

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.proof"]) == 1

    def test_too_deep_input_is_one_error_line(self, tmp_path, capsys):
        # a chain of 3,000 nested or nodes, past the interpreter's recursion limit
        A, B = "(in 0 0)", "(notin 0 0)"
        for _ in range(3000):
            A, B = "(or (in 0 0) %s)" % A, "(and (notin 0 0) %s)" % B
        deep = tmp_path / "deep.proof"
        deep.write_text("n1 logax (seq %s %s) main=%s\n" % (A, B, A), encoding="utf-8")
        assert main(["check", str(deep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: maximum recursion depth exceeded")
        assert err.count("\n") == 1


class TestElim:
    def test_summary_identity(self, scripts, tmp_path, capsys):
        assert main([
            "elim", scripts["one-cut"], "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "final rank: 0" in out
        assert "w^(w^(W*2))" in out
        assert (tmp_path / "one-cut.trace").exists()

    def test_zero_rounds_gives_raw_embedding(self, scripts, tmp_path, capsys):
        assert main([
            "elim", scripts["one-cut"], "--rounds", "0", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "final rank: 2" in out
        assert "final bound: W*2" in out

    def test_traces_byte_identical_for_equal_seeds(self, scripts, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main([
                "elim", scripts["taut-depth2"], "--seed", "7",
                "--depth", "3", "--out", str(out),
            ]) == 0
            texts.append((out / "taut-depth2.trace").read_bytes())
        assert texts[0] == texts[1]

    def test_env_var_output_dir(self, scripts, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROOFKIT_OUT", str(tmp_path))
        assert main(["elim", scripts["pair"]]) == 0
        assert (tmp_path / "pair.trace").exists()

    def test_lines_format_prints_trace(self, scripts, tmp_path, capsys):
        assert main([
            "elim", scripts["pair"], "--format", "lines", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "vee" in out or "true-leaf" in out

    def test_abstract_bound_is_reported_not_raised(self, tmp_path, capsys):
        # the ball inference over the abstract p has an index set that
        # cannot be enumerated; the trace visits none of its premises
        proof = tmp_path / "abstract.proof"
        proof.write_text(
            "param p rank 1\n"
            "n1 logax (seq (notin u p) (in u p)) main=(in u p)\n"
            "n2 or [n1] (seq (notin u p) (or (notin u p) (in u p)))"
            " main=(or (notin u p) (in u p))\n"
            "n3 ball [n2] (seq (ball x p (or (notin x p) (in x p))))"
            " main=(ball x p (or (notin x p) (in x p))) var=u\n",
            encoding="utf-8",
        )
        assert main(["check", str(proof)]) == 0
        capsys.readouterr()
        # the declared parameter p is in the embedding's hull
        assert main(["elim", str(proof), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        trace = (tmp_path / "abstract.trace").read_text(encoding="utf-8")
        assert trace.splitlines()[0].startswith("1 wedge (ball~x~p~")

    def test_foundation_with_any_bound_variable(self, tmp_path, capsys):
        # the embedding reads the progress-failure formula from the axiom
        # instance, whatever its bound variable
        a = "{{{{}}},{{}},{}}"
        proof = tmp_path / "found.proof"
        proof.write_text(
            "n1 axiom:foundation (seq (or (ex x (and (ball z x (in z %s))"
            " (notin x %s))) (all x (in x %s)))) formula=(in x %s)"
            " var=x var2=z\n" % (a, a, a, a),
            encoding="utf-8",
        )
        assert main(["elim", str(proof), "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "checked nodes: 5" in captured.out

    def test_a_collection_instance_without_a_witness_is_an_expansion_error(
            self, tmp_path, capsys):
        # no y is in 0, so the search finds no y for the member {} of {{}}
        proof = tmp_path / "collection.proof"
        proof.write_text(
            "n1 axiom:collection (seq (or (bex x {{}} (all y (notin y 0)))"
            " (ex z (ball x {{}} (bex y z (in y 0)))))) term={{}} var=x var2=y"
            " formula=(in y 0)\n",
            encoding="utf-8",
        )
        assert main(["check", str(proof)]) == 0
        capsys.readouterr()
        assert main(["elim", str(proof), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "node 0: expansion error: no collection witness found in the search space\n")

    def test_rejects_small_n(self, scripts, capsys):
        with pytest.raises(SystemExit):
            main(["elim", scripts["pair"], "--N", "1"])
        assert "argument --N: N must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rounds", "--depth"])
    def test_negative_count_names_its_flag(self, scripts, capsys, flag):
        with pytest.raises(SystemExit):
            main(["elim", scripts["pair"], flag, "-1"])
        assert "argument %s: must be nonnegative" % flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag, kind", [
        ("--rounds", "nonnegative integer"), ("--depth", "nonnegative integer"),
        ("--N", "integer N >= 2")])
    def test_non_integer_names_the_kind_of_value(self, scripts, capsys, flag, kind):
        with pytest.raises(SystemExit):
            main(["elim", scripts["pair"], flag, "abc"])
        err = capsys.readouterr().err
        assert "argument %s: invalid %s value: 'abc'" % (flag, kind) in err

    @pytest.mark.parametrize("name, rounds", [("taut-depth0", "3"), ("one-cut", "5")])
    def test_rounds_past_the_rank_are_no_ops(self, scripts, tmp_path, capsys,
                                             name, rounds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "elim", scripts[name], "--rounds", rounds, "--out", str(tmp_path),
            ]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "rounds: %s\nfinal rank: 0\n" % rounds in captured.out

    # a one-cut script (rank 2) whose assignment turns off the bound check
    ASSIGNED = "assign a {}\n"

    @pytest.mark.parametrize("header, elim, message", [
        (ASSIGNED, lambda d: d, "expected a cut-free result after 2 rounds"),
        ("", lambda d: Emb(logax(M00), {}, EMPTY_HULL),
         "bound 0 differs from w^(w^(W*2))"),
    ], ids=["cut-free", "bound"])
    def test_a_broken_elimination_fails_its_post_condition(
            self, scripts, tmp_path, capsys, monkeypatch, header, elim, message):
        path = tmp_path / "cut.proof"
        with open(scripts["one-cut"], encoding="utf-8") as f:
            path.write_text(header + f.read(), encoding="utf-8")
        monkeypatch.setattr(cli, "elim_cuts", elim)
        assert main(["elim", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("text, message", [
        ("n1 logax (seq (ad 0) (notad 0) (in 0 0)) main=(ad 0)\n"
         "n2 or [n1] (seq (or (ad 0) (in 0 0)) (notad 0)) main=(or (ad 0) (in 0 0))\n",
         "node 0: expansion error: cannot orient a bounded disjunction with opaque parts\n"),
        ("n1 logax (seq (ad 0) (notad 0)) main=(ad 0)\n"
         "n2 and [n1,n1] (seq (and (ad 0) (ad 0)) (notad 0)) main=(and (ad 0) (ad 0))\n",
         "node 0: expansion error: cannot orient a bounded conjunction with opaque parts\n"),
    ], ids=["or", "and"])
    def test_a_bounded_connective_with_opaque_parts_is_not_oriented(
            self, tmp_path, capsys, text, message):
        path = tmp_path / "opaque.proof"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["elim", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("text", [
        "n1 bogus (seq (in 0 0))\n",
        "n1 logax (seq (in 0 0)) main=(in 0 0)\n",
    ], ids=["unparsable", "unchecked"])
    def test_a_script_that_does_not_check_is_not_eliminated(self, tmp_path, capsys, text):
        path = tmp_path / "bad.proof"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("parse error: ", "node 0: "))
        out = tmp_path / "out"
        assert main(["elim", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", err)
        assert not out.exists()

    def test_out_naming_a_file_is_one_error_line(self, scripts, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(["elim", scripts["pair"], "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestDeepAndSharedScripts:
    def test_cut_chain_past_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "chain.proof"
        path.write_text(cut_chain(3000), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "embedding rank: 3000" in out
        assert "embedding bound: W*3000\n" in out

    def test_elim_walks_a_cut_chain_past_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "chain.proof"
        path.write_text(cut_chain(3000), encoding="utf-8")
        assert main(["elim", str(path), "--rounds", "0", "--depth", "3005",
                     "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "final bound: W*3000\nchecked nodes: 6001\n" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("n", [400, 3000])
    def test_elim_of_a_deep_cut_chain_prints_its_tower_bound(self, tmp_path, capsys, n):
        # after n rounds the bound is the n-level tower w_n(W*n)
        path = tmp_path / "chain.proof"
        path.write_text(cut_chain(n), encoding="utf-8")
        assert main(["elim", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        bound = render(omega_tower(n, times_nat(OMEGA, n)))
        assert "final rank: 0\n" in out and "final bound: %s\n" % bound in out
        with shallow_stack():
            assert main(["ord", bound]) == 0
        assert capsys.readouterr() == (bound + "\n", "")

    def test_doubly_shared_dag(self, tmp_path, capsys):
        path = tmp_path / "dag.proof"
        path.write_text(shared_dag(40), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert "embedding rank: 39" in capsys.readouterr().out

    def test_bad_axiom_under_a_doubly_shared_dag(self, tmp_path, capsys):
        path = tmp_path / "dag.proof"
        path.write_text(shared_dag(40).replace("main=(in 0 0)", "main=(in 0 {{}})", 1),
                        encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "node 0%s: logical axiom lacks the complementary pair" % (".0" * 39)]

    @pytest.mark.parametrize("i", [0, 2], ids=["valid", "ball"])
    def test_elim_of_a_dag_prints_what_its_tree_copy_does(self, tmp_path, capsys, i):
        case = families.gen_elim(7, 3)[i]
        outputs = []
        for kind, text in (("dag", case.text), ("tree", tree_copy(case.text))):
            path = tmp_path / kind / "case.proof"
            path.parent.mkdir()
            path.write_text(text, encoding="utf-8")
            status = main(["elim", str(path), "--out", str(tmp_path / "out")])
            captured = capsys.readouterr()
            trace = (tmp_path / "out" / "case.trace").read_text(encoding="utf-8")
            outputs.append((status, captured.out, captured.err, trace))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (1 if case.kind == "ball" else 0)

    def test_premise_of_a_faulty_node_is_not_checked(self, tmp_path, capsys):
        # the foundation axiom lacks its formula=, which would fail inside
        # its own check; the faulty root stops checking above it
        path = tmp_path / "stop.proof"
        path.write_text("n1 axiom:foundation (seq (in 0 0)) var=x var2=y\n"
                        "n2 or [n1] (seq (in 0 0)) main=(in 0 {{}})\n", encoding="utf-8")
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert "node 0: main formula not in conclusion" in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestReflectionVariable:
    def test_bound_admissible_variable_is_not_captured(self, tmp_path, capsys):
        # the reflected formula binds c, so the instance's admissible set
        # is c0 and the relativized body keeps its own binder
        A = parse_formula("(all u (ex c (all w (in w c))))")
        inst = ax_reflection(A, ZERO_TERM)
        assert inst.right.var == "c0"
        assert "(bex c c " not in render_formula(inst)
        node = ProofNode("axiom:reflection", seq(inst), formula=A, term=ZERO_TERM, var="c")
        path = tmp_path / "refl.proof"
        path.write_text(render_script(ProofScript(node, {}, {})), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert main(["elim", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
