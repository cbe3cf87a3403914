"""Command-line front end: ord, check, elim."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import families
import pytest
from test_derivations import tree_copy
from test_finitary import M00, cut_chain, logax, shared_dag

from proofkit import cli
from proofkit.cli import main
from proofkit.corpus import build_corpus
from proofkit.derivations import Emb
from proofkit.finitary import ProofNode, ProofScript, ax_reflection, render_script
from proofkit.formulas import ZERO_TERM, parse_formula, render_formula, seq
from proofkit.ordinals import MAX_DIGITS, MAX_TOWER
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


#: the text of w_198(1), the deepest tower the parser reads
TOWER_198 = "w^(" * 196 + "w^w" + ")" * 196


def fresh(*argv):
    """``python argv`` in a fresh interpreter that imports this proofkit.
    Reading and rendering a code nested to the limit recurses some 600
    frames deep, so it runs as the command does, under the interpreter's
    default recursion limit and not under the frames of the test runner."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def fresh_ord(expr):
    """``proofkit ord expr`` in a fresh interpreter."""
    return fresh("-m", "proofkit.cli", "ord", expr)


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
        ("w_199(1)", "tower height 199 is above the limit 198"),
        ("w_100000000(1)", "tower height 100000000 is above the limit 198"),
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
            assert (status, err) == (1, "parse error: tower height %s is above the limit %d\n"
                                     % ("7" * MAX_DIGITS, MAX_TOWER))
        else:
            assert (status, out) == (0, template.replace(" ", "") % ("7" * MAX_DIGITS) + "\n")
        for digits in (MAX_DIGITS + 1, 5000):
            assert main(["ord", template % ("7" * digits)]) == 1
            assert capsys.readouterr().err == (
                "parse error: number of %d digits is above the limit of 640 digits\n" % digits)

    def test_the_highest_tower_prints_from_a_fresh_interpreter(self):
        assert MAX_TOWER == 198
        p = fresh_ord("w_198(1)")
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == TOWER_198 + "\n"

    @pytest.mark.parametrize("expr, out", [
        ("w^" * 198 + "1", TOWER_198),
        ("(" * 198 + "1" + ")" * 198, "1"),
        ("w^(" * 99 + "1" + ")" * 99, "w^(" * 97 + "w^w" + ")" * 97),
        ("w^(" * 198 + "1" + ")" * 198, TOWER_198),
        ("w^(" * 198 + "2" + ")" * 198, "w^(" * 197 + "w^2" + ")" * 197),
        ("w_100(w_98(1))", TOWER_198),
        ("w_197(w)", TOWER_198),
        ("w_198(1) ? w_197(2)", "greater"),
        (TOWER_198, TOWER_198),
    ], ids=["powers", "parentheses", "powers-of-parentheses", "198-powers-of-parentheses",
            "tower-of-2", "towers", "tower-of-w", "compare", "rendered-tower"])
    def test_an_expression_nested_to_the_limit_is_read(self, expr, out):
        p = fresh_ord(expr)
        assert (p.returncode, p.stdout, p.stderr) == (0, out + "\n", "")

    @pytest.mark.parametrize("expr", [
        "w^" * 199 + "1",
        "w^" * 300 + "1",
        "(" * 199 + "1" + ")" * 199,
        "(" * 600 + "1" + ")" * 600,
        "w_198(w_198(1))",
        "w_100(w_99(1))",
        "w^" * 198 + "w",
        "w_198(w)",
        "w^(" * 197 + "w^w" + ")" * 197,
    ], ids=["199-powers", "300-powers", "199-parentheses", "600-parentheses",
            "towers-396", "towers-199", "198-powers-of-w", "tower-of-w",
            "rendered-tower-199"])
    def test_an_expression_nested_past_the_limit_is_one_parse_error(self, capsys, expr):
        assert main(["ord", expr]) == 1
        assert capsys.readouterr().err == "parse error: nesting is above the limit of 198 levels\n"


    def test_every_code_read_to_the_limit_renders_and_reads_back(self):
        # w_199(1) is past the limit; its text, one level deeper than
        # TOWER_198, is refused as the tower itself is
        p = fresh("-c", """if True:
            from proofkit.ordinals import (MAX_TOWER, OMEGA, SUB_W, OrdinalParseError,
                                           from_nat, omega_tower, parse, render)
            for base in (from_nat(1), from_nat(2), SUB_W, OMEGA):
                for n in range(MAX_TOWER + 1):
                    code = omega_tower(n, base)
                    try:
                        back = parse(render(code))
                    except OrdinalParseError:
                        print("refused", n, render(base))
                        continue
                    assert back == code, (n, base)
            print("done")
            """)
        assert (p.returncode, p.stderr) == (0, "")
        assert p.stdout == "refused 198 w\ndone\n"

    def test_a_script_with_a_rank_nested_to_the_limit_reads_back(self, tmp_path):
        # render_script writes the rank with render; the script it writes
        # is read back, and checked, by a fresh interpreter
        path = tmp_path / "deep.proof"
        p = fresh("-c", """if True:
            import sys
            from pathlib import Path
            from proofkit.finitary import parse_script, render_script
            from proofkit.ordinals import from_nat, omega_tower
            text = "param p rank w_198(1)\\nn1 logax (seq (in 0 p) (notin 0 p)) main=(in 0 p)\\n"
            script = parse_script(text)
            assert script.params["p"].declared_rank == omega_tower(198, from_nat(1))
            out = render_script(script)
            assert parse_script(out) == script
            Path(sys.argv[1]).write_text(out, encoding="utf-8")
            """, str(path))
        assert (p.returncode, p.stderr) == (0, "")
        assert path.read_text(encoding="utf-8").startswith("param p rank %s\n" % TOWER_198)
        p = fresh("-m", "proofkit.cli", "check", str(path))
        assert (p.returncode, p.stderr) == (0, "")


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
        bad.write_text("param p rank w_199(1)\nn1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)\n",
                       encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "parse error: line 1: tower height 199 is above the limit 198\n")

    def test_a_param_rank_nested_past_the_limit_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("param p rank w_100(w_99(1))\n"
                       "n1 logax (seq (in 0 0) (notin 0 0)) main=(in 0 0)\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "parse error: line 1: nesting is above the limit of 198 levels\n")

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
