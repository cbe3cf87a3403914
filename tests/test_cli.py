"""Command-line front end: ord, check, elim."""

import warnings

import pytest
from test_finitary import cut_chain, shared_dag

from proofkit.cli import main
from proofkit.corpus import build_corpus
from proofkit.finitary import ProofNode, ProofScript, ax_reflection, render_script
from proofkit.formulas import ZERO_TERM, parse_formula, render_formula, seq


@pytest.fixture(scope="module")
def scripts(tmp_path_factory):
    root = tmp_path_factory.mktemp("scripts")
    out = {}
    for e in build_corpus():
        path = root / (e.name + ".proof")
        path.write_text(render_script(e.script), encoding="utf-8")
        out[e.name] = str(path)
    return out


class TestOrd:
    def test_compare(self, capsys):
        assert main(["ord", "w^(W+1) ? W"]) == 0
        assert capsys.readouterr().out.strip() == "greater"

    def test_normal_form(self, capsys):
        assert main(["ord", "W + W"]) == 0
        assert capsys.readouterr().out.strip() == "W + W"

    def test_tower_convention(self, capsys):
        assert main(["ord", "w_0(W+1)"]) == 0
        assert capsys.readouterr().out.strip() == "W + 1"

    def test_parse_error(self, capsys):
        assert main(["ord", "w^("]) == 1
        assert "parse error" in capsys.readouterr().err


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
        "n1 axiom:foundation (seq (in 0 0)) var=x var2=y",
        "n1 axiom:reflection (seq (in 0 0)) term=0",
    ])
    def test_axiom_without_formula_is_a_diagnostic(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.proof"
        bad.write_text(line + "\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "node 0: (%s) needs a formula" % line.split()[1] in err
        assert "Traceback" not in err

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
        assert "w^(w^(W + W))" in out
        assert (tmp_path / "one-cut.trace").exists()

    def test_zero_rounds_gives_raw_embedding(self, scripts, tmp_path, capsys):
        assert main([
            "elim", scripts["one-cut"], "--rounds", "0", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "final rank: 2" in out
        assert "final bound: W + W" in out

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

    def test_rejects_small_n(self, scripts):
        with pytest.raises(SystemExit):
            main(["elim", scripts["pair"], "--N", "1"])

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
        assert "embedding rank: 3000" in capsys.readouterr().out

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
