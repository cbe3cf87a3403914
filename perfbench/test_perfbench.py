"""Tests of the benchmark itself: generators, known answers, tracer and
runner.  Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402
from proofkit import checking, cli, derivations, finitary, formulas, ordinals, universe  # noqa: E402

import families  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def _case(kind, text, **expect):
    return families.Case(kind, text, text.count("\n"), text.count("\n"), 0, 0, expect)


#: The 4-line identity proof of (ball x0 {{{}}} (in x0 {{{}},{}})); it
#: passes ``proofkit check`` and fails ``proofkit elim``.
BALL_SCRIPT = """\
n1 logax (seq (in v1 {{{}},{}}) (in v1 {{{}}}) (notin v1 {{{}}})) main=(in v1 {{{}}})
n2 logax (seq (in v1 {{{}},{}}) (notin v1 {{{}},{}}) (notin v1 {{{}}})) main=(in v1 {{{}},{}})
n3 bex [n1,n2] (seq (bex x0 {{{}}} (notin x0 {{{}},{}})) (in v1 {{{}},{}}) (notin v1 {{{}}})) \
main=(bex x0 {{{}}} (notin x0 {{{}},{}})) term=v1
n4 ball [n3] (seq (ball x0 {{{}}} (in x0 {{{}},{}})) (bex x0 {{{}}} (notin x0 {{{}},{}}))) \
main=(ball x0 {{{}}} (in x0 {{{}},{}})) var=v1
"""
#: its embedding rank: a logical axiom on a bounded formula has rank 0
BALL_RANK = 2


def test_ball_script_passes_check():
    text = BALL_SCRIPT
    assert [line.split()[1] for line in text.splitlines()] == ["logax", "logax", "bex", "ball"]
    out = ops.op_check(_case("ball", text))
    assert out["ok"]
    assert out["rank"] == BALL_RANK


def test_ball_script_counts_as_failed_elim_op():
    """Known defect: the rank-0 true leaf under each rank-m ``ball`` cut."""
    m = BALL_RANK
    case = _case("ball", BALL_SCRIPT, rank=m, bound=families.elim_bound(m), depth=3,
                 sampler_seed=0)
    o = ops.judge("elim", case, ops.op_elim(case))
    assert o.failed == "node 0.i0: expansion error: cut elimination needs positive rank"
    assert o.wrong is None


def test_ball_script_fails_the_command_too(tmp_path):
    proof = tmp_path / "ball.proof"
    proof.write_text(BALL_SCRIPT)
    assert cli.main(["check", str(proof)]) == 0
    assert cli.main(["elim", str(proof), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("workload,size", [("check", 20), ("elim", 10), ("sound", 18)])
def test_known_answers(workload, size):
    """Every case meets its known answer except the ``ball`` cases of the
    workloads that unfold the embedding, which hit the known defect."""
    pool = families.GENERATORS[workload](7, size)
    failing = set()
    for i, case in enumerate(pool):
        _, o = worker.run_one(workload, case)
        assert o.wrong is None, (i, case.kind, o.wrong)
        if o.failed:
            failing.add(i)
    expected = set() if workload == "check" else {
        i for i, c in enumerate(pool) if c.kind == "ball"}
    assert failing == expected
    assert expected or workload == "check"


def test_generators_are_seeded():
    for gen in families.GENERATORS.values():
        a, b, c = gen(3, 6), gen(3, 6), gen(4, 6)
        assert [x.text for x in a] == [x.text for x in b]
        assert [x.text for x in a] != [x.text for x in c]


def test_every_rule_is_covered():
    rules = set()
    for workload, gen in families.GENERATORS.items():
        for case in gen(1, 24):
            rules |= {line.split()[1] for line in case.text.splitlines()}
    assert {"logax", "or", "and", "ex", "all", "bex", "ball", "cut",
            "axiom:foundation"} <= rules


def test_pools_hold_a_hundred_cases():
    for gen in families.GENERATORS.values():
        assert len(gen(1)) >= 100


def test_check_pool_mix():
    pool = families.gen_check(5)
    kinds = families.describe(pool)["kinds"]
    assert kinds["mutant"] == len(pool) // 5
    assert kinds["dag"] > 0 and kinds["ball"] > 0
    dag = [c for c in pool if c.kind == "dag"]
    assert all(c.walks > c.nodes for c in dag)
    assert all(c.walks == c.nodes for c in pool if c.kind == "valid")


def test_mutants_are_rejected():
    for case in families.gen_check(2, 15):
        if case.kind == "mutant":
            assert not ops.op_check(case)["ok"]


def test_elim_bound_from_primitives():
    assert families.elim_bound(1) == ordinals.omega_exp(ordinals.OMEGA)
    two = ordinals.add(ordinals.OMEGA, ordinals.OMEGA)
    assert families.elim_bound(2) == ordinals.omega_exp(ordinals.omega_exp(two))


def test_tracer_wraps_every_binding_and_restores():
    original = ordinals.cmp
    tr = tracer.Tracer().install()
    try:
        for module in (ordinals, derivations, checking, cli, universe):
            assert module.cmp is not original
        ordinals.cmp(ordinals.ZERO, ordinals.OMEGA)
        checking.cmp(ordinals.OMEGA, ordinals.ZERO)
        assert tr.calls["ordinals.cmp"] == 2
        atom = formulas.Mem(formulas.ZERO_TERM, formulas.ZERO_TERM)
        d = derivations.Emb(finitary.ProofNode(
            "logax", frozenset({atom, formulas.negate(atom)}), main=atom), {},
            universe.EMPTY_HULL)
        d.unfold()  # expands the embedding and the tautology under it
        d.unfold()  # cached
    finally:
        tr.uninstall()
    assert tr.calls["derivations.Emb"] == 1
    assert tr.calls["derivations.unfold"] == 3 and tr.expansions == 2
    for module in (ordinals, derivations, checking, cli, universe):
        assert module.cmp is original


def test_digest_repeats_for_one_seed():
    pool = families.gen_check(9, 12)
    a = worker.measure("check", pool, 0.0, trace=False)
    b = worker.measure("check", pool, 0.0, trace=True)
    assert a["digest"] == b["digest"]
    assert a["attempted"] == worker.MIN_PASSES * len(pool) and not a["wrong"]
    assert set(b["layers"]) >= {"finitary.rewalk_ratio", "ordinals.validate_nf.entries"}


def test_pause_points_spread_over_the_run():
    assert worker.pause_points(8, 6) == {1, 2, 3, 5, 6, 7}
    assert worker.pause_points(5, 6) == {1, 2, 3, 4}
    assert worker.pause_points(3, 0) == set()


def test_pass_count_ignores_speed():
    pass_s = families.PARAMS["elim"]["pass_s"]
    assert worker.pass_count("elim", 0.0) == worker.MIN_PASSES
    assert worker.pass_count("elim", 10 * pass_s) == 10


def test_speed_factors_follow_the_host_and_drop_stray_blocks():
    ref = worker.CAL_REF_S
    # a host at half the reference speed doubles every block's time
    assert worker.speed_factors([2 * ref] * 6) == [0.5] * 5
    # one block hit by an interrupt does not move any factor
    assert worker.speed_factors([ref, ref, 9 * ref, ref, ref, ref]) == [1.0] * 5
    # a slow spell in the second half of a pass moves only the chunks in it
    f = worker.speed_factors([ref] * 6 + [2 * ref] * 6)
    assert f[0] == 1.0 and f[-1] == 0.5


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(families.GENERATORS)
    names = {m["name"] for m in spec["per_layer"]}
    pool = families.gen_elim(1, 5)
    res = worker.measure("elim", pool, 0.0, trace=True)
    assert set(res["layers"]) | {"trace.overhead_ratio"} == names
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert set(res["metrics"]) | {"setup_s"} == e2e
