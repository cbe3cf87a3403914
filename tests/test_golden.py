"""Golden regression: one digest over everything the checker, the trace
exporter and the soundness evaluator say about the corpus.

The digest covers every corpus entry after the default number of
elimination rounds (the embedding's cut rank), at sampler seeds 0-9
and expansion depths 3 and 5: the rendered trace lines, the local
checker's violations, notes and visited count, and the final bound.
For concrete entries without reflection it also covers the
``eval_cutfree(d, 8)`` verdict and reason and the oracle's verdict on
the end sequent.  A refactor that changes any of these changes the
digest.  ``POOL_DIGESTS`` pins the benchmark's outcomes on its small
seed-7 pools the same way.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import families
import pytest
import worker

from proofkit import ordinals
from proofkit.checking import (
    check_local,
    default_sampler,
    eval_cutfree,
    oracle_sequent,
    trace_lines,
)
from proofkit.corpus import ONE, build_corpus
from proofkit.derivations import Emb, Sig, TrueLeaf, WedgeNode, elim_cuts
from proofkit.formulas import (
    BAll,
    JBounded,
    Name,
    NotMem,
    Var,
    render_formula,
)
from proofkit.ordinals import from_nat, render
from proofkit.universe import EMPTY, EMPTY_HULL, Abstract, Concrete, Hull

GOLDEN = "70ae2ec7cdd53aaec3e2b6b44152788478dab263092c013ebf48e894ab54355a"

SEEDS = range(10)
DEPTHS = (3, 5)


def corpus_record() -> list:
    """One text line per fact the digest covers, in a fixed order."""
    out = []
    for e in build_corpus():
        d = Emb(e.script.root, e.script.assignment, EMPTY_HULL)
        for _ in range(d.sig.rank):
            d = elim_cuts(d)
        out.append("entry %s bound %s" % (e.name, render(d.sig.bound)))
        for seed in SEEDS:
            for depth in DEPTHS:
                report = check_local(d, depth, sampler=default_sampler(seed=seed))
                lines = trace_lines(d, depth, sampler=default_sampler(seed=seed))
                out.append("seed %d depth %d" % (seed, depth))
                out.extend(lines)
                out.append("violations %r" % (report.violations,))
                out.append("notes %r" % (report.notes,))
                out.append("visited %d" % report.visited)
        if e.concrete and not e.has_ref:
            result = eval_cutfree(d, 8)
            out.append("eval %s %r" % (result.status, result.reason))
            out.append("oracle %r" % oracle_sequent(d.sig.seq))
    return out


def test_corpus_digest():
    record = corpus_record()
    digest = hashlib.sha256("\n".join(record).encode()).hexdigest()
    assert digest == GOLDEN


def fresh_processes(code: str, envs: list) -> list:
    """What ``code`` prints in a fresh process per environment change,
    the processes run side by side."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(str(p) for p in (here.parent / "src", here.parent / "perfbench", here))
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=path, **env))
             for env in envs]
    outs = []
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        outs.append(out.split())
    return outs


def test_corpus_digest_ignores_the_hash_seed():
    """Two fresh processes under different string hash seeds, so with
    different string hashes, both give ``GOLDEN``."""
    code = ("import hashlib, test_golden; print(hashlib.sha256("
            "'\\n'.join(test_golden.corpus_record()).encode()).hexdigest())")
    outs = fresh_processes(code, [{"PYTHONHASHSEED": seed} for seed in ("0", "1")])
    assert outs == [[GOLDEN], [GOLDEN]]


def test_digests_ignore_the_heap_layout():
    """The interned values hash by identity, that is by address, so a set
    of them iterates in an order that follows the heap.  Two fresh
    processes that first allocate junk of different sizes, shifting
    every address after it, both give ``GOLDEN`` and the pinned seed-7
    ``elim`` pool digest."""
    code = ("import os; junk = [bytearray(i % 97) for i in range(int(os.environ['JUNK']))]\n"
            "import hashlib, test_golden\n"
            "print(hashlib.sha256('\\n'.join(test_golden.corpus_record()).encode()).hexdigest())\n"
            "print(test_golden.pool_digest('elim', 10))\n")
    outs = fresh_processes(code, [{"JUNK": n} for n in ("1000", "100000")])
    assert outs == [[GOLDEN, POOL_DIGESTS["elim", 10]]] * 2


#: ``worker.digest`` of the small seed-7 benchmark pools that
#: ``perfbench/test_perfbench.py::test_known_answers`` runs.  It covers
#: each case's outcome fingerprint: for ``elim`` the trace lines, the
#: violations and the notes of the local check after the default rounds.
POOL_DIGESTS = {
    ("check", 20): "43ae1add275fbe30",
    ("elim", 10): "90c29614a478b415",
    ("sound", 18): "d0d006ea21ed915d",
}


def pool_digest(workload: str, size: int) -> str:
    pool = families.GENERATORS[workload](7, size)
    fingerprints = [worker.run_one(workload, case)[1].fingerprint for case in pool]
    return worker.digest(workload, fingerprints)


@pytest.mark.parametrize("workload,size", sorted(POOL_DIGESTS))
def test_benchmark_pool_digest(workload, size):
    assert pool_digest(workload, size) == POOL_DIGESTS[workload, size]


def test_intern_table_grows_with_codes_not_runs():
    """A second run of the corpus pipeline builds only ordinal codes the
    first one interned, and renders and compares only codes the first
    one did, so the intern table and the caches of ``render``, ``_cmp``,
    ``add`` and ``omega_exp`` keep their sizes."""

    def sizes():
        return (len(ordinals._INTERNED),) + tuple(
            f.cache_info().currsize for f in (ordinals.render, ordinals._cmp,
                                              ordinals.add, ordinals.omega_exp))

    corpus_record()
    before = sizes()
    corpus_record()
    assert sizes() == before


def test_bounded_wedge_labels_follow_trace_order():
    """``check_local`` labels the premises of a set-indexed conjunction
    i0, i1, ... in the order ``trace_lines`` visits them, also when the
    bounding set mixes abstract and concrete members."""
    p = Abstract("p", from_nat(1))
    members = [EMPTY, ONE, p]
    bound = Concrete(frozenset(members))
    hull = Hull(frozenset({p}))
    A = BAll("x", Name(bound), NotMem(Var("x"), Var("x")))
    top = Sig(hull, from_nat(2), 0, frozenset({A}))
    for target in members:

        def prem(iota, target=target):
            comp = NotMem(Name(iota), Name(iota))
            # only the target's premise fails to descend
            height = from_nat(2 if iota == target else 0)
            return TrueLeaf(Sig(hull, height, 0, frozenset({A, comp})), comp)

        d = WedgeNode(top, A, JBounded(bound), prem)
        children = [line.split()[2] for line in trace_lines(d, 1)[1:]]
        want = render_formula(NotMem(Name(target), Name(target))).replace(" ", "~")
        assert sorted(children) == sorted(
            render_formula(NotMem(Name(m), Name(m))).replace(" ", "~")
            for m in members)
        report = check_local(d, 1)
        label = "0.i%d" % children.index(want)
        assert report.violations == [(label, "descent violation")]
