"""Golden regression: one digest over everything the checker, the trace
exporter and the soundness evaluator say about the corpus.

The digest covers every corpus entry after the default number of
elimination rounds (the embedding's cut rank), at sampler seeds 0-9
and expansion depths 3 and 5: the rendered trace lines, the local
checker's violations, notes and visited count, and the final bound.
For concrete entries without reflection it also covers the
``eval_cutfree(d, 8)`` verdict and reason and the oracle's verdict on
the end sequent.  A refactor that changes any of these changes the
digest.
"""

import hashlib

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
from proofkit.ordinals import Sub, cnf_from_int, from_nat, render
from proofkit.universe import EMPTY, EMPTY_HULL, Abstract, Concrete, Hull

GOLDEN = "40532853a5c571bd9bb7835c2d2988313e12e8845c88da12e59cc37f4cab3f22"

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
    p = Abstract("p", Sub(cnf_from_int(1)))
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
            return TrueLeaf(Sig(hull, height, 0, frozenset({A, comp})), comp,
                            undetermined=iota == p)

        d = WedgeNode(top, A, JBounded(bound), prem)
        children = [line.split()[2] for line in trace_lines(d, 1)[1:]]
        want = render_formula(NotMem(Name(target), Name(target))).replace(" ", "~")
        assert sorted(children) == sorted(
            render_formula(NotMem(Name(m), Name(m))).replace(" ", "~")
            for m in members)
        report = check_local(d, 1)
        label = "0.i%d" % children.index(want)
        assert report.violations == [(label, "descent violation")]
