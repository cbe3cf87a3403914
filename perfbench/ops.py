"""One operation per workload, and its check against the known answer.

An operation calls the same public functions, in the same order, as
the ``proofkit check`` or ``proofkit elim`` command, in process and
starting from script text.  Functions are looked up on their modules at
call time, so the traced run sees every call.  Checking the result is
kept out of the operation so that it is not timed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from proofkit import checking, derivations, finitary, formulas, ordinals, universe

N = 2


def op_check(case):
    """The ``proofkit check`` path."""
    script = finitary.parse_script(case.text)
    result = finitary.check_proof(script.root, N=N)
    out = {
        "ok": result.ok,
        "diagnostics": result.diagnostics,
        "end": formulas.render_sequent(finitary.end_sequent(script.root)),
    }
    if result.ok:
        d = derivations.Emb(script.root, script.assignment, universe.EMPTY_HULL, N=N)
        out["rank"] = d.sig.rank
        out["bound"] = d.sig.bound
    return out


def op_elim(case):
    """The ``proofkit elim`` path with the default number of rounds."""
    script = finitary.parse_script(case.text)
    result = finitary.check_proof(script.root, N=N)
    if not result.ok:
        return {"ok": False, "diagnostics": result.diagnostics}
    d = derivations.Emb(script.root, script.assignment, universe.EMPTY_HULL, N=N)
    m = d.sig.rank
    for _ in range(m):
        d = derivations.elim_cuts(d)
    depth, seed = case.expect["depth"], case.expect["sampler_seed"]
    report = checking.check_local(
        d, depth, sampler=checking.default_sampler(seed=seed), N=N)
    lines = checking.trace_lines(
        d, depth, sampler=checking.default_sampler(seed=seed))
    # the command's own post-conditions
    expected = ordinals.times_nat(ordinals.OMEGA, m)
    for _ in range(m):
        expected = ordinals.omega_exp(expected)
    return {
        "ok": True,
        "initial_rank": m,
        "rank": d.sig.rank,
        "bound": d.sig.bound,
        "bound_as_claimed": d.sig.bound == expected,
        "report": report,
        "lines": lines,
    }


def op_sound(case):
    """Parse, check, embed, eliminate down to rank 0, evaluate the
    cut-free result and ask the oracle about the end sequent."""
    script = finitary.parse_script(case.text)
    result = finitary.check_proof(script.root, N=N)
    if not result.ok:
        return {"ok": False, "diagnostics": result.diagnostics}
    d = derivations.Emb(script.root, script.assignment, universe.EMPTY_HULL, N=N)
    m = d.sig.rank
    for _ in range(m):
        d = derivations.elim_cuts(d)
    ev = checking.eval_cutfree(d, case.expect["eval_depth"])
    oracle = checking.oracle_sequent(finitary.end_sequent(script.root))
    return {"ok": True, "initial_rank": m, "rank": d.sig.rank,
            "bound": d.sig.bound, "seq": d.sig.seq, "eval": ev, "oracle": oracle}


OPS = {"check": op_check, "elim": op_elim, "sound": op_sound}


@dataclass
class Outcome:
    """What one operation produced, judged against its known answer.

    ``failed`` names the first mismatch or the exception; ``wrong`` is
    set as well when the program asserted a wrong answer (accepted a
    mutant, reported a wrong sequent, rank or bound, refuted a checked
    proof, or had the oracle reject a true end sequent), as opposed to
    raising or reporting that it could not complete.
    """

    fingerprint: bytes
    failed: str | None = None
    wrong: str | None = None
    work: int = 0  # nodes counted by nodes_per_s
    visited: int = 0
    notes: int = 0
    checker_calls: int = 0
    checker_verified: int = 0


def _fp(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\0")
    return h.digest()


def raised(case, ex: BaseException) -> Outcome:
    msg = "%s: %s" % (type(ex).__name__, ex)
    return Outcome(_fp("raised", msg), failed=msg, work=case.nodes)


def judge(workload: str, case, out: dict) -> Outcome:
    return _JUDGES[workload](case, out)


def _judge_check(case, out):
    fp = _fp(out["ok"], out["diagnostics"], out["end"],
             out.get("rank"), ordinals.render(out["bound"]) if out["ok"] else None)
    o = Outcome(fp, work=case.nodes)
    want = case.expect
    if not want["ok"]:
        if out["ok"]:
            o.failed = o.wrong = "mutant accepted"
        return o
    if not out["ok"]:
        o.failed = "valid script rejected: %s" % (out["diagnostics"][:1],)
    elif out["end"] != want["end"]:
        o.failed = o.wrong = "end sequent differs"
    elif out["rank"] != want["rank"]:
        o.failed = o.wrong = "embedding rank %d, expected %d" % (out["rank"], want["rank"])
    elif out["bound"] != want["bound"]:
        o.failed = o.wrong = "embedding bound %s differs" % ordinals.render(out["bound"])
    return o


def _judge_elim(case, out):
    if not out["ok"]:
        return Outcome(_fp(out["diagnostics"]), work=case.nodes,
                       failed="valid script rejected: %s" % (out["diagnostics"][:1],))
    report = out["report"]
    fp = _fp(out["initial_rank"], out["rank"], ordinals.render(out["bound"]),
             report.violations, report.notes, report.visited, out["lines"])
    o = Outcome(fp, work=report.visited, visited=report.visited,
                notes=len(report.notes), checker_calls=1,
                checker_verified=int(report.passed))
    want = case.expect
    if out["initial_rank"] != want["rank"]:
        o.failed = o.wrong = "embedding rank %d, expected %d" % (
            out["initial_rank"], want["rank"])
    elif out["rank"] != 0:
        o.failed = o.wrong = "final rank %d" % out["rank"]
    elif out["bound"] != want["bound"] or not out["bound_as_claimed"]:
        o.failed = o.wrong = "final bound %s differs" % ordinals.render(out["bound"])
    elif report.violations:
        path, msg = report.violations[0]
        o.failed = "node %s: %s" % (path, msg)
    return o


def _judge_sound(case, out):
    if not out["ok"]:
        return Outcome(_fp(out["diagnostics"]), work=case.nodes,
                       failed="valid script rejected: %s" % (out["diagnostics"][:1],))
    ev = out["eval"]
    fp = _fp(out["initial_rank"], out["rank"], ordinals.render(out["bound"]),
             formulas.render_sequent(out["seq"]), ev.status, ev.reason, out["oracle"])
    o = Outcome(fp, work=case.nodes, checker_calls=1,
                checker_verified=int(ev.status == checking.VERIFIED))
    if out["initial_rank"] != case.expect["rank"]:
        o.failed = o.wrong = "embedding rank %d, expected %d" % (
            out["initial_rank"], case.expect["rank"])
    elif ev.status == checking.REFUTED:
        o.failed = o.wrong = "checked proof refuted: %s" % ev.reason
    elif not out["oracle"]:
        o.failed = o.wrong = "oracle rejects a true end sequent"
    return o


_JUDGES = {"check": _judge_check, "elim": _judge_elim, "sound": _judge_sound}
