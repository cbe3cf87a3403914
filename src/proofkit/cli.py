"""Batch command-line front end.

Three subcommands tie the modules together for reproducible
experiments: ``ord`` normalizes and compares ordinal expressions,
``check`` verifies a finitary proof script and reports the signature
its embedding would receive, and ``elim`` embeds a script, applies
predicative cut elimination, checks the result locally, and writes a
line-record trace.  All randomness flows from ``--seed``; the exit
status is 0 exactly when no diagnostic was emitted.  A construction or
evaluation error, or input nested too deeply to walk, ends the run with
one ``error: ...`` line and exit status 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .checking import check_local, default_sampler, trace_lines
from .derivations import ConstructionError, Emb, elim_cuts
from .finitary import check_proof, end_sequent, parse_script
from .formulas import render_sequent
from .ordinals import (
    EQUAL,
    GREATER,
    LESS,
    OMEGA,
    cmp,
    omega_exp,
    parse_query,
    render,
    times_nat,
)
from .universe import EMPTY_HULL, EvaluationError

OUT_DIR_VAR = "PROOFKIT_OUT"

VERDICTS = {LESS: "less", EQUAL: "equal", GREATER: "greater"}


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(OUT_DIR_VAR, "."))


def cmd_ord(args) -> int:
    try:
        parsed = parse_query(args.expr)
    except ValueError as ex:
        print("parse error: %s" % ex, file=sys.stderr)
        return 1
    if isinstance(parsed, tuple):
        print(VERDICTS[cmp(*parsed)])
    else:
        print(render(parsed))
    return 0


def _load_script(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_script(text)


def cmd_check(args) -> int:
    try:
        script = _load_script(args.proof)
    except (OSError, ValueError) as ex:
        print("parse error: %s" % ex, file=sys.stderr)
        return 1
    result = check_proof(script.root, N=args.N)
    print("end sequent: %s" % render_sequent(end_sequent(script.root)))
    if not result.ok:
        for path, msg in result.diagnostics:
            print("node %s: %s" % (path, msg), file=sys.stderr)
        return 1
    d = Emb(script.root, script.assignment, EMPTY_HULL, N=args.N)
    print("embedding rank: %d" % d.sig.rank)
    print("embedding bound: %s" % render(d.sig.bound))
    return 0


def cmd_elim(args) -> int:
    try:
        script = _load_script(args.proof)
    except (OSError, ValueError) as ex:
        print("parse error: %s" % ex, file=sys.stderr)
        return 1
    result = check_proof(script.root, N=args.N)
    if not result.ok:
        for path, msg in result.diagnostics:
            print("node %s: %s" % (path, msg), file=sys.stderr)
        return 1

    d = Emb(script.root, script.assignment, EMPTY_HULL, N=args.N)
    m = d.sig.rank
    if args.rounds is None:
        args.rounds = m
    for _ in range(args.rounds):
        d = elim_cuts(d)

    sampler = default_sampler(seed=args.seed)
    report = check_local(d, args.depth, sampler=sampler, N=args.N)

    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / (Path(args.proof).stem + ".trace")
    lines = trace_lines(d, args.depth, sampler=default_sampler(seed=args.seed))
    trace_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    summary = [
        "initial rank: %d" % m,
        "rounds: %d" % args.rounds,
        "final rank: %d" % d.sig.rank,
        "final bound: %s" % render(d.sig.bound),
        "checked nodes: %d" % report.visited,
        "trace: %s" % trace_path,
    ]
    if args.format == "lines":
        for line in lines:
            print(line)
    for line in summary:
        print(line)

    status = 0
    if args.rounds == m and d.sig.rank != 0:
        print("expected a cut-free result after %d rounds" % m, file=sys.stderr)
        status = 1
    if args.rounds == m and not script.assignment:
        expected = times_nat(OMEGA, m)
        for _ in range(m):
            expected = omega_exp(expected)
        if d.sig.bound != expected:
            print(
                "bound %s differs from %s" % (render(d.sig.bound), render(expected)),
                file=sys.stderr,
            )
            status = 1
    for path, msg in report.violations:
        print("node %s: %s" % (path, msg), file=sys.stderr)
        status = 1
    return status


def _positive_depth(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError("depth must be nonnegative")
    return k


def _valid_n(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError("N must be at least 2")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofkit",
        description="ordinal arithmetic, finitary proof checking, and "
        "predicative cut elimination on operator-controlled derivations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ord = sub.add_parser("ord", help="normalize or compare ordinal expressions")
    p_ord.add_argument("expr", help="expression over 0, naturals, w, W, +, #, w^, w_n; "
                       "use 'a ? b' to compare")
    p_ord.set_defaults(func=cmd_ord)

    p_check = sub.add_parser("check", help="check a finitary proof script")
    p_check.add_argument("proof", help="proof script file")
    p_check.add_argument("--N", type=_valid_n, default=2,
                         help="reflection class parameter (default 2)")
    p_check.set_defaults(func=cmd_check)

    p_elim = sub.add_parser(
        "elim", help="embed a checked proof and eliminate cuts")
    p_elim.add_argument("proof", help="proof script file")
    p_elim.add_argument("--N", type=_valid_n, default=2,
                        help="reflection class parameter (default 2)")
    p_elim.add_argument("--rounds", type=_positive_depth, default=None,
                        help="cut-elimination rounds (default: embedding rank)")
    p_elim.add_argument("--depth", type=_positive_depth, default=3,
                        help="local-check and trace expansion depth")
    p_elim.add_argument("--seed", type=int, default=0,
                        help="sampler seed for universe-indexed conjunctions")
    p_elim.add_argument("--format", choices=("text", "lines"), default="text",
                        help="also print the trace lines with 'lines'")
    p_elim.add_argument("--out", default=None,
                        help="trace output directory (default $%s or .)" % OUT_DIR_VAR)
    p_elim.set_defaults(func=cmd_elim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionError, EvaluationError, RecursionError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
