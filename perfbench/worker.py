"""One benchmark process: set up a workload, then run it in a closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds T --mode M

Set-up imports proofkit, generates the seeded pool and runs one warm-up
operation, then prints ``ready``.  With ``--mode setup`` the process
stops there.  Otherwise one client runs operations back to back, in
a fixed number of whole passes over the pool, between calibration
blocks that measure the host's speed (see ``measure``), and then
prints one JSON line with the results.  ``--mode trace`` runs the same
loop with the per-layer tracer installed.  With ``--pauses K`` the run
stops K times between passes, spread evenly over it: it prints
``pause`` and waits for a line on standard input, so that the caller
can time a fresh set-up while nothing else runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from proofkit import universe  # noqa: E402

import families  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402

#: fewest passes a run makes
MIN_PASSES = 3
#: iterations of one calibration block (about 4 ms on the reference machine)
CAL_UNITS = 4000
#: seconds one calibration block takes on the reference machine (see README)
CAL_REF_S = 0.0037
#: calibration blocks whose median sets one chunk's speed factor
CAL_WINDOW = 5


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run of ``seconds`` makes.  The count depends on the
    workload and ``seconds`` only, never on how fast the program is, so
    that the medians are taken over as many passes at every commit."""
    return max(MIN_PASSES, round(seconds / families.PARAMS[workload]["pass_s"]))


def pause_points(passes: int, pauses: int) -> set:
    """The passes after which a run of ``passes`` passes pauses, at
    most ``pauses`` of them and never after the last."""
    k = min(pauses, passes - 1)
    return {round((j + 1) * passes / (k + 1)) for j in range(k)}


def wait_for_caller():
    print("pause", flush=True)
    sys.stdin.readline()


def run_one(workload, case):
    """Time one operation and judge it; an exception is a failed op."""
    t0 = time.perf_counter()
    try:
        out = ops.OPS[workload](case)
    except Exception as ex:  # the loop must go on; the op is counted as failed
        return time.perf_counter() - t0, ops.raised(case, ex)
    dt = time.perf_counter() - t0
    return dt, ops.judge(workload, case, out)


def digest(workload, fingerprints) -> str:
    """Hash of every case's outcome in pool order and of the HF order."""
    h = hashlib.sha256(workload.encode())
    for s in universe.enumerate_hf(16):
        h.update(universe.render_set(s).encode())
    for fp in fingerprints:
        h.update(fp)
    return h.hexdigest()[:16]


def calibration_block() -> float:
    """Seconds a fixed piece of pure-Python work takes now.  It uses no
    proofkit code (tuples, frozensets, hashing and a dict, as the
    workloads do), so a change to the program leaves it alone while a
    change in the host's speed moves it as it moves the program."""
    t0 = time.perf_counter()
    d = {}
    for i in range(CAL_UNITS):
        t = (i & 63, i >> 6)
        s = frozenset((t, i & 7))
        d[s] = d.get(s, 0) + 1
    return time.perf_counter() - t0


def speed_factors(cals):
    """Factor for chunk j, whose neighbouring calibration blocks are
    ``cals[j]`` and ``cals[j + 1]``: ``CAL_REF_S`` over the median of
    the ``CAL_WINDOW`` blocks nearest to the chunk.  The median drops the
    blocks that an interrupt or a collection happened to hit."""
    out = []
    n = len(cals)
    for j in range(n - 1):
        lo = max(0, min(j + 1 - CAL_WINDOW // 2, n - CAL_WINDOW))
        out.append(CAL_REF_S / statistics.median(cals[lo:lo + CAL_WINDOW]))
    return out


def measure(workload, pool, seconds, trace, pauses=0):
    """Run ``pass_count(workload, seconds)`` whole passes over the pool,
    pausing after the passes ``pause_points`` names.  Every pass does
    the same work, in chunks of ``PARAMS[workload]["chunk"]`` operations
    with a calibration block before, between and after them.

    The timing metrics are in reference seconds: the wall time of each
    operation times its chunk's ``speed_factors`` factor, which is what
    it would have taken with the host at the speed it had when
    ``CAL_REF_S`` was measured.  Each timing metric is the median over
    the passes of that pass's figure."""
    tr = tracer.Tracer().install() if trace else None
    cache_before = tracer.cache_counts()
    first = []  # fingerprint of each case's first outcome, in pool order
    passes = []  # (wall latencies, reference latencies, work) of each pass
    failed = visited = notes = checker_calls = checker_verified = 0
    failures, wrong = set(), []
    n = pass_count(workload, seconds)
    pause_after = pause_points(n, pauses)
    size = families.PARAMS[workload]["chunk"]
    for i in range(1, n + 1):
        chunks, work = [], 0
        cals = [calibration_block()]
        for start in range(0, len(pool), size):
            latencies = []
            for k in range(start, min(start + size, len(pool))):
                case = pool[k]
                dt, o = run_one(workload, case)
                latencies.append(dt)
                work += o.work
                visited += o.visited
                notes += o.notes
                checker_calls += o.checker_calls
                checker_verified += o.checker_verified
                if len(first) == k:
                    first.append(o.fingerprint)
                elif first[k] != o.fingerprint:
                    o.wrong = o.failed = "outcome differs from the first run of this case"
                if o.failed:
                    failed += 1
                    failures.add(o.failed)
                if o.wrong:
                    wrong.append("%s case %d: %s" % (case.kind, k, o.wrong))
            chunks.append(latencies)
            cals.append(calibration_block())
        wall = [dt for lat in chunks for dt in lat]
        ref = [dt * f for lat, f in zip(chunks, speed_factors(cals)) for dt in lat]
        passes.append((wall, ref, work))
        if i in pause_after:
            wait_for_caller()
    cache_after = tracer.cache_counts()
    if tr is not None:
        tr.uninstall()

    ops_done = len(passes) * len(pool)
    ref_s = statistics.median(sum(ref) for _, ref, _ in passes)
    result = {
        "attempted": ops_done,
        "failed": failed,
        "wrong": wrong[:20],
        "failures": sorted(failures),
        "digest": digest(workload, first),
        "pass_ops_s": [len(wall) / sum(wall) for wall, _, _ in passes],
        "pass_slowdown": [sum(wall) / sum(ref) for wall, ref, _ in passes],
        "metrics": {
            "latency_p50_ms": statistics.median(
                statistics.median(ref) for _, ref, _ in passes) * 1e3,
            "latency_p90_ms": statistics.median(
                statistics.quantiles(ref, n=10)[8] for _, ref, _ in passes) * 1e3,
            "throughput_ops_s": len(pool) / ref_s,
            "nodes_per_s": passes[0][2] / ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (ops_done - failed) / ops_done,
        },
    }
    if tr is not None:
        nodes = len(passes) * sum(case.nodes for case in pool)
        result["layers"] = tracer.metrics(
            tr, ops_done, nodes, visited, notes, checker_calls, checker_verified,
            cache_before, cache_after)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(families.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--pauses", type=int, default=0)
    args = ap.parse_args(argv)

    pool = families.GENERATORS[args.workload](args.seed)
    run_one(args.workload, pool[0])  # warm-up
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    result = measure(args.workload, pool, args.seconds, args.mode == "trace",
                     args.pauses)
    result["inputs"] = families.describe(pool)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
