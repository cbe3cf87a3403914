"""proofkit benchmark: three seeded proof-family workloads, one closed-loop
client each, verified against known answers.

    python3 perfbench/run.py --workload {check,elim,sound} --seed N \\
        --seconds T --trace {0,1}

Run it from the repository root.  With ``--trace 0`` it prints the
end-to-end metrics of an untraced run: the timing metrics in reference
time, corrected for the host's speed (see ``worker.measure``), and
``setup_s`` in wall time, the slowest of
the set-up times of the timed run's process and of up to
``SETUP_SAMPLES`` fresh processes started while it pauses between
passes.  With ``--trace 1`` it runs the workload untraced and then
traced, each in a fresh process for half the time, and prints the per-layer metrics
of the traced run plus ``trace.overhead_ratio``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

An operation fails when its outcome differs from the generator's known
answer or it raises.  ``correct`` is false when an operation asserted a
wrong answer (see ``ops.Outcome``), when a case gave two different
outcomes, or when the two processes of a traced run disagree on the
determinism digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("check", "elim", "sound")
SETUP_SAMPLES = 6
#: every process of one run must end within this many seconds
DEADLINE_S = 170

UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}


class WorkerError(Exception):
    pass


def spawn(args, mode: str, seconds: float, deadline: float, pauses: int = 0,
          on_pause=None):
    """Run one worker; return (seconds until it was ready, its result).
    Each time the worker pauses between passes, ``on_pause()`` runs
    before the worker is told to go on."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--pauses", str(pauses)]
    # a fixed hash seed makes set iteration order, and with it the work
    # done by short-circuiting evaluations, the same in every process
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    # unbuffered, so that a line read never pulls the next one out of
    # reach of select()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            bufsize=0, cwd=ROOT, env=env)
    ready, lines = None, []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    raise WorkerError("%s worker did not finish in time" % mode)
                line = proc.stdout.readline().decode()
                if not line:
                    break
                if ready is None:
                    ready = time.perf_counter() - t0
                    if line.strip() != "ready":
                        raise WorkerError("%s worker failed during set-up" % mode)
                elif line.strip() == "pause":
                    on_pause()
                    proc.stdin.write(b"\n")
                else:
                    lines.append(line)
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except (WorkerError, subprocess.TimeoutExpired, OSError):
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdin.close()
        proc.stdout.close()
    if ready is None:
        raise WorkerError("%s worker failed during set-up" % mode)
    if proc.returncode != 0:
        raise WorkerError("%s worker exited with status %d" % (mode, proc.returncode))
    return ready, (json.loads(lines[-1]) if lines else None)


def environment(args, res) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": res["inputs"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "proofkit", "__init__.py")):
        print("perfbench: proofkit sources not found under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            # half the time each, so a traced run takes as long as an untraced one
            _, res = spawn(args, "measure", args.seconds / 2, deadline)
            _, traced = spawn(args, "trace", args.seconds / 2, deadline)
        else:
            # the samples are spread over the timed run, which pauses
            # for each; like the slowest pass, the slowest sample is the
            # one taken under contention, which recurs from run to run,
            # while the median follows how much of the run it covered
            setups = []
            ready, res = spawn(
                args, "measure", args.seconds, deadline, pauses=SETUP_SAMPLES,
                on_pause=lambda: setups.append(spawn(args, "setup", 0, deadline)[0]))
            setups.append(ready)
    except (WorkerError, subprocess.TimeoutExpired, OSError, ValueError) as ex:
        print("perfbench: %s" % ex, file=sys.stderr)
        return 1

    runs = [res, traced] if args.trace else [res]
    wrong = [w for r in runs for w in r["wrong"]]
    digests = sorted({r["digest"] for r in runs})
    correct = not wrong and len(digests) == 1

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = {
            "value": res["metrics"]["throughput_ops_s"]
            / traced["metrics"]["throughput_ops_s"],
            "unit": "ratio",
        }
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in res["metrics"].items()}
        metrics["setup_s"] = {"value": max(setups), "unit": "s"}

    print("environment: %s" % json.dumps(environment(args, res), sort_keys=True))
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("setup: %s s" % " ".join("%.4g" % x for x in setups))
    for r in runs:
        print("passes: %s wall ops/s" % " ".join("%.4g" % x for x in r["pass_ops_s"]))
        print("slowdown: %s (wall over reference time)"
              % " ".join("%.3g" % x for x in r["pass_slowdown"]))
        print("failed %d of %d ops: %s" % (r["failed"], r["attempted"],
                                          "; ".join(r["failures"]) or "none"))
    for w in wrong:
        print("wrong answer: %s" % w)
    print("digest %s %s" % (args.workload, " ".join(digests)))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
