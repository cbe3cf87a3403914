"""Per-layer call counts and self times, measured from outside ``src/``.

The tracer replaces each listed proofkit function by a wrapper at every
module attribute that binds it (``cmp`` is imported by name into four
modules, for instance), and wraps ``DerivTerm.unfold``,
``DerivTerm.__init__`` and ``Emb.__init__`` on their classes.  A
wrapper's self time is its duration minus the time spent in wrapped
calls it made.  Counts and times stay in memory until ``metrics`` reads
them at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from proofkit import checking, derivations, finitary, formulas, ordinals, universe

C, S, CS = ("calls",), ("self_s",), ("calls", "self_s")

#: Traced functions by module, each with the per-op metrics reported for it.
FUNCTIONS = (
    (finitary, {"parse_script": S, "check_proof": S, "expected_premises": C}),
    (formulas, {"formula_from_tree": CS, "subst": CS, "support": CS,
                "free_vars": CS, "negate": C, "depth": C, "is_delta0": C,
                "eval_formula_bounded": CS}),
    (universe, {"parse_set": CS, "is_concrete": CS, "set_member": C,
                "transitive_closure": C, "enumerate_hf": CS,
                "hull_contains": CS, "hull_extend": C}),
    (ordinals, {"cmp": CS, "add": CS, "nat_sum": C, "omega_exp": CS}),
    (derivations, {"elim_cuts": S}),
    (checking, {"check_local": S, "trace_lines": S, "eval_cutfree": S,
                "oracle_sequent": S}),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.expansions = 0
        self._stack = []  # time spent in wrapped callees, one slot per active call
        self._undo = []

    def _wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "proofkit" or name.startswith("proofkit.")]
        for module, names in FUNCTIONS:
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap("%s.%s" % (_layer(module), fname), original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, wrapper)

        DerivTerm, Emb = derivations.DerivTerm, derivations.Emb
        self._set(Emb, "__init__", self._wrap("derivations.Emb", Emb.__init__))
        self._set(DerivTerm, "__init__",
                  self._wrap("derivations.terms_built", DerivTerm.__init__))
        timed_unfold = self._wrap("derivations.unfold", DerivTerm.unfold)

        def unfold(term):
            if term._unfolded is None:
                self.expansions += 1
            return timed_unfold(term)

        self._set(DerivTerm, "unfold", unfold)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def cache_counts() -> tuple:
    info = ordinals.validate_nf.cache_info()
    return info.hits, info.misses, info.currsize


def metrics(tr: Tracer, ops: int, nodes: int, visited: int, notes: int,
            checker_calls: int, checker_verified: int, cache_before: tuple,
            cache_after: tuple) -> dict:
    """Per-op layer metrics of a traced run, named
    ``<module>.<function>.{calls,self_s}`` plus derived counts and ratios."""
    per_op = 1.0 / ops
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for module, names in FUNCTIONS:
        for fname, reported in names.items():
            key = "%s.%s" % (_layer(module), fname)
            if "calls" in reported:
                put(key + ".calls", tr.calls[key] * per_op, "calls/op")
            if "self_s" in reported:
                put(key + ".self_s", tr.self_s[key] * per_op, "s/op")
    put("finitary.rewalk_ratio",
        tr.calls["finitary.expected_premises"] / nodes if nodes else 0.0, "ratio")
    hits = cache_after[0] - cache_before[0]
    misses = cache_after[1] - cache_before[1]
    put("ordinals.validate_nf.hit_ratio",
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("ordinals.validate_nf.entries", cache_after[2], "entries")
    put("derivations.Emb.self_s", tr.self_s["derivations.Emb"] * per_op, "s/op")
    put("derivations.unfold.calls", tr.calls["derivations.unfold"] * per_op, "calls/op")
    put("derivations.unfold.self_s", tr.self_s["derivations.unfold"] * per_op, "s/op")
    put("derivations.unfold.expansions", tr.expansions * per_op, "calls/op")
    built = tr.calls["derivations.terms_built"]
    put("derivations.terms_built", built * per_op, "terms/op")
    put("derivations.terms_per_visited_node", built / visited if visited else 0.0, "ratio")
    put("checking.visited", visited * per_op, "nodes/op")
    put("checking.notes", notes * per_op, "notes/op")
    put("checking.verified_ratio",
        checker_verified / checker_calls if checker_calls else 0.0, "ratio")
    return out
