"""Suspicious-loop identification (the paper's future-work direction).

LeakChecker's precision depends on checking the *right* loop, and the
paper closes by suggesting two ways to find candidates automatically:
structural information extracted from the code, and run-time frequency
information.  This module implements both:

* :func:`structural_scores` — a static score per labelled loop from
  features that correlate with "event loop that allocates and publishes
  objects": allocations inside the loop (direct and through calls),
  stores whose base may be an outside object, call fan-out, and loop
  nesting (outermost loops are the natural event loops);
* :func:`profile_scores` — trip counts observed by the concrete
  interpreter on a user-supplied schedule, for when an executable
  workload exists;
* :func:`rank_loops` — the combined ranking, returning
  :class:`RankedLoop` entries ready to feed into the detector.

The ranking is a heuristic triage aid, not part of the core analysis:
the detector still checks exactly the region the user picks.
"""

from repro.callgraph.rta import build_rta
from repro.core.regions import candidate_loops
from repro.ir.stmts import InvokeStmt, LoadStmt, LoopStmt, NewStmt, StoreStmt, walk


class RankedLoop:
    """One candidate loop with its feature breakdown and final score."""

    __slots__ = ("spec", "features", "score")

    def __init__(self, spec, features, score):
        self.spec = spec
        self.features = dict(features)
        self.score = score

    def __repr__(self):
        return "RankedLoop(%s:%s, score=%.2f)" % (
            self.spec.method_sig,
            self.spec.loop_label,
            self.score,
        )


#: Default feature weights; allocation/publication behaviour dominates.
DEFAULT_WEIGHTS = {
    "allocations": 3.0,
    "reachable_allocations": 1.0,
    "stores": 2.0,
    "loads": 0.5,
    "calls": 1.0,
    "outermost": 4.0,
    "trips": 2.0,
}


def _loop_features(program, callgraph, spec, nested):
    loop = spec.loop(program)
    body = list(walk(loop.body))
    allocations = sum(1 for s in body if isinstance(s, NewStmt))
    stores = sum(1 for s in body if isinstance(s, StoreStmt))
    loads = sum(1 for s in body if isinstance(s, LoadStmt))
    calls = [s for s in body if isinstance(s, InvokeStmt)]

    # Allocations reachable through calls made from the loop body, one
    # level of transitive closure per callee method (cheap but effective).
    reachable_allocs = 0
    seen = set()
    work = list(calls)
    while work:
        invoke = work.pop()
        for callee in callgraph.targets_of_site(invoke):
            if callee.sig in seen:
                continue
            seen.add(callee.sig)
            for stmt in callee.statements():
                if isinstance(stmt, NewStmt):
                    reachable_allocs += 1
                elif isinstance(stmt, InvokeStmt):
                    work.append(stmt)

    return {
        "allocations": allocations,
        "reachable_allocations": reachable_allocs,
        "stores": stores,
        "loads": loads,
        "calls": len(calls),
        "outermost": 0 if (spec.method_sig, spec.loop_label) in nested else 1,
        "trips": 0,
    }


def _nested_loops(program):
    """``(method sig, label)`` of each loop lexically nested inside
    another loop: labels name loops within one method only."""
    nested = set()
    for method in program.all_methods():
        for outer in method.loops():
            for stmt in walk(outer.body):
                if isinstance(stmt, LoopStmt):
                    nested.add((method.sig, stmt.label))
    return nested


def structural_scores(program, callgraph=None, weights=None):
    """Score every labelled loop from static structure alone."""
    callgraph = callgraph or build_rta(program)
    weights = dict(DEFAULT_WEIGHTS, **(weights or {}))
    nested = _nested_loops(program)
    ranked = []
    for spec in candidate_loops(program):
        features = _loop_features(program, callgraph, spec, nested)
        score = sum(weights[k] * v for k, v in features.items())
        ranked.append(RankedLoop(spec, features, score))
    ranked.sort(key=lambda r: (-r.score, r.spec.method_sig, r.spec.loop_label))
    return ranked


def _profile(program, schedule, max_steps=200_000):
    """The interpreter after one concrete run of ``program``."""
    from repro.semantics.interp import Interpreter

    interp = Interpreter(program, schedule=schedule, max_steps=max_steps)
    interp.run()
    return interp


def profile_scores(program, schedule, max_steps=200_000):
    """Observed trip counts per loop label from one concrete run.

    Returns a dict ``label -> trips``; loops never reached score 0.
    Loops of different methods that share a label add up here;
    :func:`rank_loops` counts each ``(method, label)`` apart.
    """
    return _profile(program, schedule, max_steps).loop_counters()


def rank_loops(program, callgraph=None, schedule=None, weights=None):
    """Rank candidate loops structurally, optionally boosted by profile
    trip counts from a concrete run under ``schedule``, each loop by
    its own ``(method sig, label)`` count."""
    ranked = structural_scores(program, callgraph=callgraph, weights=weights)
    if schedule is not None:
        trips = _profile(program, schedule).loop_trips()
        weights = dict(DEFAULT_WEIGHTS, **(weights or {}))
        for entry in ranked:
            observed = trips.get(
                (entry.spec.method_sig, entry.spec.loop_label), 0
            )
            entry.features["trips"] = observed
            entry.score += weights["trips"] * observed
        ranked.sort(
            key=lambda r: (-r.score, r.spec.method_sig, r.spec.loop_label)
        )
    return ranked
