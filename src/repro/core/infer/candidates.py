"""Candidate-region inference: which regions are worth checking.

:func:`infer_candidates` turns the loop classification
(:mod:`~repro.core.infer.classify`) into a scored catalog of checkable
regions:

* every labelled loop becomes a loop
  :class:`~repro.core.regions.RegionSpec` candidate (so the catalog is
  always a superset of any hand-labelled region a user could name);
* component entry methods become whole-method
  :class:`~repro.core.regions.RegionSpec` candidates —
  allocation-bearing, non-library methods that are either invoked
  directly from the program entry (the "driver calls the component
  once" shape of the paper's Eclipse case studies) or never called at
  all (an entry the harness would drive).

Scores are deterministic weighted sums of the classification features,
so rankings are identical across runs, hash seeds, and scan backends.
``InferenceCatalog.selected_specs`` is the ``scan --auto-regions``
policy: all loop candidates plus the best-scoring method candidates
(capped), or simply the global top *K* when the user passes ``--top``.
"""

import difflib
import time

from repro.core.infer.classify import (
    ProgramIndex,
    UNBOUNDED,
    classify_loops,
)
from repro.core.regions import RegionSpec, region_text

#: Feature weights for loop candidates.  Allocation/publication mass
#: dominates; outermost unbounded loops near the entry get the
#: event-loop bonuses.
LOOP_WEIGHTS = {
    "allocs_direct": 3.0,
    "allocs_transitive": 1.0,
    "stores": 2.0,
    "calls": 0.5,
    "unbounded": 6.0,
    "outermost": 8.0,
    "reachable": 4.0,
}

#: Feature weights for artificial method regions (component entries).
METHOD_WEIGHTS = {
    "allocs_direct": 2.0,
    "allocs_transitive": 1.0,
    "stores": 1.5,
    "entry_call": 5.0,
    "uncalled": 3.0,
}

#: Proximity bonus: dispatch loops sit close to ``main``.  Distance 0
#: earns the full bonus; it fades linearly and bottoms out at zero.
DISTANCE_BONUS = 6.0
DISTANCE_DECAY = 1.5

#: ``--auto-regions`` without ``--top`` checks every loop candidate but
#: caps artificial method regions at the best-scoring few, so catalogs
#: of large component programs stay affordable.
MAX_AUTO_METHOD_REGIONS = 8


class CandidateRegion:
    """One inferred checkable region with its score and features."""

    __slots__ = ("spec", "kind", "score", "features")

    def __init__(self, spec, kind, score, features):
        self.spec = spec
        self.kind = kind  # "loop" | "method"
        self.score = score
        self.features = dict(features)

    @property
    def text(self):
        """The CLI spec string (``Class.method:LOOP`` or ``Class.method``)."""
        return region_text(self.spec)

    def as_dict(self):
        return {
            "region": self.text,
            "kind": self.kind,
            "score": self.score,
            "features": dict(self.features),
        }

    def __repr__(self):
        return "CandidateRegion(%s, %s, score=%.2f)" % (
            self.text,
            self.kind,
            self.score,
        )


class InferenceCatalog:
    """The scored candidate regions of one program."""

    def __init__(self, candidates, counters, seconds):
        #: all candidates, best score first (deterministic tie-break on
        #: the spec text)
        self.candidates = list(candidates)
        #: inference work counters (fold into the scan profile)
        self.counters = dict(counters)
        #: wall-clock seconds spent inferring
        self.seconds = seconds

    def loops(self):
        return [c for c in self.candidates if c.kind == "loop"]

    def methods(self):
        return [c for c in self.candidates if c.kind == "method"]

    def selected_specs(self, top=None):
        """The regions ``scan --auto-regions`` checks, in rank order.

        With ``top`` the global top *K* candidates; otherwise every loop
        candidate plus at most :data:`MAX_AUTO_METHOD_REGIONS` method
        candidates.
        """
        if top is not None:
            chosen = self.candidates[: max(0, top)]
        else:
            chosen = sorted(
                self.loops() + self.methods()[:MAX_AUTO_METHOD_REGIONS],
                key=_rank_key,
            )
        return [c.spec for c in chosen]

    def spec_texts(self):
        return [c.text for c in self.candidates]

    def format(self):
        if not self.candidates:
            return "0 candidate regions"
        lines = ["%d candidate regions (best first):" % len(self.candidates)]
        for cand in self.candidates:
            lines.append(
                "  %8.2f  %-6s %s" % (cand.score, cand.kind, cand.text)
            )
        return "\n".join(lines)

    def as_dict(self):
        return {
            "candidates": [c.as_dict() for c in self.candidates],
            "counters": dict(self.counters),
        }

    def __repr__(self):
        return "InferenceCatalog(%d loops, %d methods)" % (
            len(self.loops()),
            len(self.methods()),
        )


def _rank_key(cand):
    return (-cand.score, cand.text)


def _distance_bonus(distance):
    if distance is None:
        return 0.0
    return max(0.0, DISTANCE_BONUS - DISTANCE_DECAY * distance)


def _score_loop(profile):
    score = (
        LOOP_WEIGHTS["allocs_direct"] * profile.allocs_direct
        + LOOP_WEIGHTS["allocs_transitive"] * profile.allocs_transitive
        + LOOP_WEIGHTS["stores"] * profile.stores
        + LOOP_WEIGHTS["calls"] * profile.calls
    )
    if profile.kind == UNBOUNDED:
        score += LOOP_WEIGHTS["unbounded"]
    if profile.nest_depth == 1:
        score += LOOP_WEIGHTS["outermost"]
    if profile.reachable:
        score += LOOP_WEIGHTS["reachable"]
        score += _distance_bonus(profile.call_distance)
    return round(score, 4)


def _method_candidates(program, callgraph, index):
    """Artificial-region candidates: component entry methods."""
    entry_sig = program.entry
    entry_callees = set()
    if entry_sig:
        try:
            entry_method = program.entry_method()
        except Exception:
            entry_method = None
        if entry_method is not None:
            entry_callees = set(index.callee_sigs(entry_method.sig))
    called = {edge.callee.sig for edge in callgraph.edges}

    out = []
    for method in program.all_methods():
        if method.sig == entry_sig:
            continue
        if program.is_library_method(method):
            continue
        from_entry = method.sig in entry_callees
        uncalled = method.sig not in called
        if not (from_entry or uncalled):
            continue
        allocs_direct = index.direct_allocs[method.sig]
        calls = index.invokes[method.sig]
        allocs_transitive = index.transitive_allocations(calls)
        if not (allocs_direct or allocs_transitive):
            continue
        stores = index.stores[method.sig]
        score = (
            METHOD_WEIGHTS["allocs_direct"] * allocs_direct
            + METHOD_WEIGHTS["allocs_transitive"] * allocs_transitive
            + METHOD_WEIGHTS["stores"] * stores
        )
        if from_entry:
            score += METHOD_WEIGHTS["entry_call"]
        if uncalled:
            score += METHOD_WEIGHTS["uncalled"]
        features = {
            "kind": "method",
            "allocs_direct": allocs_direct,
            "allocs_transitive": allocs_transitive,
            "stores": stores,
            "calls": len(calls),
            "entry_call": from_entry,
            "uncalled": uncalled,
            "call_distance": index.distances.get(method.sig),
        }
        out.append(
            CandidateRegion(
                RegionSpec(method.sig), "method", round(score, 4), features
            )
        )
    return out


def infer_candidates(program, callgraph, statements=None):
    """Build the scored candidate-region catalog of ``program``.

    ``callgraph`` is the (usually cached) call graph of the analysis
    session — inference reuses it instead of building its own, so on a
    warm session the whole pass costs one walk of each loop-bearing
    method's structured body.  ``statements``
    optionally supplies a ``sig -> statement tuple`` provider (the
    session's memoized per-method index), skipping the body walks.
    """
    started = time.perf_counter()
    index = ProgramIndex(program, callgraph, statements=statements)
    profiles = classify_loops(program, callgraph, index=index)
    candidates = [
        CandidateRegion(
            RegionSpec(p.method_sig, p.label),
            "loop",
            _score_loop(p),
            p.features(),
        )
        for p in profiles
    ]
    candidates.extend(_method_candidates(program, callgraph, index))
    candidates.sort(key=_rank_key)
    methods_analyzed = len(index.direct_allocs)
    counters = {
        "infer_methods_analyzed": methods_analyzed,
        "infer_loops_classified": len(profiles),
        "infer_method_candidates": sum(
            1 for c in candidates if c.kind == "method"
        ),
    }
    return InferenceCatalog(
        candidates, counters, time.perf_counter() - started
    )


def suggest_regions(program, spec_text, limit=6):
    """Nearest-match region suggestions for an unresolvable ``--region``.

    Candidates are every labelled loop (``Class.method:LOOP``) and every
    non-library method signature (``Class.method``); matching is fuzzy
    (:mod:`difflib`) with a fallback to shared method/loop name parts so
    a typo in either half of the spec still finds its neighbours.
    """
    options = []
    for method in program.all_methods():
        if program.is_library_method(method):
            continue
        options.append(method.sig)
        for loop in method.loops():
            options.append("%s:%s" % (method.sig, loop.label))
    matches = difflib.get_close_matches(
        spec_text, options, n=limit, cutoff=0.4
    )
    if len(matches) < limit:
        # Fall back on matching the trailing name parts (method or loop).
        tail = spec_text.rpartition(":")[2].rpartition(".")[2].lower()
        for option in options:
            if option in matches:
                continue
            if tail and tail in option.lower():
                matches.append(option)
            if len(matches) >= limit:
                break
    return matches[:limit]
