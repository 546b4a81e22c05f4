"""Static region inference and leak triage.

The paper's future-work note asks for automatic identification of
suspicious loops; this package implements it as two layers:

* **inference** (:mod:`~repro.core.infer.classify`,
  :mod:`~repro.core.infer.candidates`) — natural-loop nests read from
  each method's structured body classify every labelled loop (counted
  vs. unbounded, allocation-bearing directly or via reachable callees,
  entry-point reachability, nest depth, call-graph distance from the
  entry) and score candidate regions, so ``scan --auto-regions`` can
  analyze the highest-value loops with no ``--region`` flag;

* **triage** (:mod:`~repro.core.infer.triage`,
  :mod:`~repro.core.infer.baseline`) — ranks the resulting
  :class:`~repro.core.report.LeakFinding` sites by a deterministic
  severity score and supports suppression baselines so CI can gate on
  *new* leaks only.
"""

from repro.core.infer.baseline import (
    SEVERITY_ORDER,
    load_baseline,
    partition_new,
    should_fail,
    write_baseline,
)
from repro.core.infer.candidates import (
    CandidateRegion,
    InferenceCatalog,
    infer_candidates,
    suggest_regions,
)
from repro.core.infer.classify import (
    GUARDED,
    UNBOUNDED,
    LoopProfile,
    classify_loops,
    entry_distances,
)
from repro.core.infer.triage import (
    SEVERITY_WEIGHTS,
    TriagedFinding,
    severity_band,
    triage_entries,
)

__all__ = [
    "CandidateRegion",
    "GUARDED",
    "InferenceCatalog",
    "LoopProfile",
    "SEVERITY_ORDER",
    "SEVERITY_WEIGHTS",
    "TriagedFinding",
    "UNBOUNDED",
    "classify_loops",
    "entry_distances",
    "infer_candidates",
    "load_baseline",
    "partition_new",
    "severity_band",
    "should_fail",
    "suggest_regions",
    "triage_entries",
    "write_baseline",
]
