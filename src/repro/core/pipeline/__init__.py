"""The staged analysis pipeline behind :class:`repro.core.LeakChecker`.

Stage modules (one per stage, in execution order):

``contexts`` -> ``statements`` -> ``store_edges`` -> ``flows_out`` ->
``flows_in`` -> ``postpasses`` (strong updates) -> ``matching`` ->
``postpasses`` (pivot)

:mod:`~repro.core.pipeline.session` orchestrates them over memoized
program-level artifacts; :mod:`~repro.core.pipeline.stats` carries
per-stage timings and work counters.
"""

from repro.core.pipeline.artifacts import (
    ContextArtifact,
    FlowsInArtifact,
    FlowsOutArtifact,
    MatchArtifact,
    RegionArtifacts,
    RegionStatements,
    StoreEdge,
    StoreEdgeArtifact,
    Verdict,
)
from repro.core.pipeline.session import AnalysisSession, SharedArtifacts
from repro.core.pipeline.stats import PipelineStats, stats_from_report

__all__ = [
    "AnalysisSession",
    "ContextArtifact",
    "FlowsInArtifact",
    "FlowsOutArtifact",
    "MatchArtifact",
    "PipelineStats",
    "RegionArtifacts",
    "RegionStatements",
    "SharedArtifacts",
    "StoreEdge",
    "StoreEdgeArtifact",
    "Verdict",
    "stats_from_report",
]
