"""LeakChecker core: ERA abstraction, type and effect system, flow
relations, and the interprocedural leak detector."""

from repro.core.api import Analyzer, analyze
from repro.core.detector import DetectorConfig, LeakChecker
from repro.core.effects import (
    AcquireEffect,
    EffectLog,
    LoadEffect,
    ReleaseEffect,
    StoreEffect,
)
from repro.core.pipeline import AnalysisSession, PipelineStats
from repro.core.era import (
    BOT,
    CUR,
    FUT,
    R_HELD,
    R_MAYBE,
    R_RELEASED,
    TOP,
    ZERO,
    Type,
    bump_era,
    is_leaked_resource,
    join_era,
    join_resource,
)
from repro.core.flows import (
    FlowPair,
    LeakVerdict,
    flows_in_pairs,
    flows_out_pairs,
    match_flows,
)
from repro.core.harness import check_component, synthesize_harness
from repro.core.inline import inline_calls
from repro.core.pivot import apply_pivot
from repro.core.ranking import RankedLoop, rank_loops, structural_scores
from repro.core.regions import (
    Region,
    RegionSpec,
    candidate_loops,
    resolve_region,
)
from repro.core.report import (
    HEAP_LEAK,
    RESOURCE_LEAK,
    LeakFinding,
    LeakReport,
    ReportDiff,
    diff_reports,
)
from repro.core.scan import ScanResult, scan_all_loops
from repro.core.threads import started_thread_sites
from repro.core.typestate import (
    AbstractState,
    TypeEffectAnalysis,
    TypeEffectResult,
)

__all__ = [
    "AbstractState",
    "AcquireEffect",
    "AnalysisSession",
    "Analyzer",
    "BOT",
    "CUR",
    "DetectorConfig",
    "EffectLog",
    "FUT",
    "FlowPair",
    "HEAP_LEAK",
    "LeakChecker",
    "LeakFinding",
    "LeakReport",
    "LeakVerdict",
    "LoadEffect",
    "PipelineStats",
    "RESOURCE_LEAK",
    "R_HELD",
    "R_MAYBE",
    "R_RELEASED",
    "RankedLoop",
    "Region",
    "RegionSpec",
    "ReleaseEffect",
    "ReportDiff",
    "ScanResult",
    "StoreEffect",
    "TOP",
    "Type",
    "TypeEffectAnalysis",
    "TypeEffectResult",
    "ZERO",
    "analyze",
    "apply_pivot",
    "bump_era",
    "candidate_loops",
    "check_component",
    "diff_reports",
    "flows_in_pairs",
    "flows_out_pairs",
    "inline_calls",
    "is_leaked_resource",
    "join_era",
    "join_resource",
    "match_flows",
    "rank_loops",
    "resolve_region",
    "scan_all_loops",
    "started_thread_sites",
    "structural_scores",
    "synthesize_harness",
]
