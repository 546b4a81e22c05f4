"""Control-flow graphs, dominance and natural-loop detection."""

from repro.cfg.dominance import dominator_intervals, immediate_dominators
from repro.cfg.graph import CFG, BasicBlock, build_cfg
from repro.cfg.loops import NaturalLoop, find_loops, loop_nest_depths

__all__ = [
    "BasicBlock",
    "CFG",
    "NaturalLoop",
    "build_cfg",
    "dominator_intervals",
    "find_loops",
    "immediate_dominators",
    "loop_nest_depths",
]
