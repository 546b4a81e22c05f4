"""LeakChecker reproduction: practical static memory leak detection for
managed languages (CGO 2014).

Quickstart::

    from repro import analyze, parse_program

    program = parse_program(source_text)

    # Check one region: a labelled loop ("Class.method:LABEL") or a
    # whole method treated as an artificial loop ("Class.method").
    report = analyze(program, "Main.main:L1")
    print(report.format())

    # Or scan every candidate region in one pass.
    result = analyze(program)
    print(result.format())

For repeated analyses of one program, keep an :class:`Analyzer` — it
memoizes the program-level artifacts (call graph, points-to) across
regions::

    from repro import Analyzer

    analyzer = Analyzer(program)
    report = analyzer.analyze("Main.main:L1")
    scan = analyzer.analyze(auto_regions=True)

Public surface:

* :mod:`repro.lang` — frontend for the Java-like while language;
* :mod:`repro.ir` — the Jimple-like IR and builders;
* :mod:`repro.callgraph`, :mod:`repro.pta` — substrates (call graphs,
  points-to analyses);
* :mod:`repro.core` — the paper's contribution: ERA, the type and effect
  system, flow matching, and the interprocedural detector;
* :mod:`repro.semantics` — concrete semantics and ground-truth leaks;
* :mod:`repro.javalib` — standard-library models (HashMap, Thread, ...);
* :mod:`repro.bench` — the Table 1 evaluation harness and the eight
  application models.
"""

from repro.core import (
    Analyzer,
    DetectorConfig,
    LeakChecker,
    RegionSpec,
    analyze,
    candidate_loops,
    inline_calls,
    resolve_region,
)
from repro.lang import parse_program
from repro.semantics import FixedSchedule, Interpreter, analyze_trace, execute

__version__ = "1.0.0"

__all__ = [
    "Analyzer",
    "DetectorConfig",
    "FixedSchedule",
    "Interpreter",
    "LeakChecker",
    "RegionSpec",
    "analyze",
    "analyze_trace",
    "candidate_loops",
    "execute",
    "inline_calls",
    "parse_program",
    "resolve_region",
    "__version__",
]
