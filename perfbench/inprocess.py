"""Cold checks through the library API, one fresh analysis per program.

An operation parses a never-seen program, scans its regions and renders
the canonical JSON report, as ``repro check``/``repro scan --canonical``
do after start-up.  With tracing on, the benchmark brackets each layer
it calls into: parse, the session (call graph), the PAG, the per-method
summaries, the region scan and canonical rendering.
"""

import itertools
import time

from repro.core import AnalysisSession, scan_all_loops
from repro.lang import parse_program

from measure import (
    SETUP_REPEATS,
    Loop,
    import_library,
    peak_rss_mb,
    profile_layers,
    scaled_setup,
)
from programs import by_name, compute_references, scan, seeded_rounds, tagged

#: Per-layer spans of the traced operation, in call order.
PHASES = ("parse", "callgraph", "pag", "summaries", "regions", "canonical")


def _plain(base, source):
    canonical = scan(base, source).to_json(canonical=True)

    def verify():
        return canonical == base.reference["canonical"], {}

    return verify


def _build(artifact):
    """Build one lazily built session artifact ahead of the scan, so that
    its span times it alone.  Should the session stop exposing it, the
    span reads zero and the scan's span includes the work."""
    try:
        artifact()
    except AttributeError:
        pass


def _traced(base, source):
    marks = [time.perf_counter()]
    program = parse_program(source)
    marks.append(time.perf_counter())
    session = AnalysisSession(program)
    marks.append(time.perf_counter())
    _build(lambda: session.points_to.pag)
    marks.append(time.perf_counter())
    _build(lambda: session.shared.summaries())
    marks.append(time.perf_counter())
    result = scan_all_loops(program, session=session, specs=base.specs(program))
    marks.append(time.perf_counter())
    canonical = result.to_json(canonical=True)
    marks.append(time.perf_counter())

    def verify():
        stats = result.aggregate_stats()
        layers = profile_layers(stats.stages, stats.counters)
        for name, begin, end in zip(PHASES, marks, marks[1:]):
            layers["%s_ms" % name] = (end - begin) * 1000.0
        layers["regions_checked"] = len(result.entries)
        return canonical == base.reference["canonical"], layers

    return verify


def run(root, bases, seed, seconds, trace):
    """Measure cold checks of ``bases``; returns ``(loop, setup_s list,
    peak RSS MiB)``."""
    def setup():
        return scaled_setup(lambda: import_library(root))

    setups = [setup() for _ in range(SETUP_REPEATS)]
    compute_references(bases)
    op = _traced if trace else _plain
    serial = itertools.count(1)

    def one(base):
        return op(base, tagged(base.source, seed, next(serial)))

    rounds = seeded_rounds(bases, seed)
    Loop(by_name).run(rounds, one, 0)  # warm-up: lazy imports, allocator
    loop = Loop(by_name).run(
        rounds, one, seconds, lambda: setups.append(setup())
    )
    return loop, setups, peak_rss_mb("self")
