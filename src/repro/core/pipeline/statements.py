"""Stage 2 — region-statement collection.

Statements that may execute during one iteration: the region body plus
every statement of methods reachable from it, each method's body walked
in full (blocks included), deduplicated by uid.
"""

from repro.core.pipeline.artifacts import RegionStatements


def collect_region_statements(session, region, context_art, stats):
    """Produce the :class:`RegionStatements` artifact for ``region``."""
    program = session.program
    stmts = list(region.body_statements(program))
    seen_uids = {s.uid for s in stmts}
    for sig in context_art.region_methods:
        for stmt in program.method(sig).statements():
            if stmt.uid not in seen_uids:
                seen_uids.add(stmt.uid)
                stmts.append(stmt)
    stats.count("region_statements", len(stmts))
    return RegionStatements(statements=tuple(stmts))
