"""Stage 3 — store-edge extraction.

Every store executable during an iteration is resolved through points-to
into (src_site, field, base_site) edges.
"""

from repro.core.pipeline.artifacts import StoreEdge, StoreEdgeArtifact
from repro.ir.stmts import StoreStmt


def extract_store_edges(session, region_stmts, stats):
    """Produce the :class:`StoreEdgeArtifact` for a region."""
    pts = session.points_to.pts
    edges = []
    for stmt in region_stmts.statements:
        if isinstance(stmt, StoreStmt):
            sig = stmt.method.sig
            src_sites = pts(sig, stmt.source)
            base_sites = pts(sig, stmt.base)
            edges.extend(
                StoreEdge(src, stmt.field, base, stmt)
                for src in src_sites
                for base in base_sites
            )
    by_src = {}
    for edge in edges:
        by_src.setdefault(edge.src_site, []).append(edge)
    stats.count("store_edges", len(edges))
    return StoreEdgeArtifact(edges=edges, by_src=by_src)
