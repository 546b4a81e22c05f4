"""Stage 4 — transitive flows-out (the paper's step 3).

A BFS from each inside site through chains of in-region stores whose
intermediate bases are inside objects, down to the field ``g`` of the
*closest outside object* ``b``: the pair ``(o, g, b)``.  Sample escaping
store statements are kept per origin as report evidence.
"""

from repro.core.flows import FlowPair
from repro.core.pipeline.artifacts import FlowsOutArtifact


def compute_flows_out(context_art, store_art, stats):
    """Produce the :class:`FlowsOutArtifact` for a region.

    A site is outside when it is not an inside site (this includes
    forced-outside started-thread sites).
    """
    inside_sites = context_art.inside_sites
    by_src = store_art.by_src

    out_pairs = set()
    escape_stmts = {}
    for origin in inside_sites:
        seen = {origin}
        work = [origin]
        while work:
            site = work.pop()
            for edge in by_src.get(site, ()):
                if edge.base_site in inside_sites:
                    if edge.base_site not in seen:
                        seen.add(edge.base_site)
                        work.append(edge.base_site)
                else:
                    pair = FlowPair(origin, edge.field, edge.base_site)
                    if pair not in out_pairs:
                        out_pairs.add(pair)
                        escape_stmts.setdefault(origin, []).append(edge.stmt)
    stats.count("flow_pairs_out", len(out_pairs))
    return FlowsOutArtifact(pairs=out_pairs, escape_stmts=escape_stmts)
