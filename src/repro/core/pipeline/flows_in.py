"""Stage 5 — transitive flows-in (the paper's step 4).

Loads executable during an iteration whose base may be an outside object
root retrieval chains; loads from inside bases extend them.  The Section
4 library condition constrains the *finally retrieved* object: a chain of
loads rooted at an outside object's field is a flows-in for its final
value only when the load producing that value either sits in application
code or hands the value back to application code.  Intermediate links
(e.g. the ``MapEntry`` read inside ``HashMap.get``) may be
library-internal.
"""

from repro.core.flows import FlowPair
from repro.core.libmodel import is_library_sig
from repro.core.pipeline.artifacts import FlowsInArtifact
from repro.ir.stmts import LoadStmt


def compute_flows_in(session, context_art, region_stmts, stats):
    """Produce the :class:`FlowsInArtifact` for a region."""
    config = session.config
    program = session.program
    points_to = session.points_to
    inside_sites = context_art.inside_sites

    visible = (
        session.library_visible_values() if config.library_condition else None
    )

    #: pair -> True when the final link satisfies the condition
    pairs = {}
    #: inside-base links: (value_site, inside_base) -> final-link visible
    inside_loads = {}
    thread_classes = (
        session.thread_subclasses() if config.model_threads else set()
    )

    def link_visible(stmt):
        if not config.library_condition:
            return True
        if not is_library_sig(program, stmt.method.sig):
            return True
        # Keys, not the PAG: a cache-hydrated session never builds the
        # PAG for a region run.
        return (stmt.method.sig, stmt.target) in visible

    for stmt in region_stmts.statements:
        if not isinstance(stmt, LoadStmt):
            continue
        sig = stmt.method.sig
        if stmt.method.declaring_class in thread_classes:
            # A retrieval performed by a (started) thread body is not a
            # retrieval by a later loop iteration; under thread
            # modeling such loads do not produce flows-in, which is
            # why the Mikou case study sees the escapes reported.
            continue
        stmt_visible = link_visible(stmt)
        for base in points_to.pts(sig, stmt.base):
            for value in points_to.field_pts(base, stmt.field):
                if value not in inside_sites:
                    continue
                if base in inside_sites:
                    key = (value, base)
                    inside_loads[key] = (
                        inside_loads.get(key, False) or stmt_visible
                    )
                else:
                    pair = FlowPair(value, stmt.field, base)
                    pairs[pair] = pairs.get(pair, False) or stmt_visible

    changed = True
    while changed:
        changed = False
        for (value, mid), link_vis in inside_loads.items():
            for pair in list(pairs):
                if pair.site != mid:
                    continue
                extended = FlowPair(value, pair.field, pair.base)
                # The chain's visibility is that of its final link.
                if link_vis and not pairs.get(extended, False):
                    pairs[extended] = True
                    changed = True
                elif extended not in pairs:
                    pairs[extended] = False
                    changed = True
    result = {pair for pair, vis in pairs.items() if vis}
    stats.count("flow_pairs_in", len(result))
    return FlowsInArtifact(pairs=result)
