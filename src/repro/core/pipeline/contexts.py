"""Stage 1 — context enumeration (the paper's step 2).

DFS from the region's call sites through the call graph, bounded by
``context_depth``, collecting every allocation site reachable during one
iteration together with the call string leading to it (Table 1's ``LO``),
then splitting sites into inside / forced-outside (started threads) /
reportable (application code).
"""

from repro.core.libmodel import is_library_sig
from repro.core.pipeline.artifacts import ContextArtifact
from repro.ir.stmts import InvokeStmt, NewStmt
from repro.pta.context import EMPTY


def enumerate_contexts(session, region, stats):
    """Produce the :class:`ContextArtifact` for ``region``."""
    config = session.config
    program = session.program
    callgraph = session.callgraph
    contexts = {}
    region_methods = set()

    def add_site(stmt, ctx):
        ctxs = contexts.setdefault(stmt.site, set())
        if len(ctxs) < config.max_contexts_per_site:
            ctxs.add(ctx)

    def visit_method(method, ctx, chain):
        region_methods.add(method.sig)
        for stmt in method.simple:
            if isinstance(stmt, NewStmt):
                add_site(stmt, ctx)
            elif isinstance(stmt, InvokeStmt):
                descend(stmt, ctx, chain)

    def descend(invoke, ctx, chain):
        if ctx.depth >= config.context_depth:
            return
        for callee in callgraph.targets_of_site(invoke):
            if callee.sig in chain:
                continue  # cut recursion cycles
            visit_method(
                callee, ctx.push(invoke.callsite), chain | {callee.sig}
            )

    for stmt in region.body_statements(program):
        if isinstance(stmt, NewStmt):
            add_site(stmt, EMPTY)
        elif isinstance(stmt, InvokeStmt):
            descend(stmt, EMPTY, frozenset())

    thread_sites = set()
    if config.model_threads:
        thread_sites = set(session.started_thread_sites())
    inside_sites = set(contexts) - thread_sites

    # Leaks are reported at application allocation sites; collection
    # internals (HashMap entries, list nodes) stay in the flow
    # computation as inside objects but are never reported themselves —
    # the paper's "higher level of abstraction" requirement.
    reportable = {
        s
        for s in inside_sites
        if not is_library_sig(program, program.site(s).method_sig)
    }

    stats.count(
        "contexts_enumerated", sum(len(ctxs) for ctxs in contexts.values())
    )
    return ContextArtifact(
        contexts=contexts,
        region_methods=region_methods,
        thread_sites=thread_sites,
        inside_sites=inside_sites,
        reportable=reportable,
    )
