"""The substrate codec: :class:`SharedArtifacts` to bytes and back.

A snapshot is a plain-data dict — labels, signatures, field names and
statement uids only, no live IR objects — rehydrated against a
structurally identical program on the other side.  Its byte form, the
pickled dict, has one encoder (:func:`dump_shared`) and one decoder
(:func:`load_shared`).  The daemon's session pool keeps those bytes in
memory as a program's substrate, and only bytes :func:`dump_shared`
wrote earlier in the same process reach :func:`load_shared`: no file,
HTTP body or wire frame is decoded here.

Statement identity crosses the boundary through uids: the IR assigns
uids deterministically in seal order, and the canonical printer
round-trips (print→parse→print is a fixpoint), so a statement's uid
is stable for a given program digest.  Hydration resolves uids through
a fresh uid→statement index; a snapshot of another schema, substrate
configuration or program raises :class:`~repro.errors.CacheError`.
"""

import pickle

from repro.callgraph.cha import CallEdge, CallGraph
from repro.core.cache.digest import CACHE_SCHEMA_VERSION, program_digest
from repro.core.pipeline.artifacts import StoreEdge
from repro.core.pipeline.session import SharedArtifacts
from repro.errors import CacheError
from repro.pta.kernel import hydrate_flat, snapshot_flat


def dump_shared(shared, program_dig=None):
    """``shared`` as substrate bytes: the pickled :func:`snapshot_shared`
    dict."""
    return pickle.dumps(
        snapshot_shared(shared, program_dig=program_dig),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_shared(program, config, data, program_dig=None):
    """Decode :func:`dump_shared` bytes into a :class:`SharedArtifacts`
    for ``program``.  Raises like :func:`hydrate_shared`, and whatever
    unpickling raises on bytes that are not a substrate."""
    return hydrate_shared(
        program, config, pickle.loads(data), program_dig=program_dig
    )


def snapshot_shared(shared, program_dig=None):
    """Encode ``shared`` as a plain-data snapshot dict.

    Lazily-computed artifacts that were never demanded (e.g. thread
    summaries under ``model_threads=False``) are stored as ``None`` and
    stay lazy after hydration.
    """
    callgraph = shared.callgraph
    andersen = shared.points_to._andersen
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "substrate_key": tuple(shared.substrate_key),
        "program_digest": program_dig or program_digest(shared.program),
        "callgraph": {
            "entries": list(callgraph.entry_sigs),
            "edges": sorted(
                (e.caller.sig, e.invoke.uid, e.callee.sig)
                for e in callgraph.edges
            ),
        },
        # The flat kernel's arrays plus one mask blob.
        "andersen": None if andersen is None else snapshot_flat(andersen),
        "method_stmts": {
            sig: [s.uid for s in stmts]
            for sig, stmts in sorted(shared.method_stmts.items())
        },
        "store_edges": {
            uid: [(e.src_site, e.field, e.base_site) for e in edges]
            for uid, edges in sorted(shared.stmt_store_edges.items())
        },
        "visible": None
        if shared._visible is None
        else sorted(shared._visible),
        "thread_sites": None
        if shared._thread_sites is None
        else sorted(shared._thread_sites),
        "thread_subclasses": None
        if shared._thread_subclasses is None
        else sorted(shared._thread_subclasses),
        "size_counts": None
        if shared._size_counts is None
        else list(shared._size_counts),
    }


def hydrate_shared(program, config, snapshot, program_dig=None):
    """Rebuild a :class:`SharedArtifacts` for ``program`` from a snapshot.

    Raises :class:`~repro.errors.CacheError` when the snapshot does not
    belong to (program, config, schema); raises a lookup error when the
    snapshot references statements or methods the program does not have.
    ``program_dig`` short-circuits re-hashing the program when the
    caller already holds its digest (a session pool entry records it).
    """
    if snapshot.get("schema") != CACHE_SCHEMA_VERSION:
        raise CacheError(
            "snapshot schema %r != %d"
            % (snapshot.get("schema"), CACHE_SCHEMA_VERSION)
        )
    if tuple(snapshot["substrate_key"]) != tuple(config.substrate_key()):
        raise CacheError(
            "snapshot substrate %r cannot serve config substrate %r"
            % (snapshot["substrate_key"], config.substrate_key())
        )
    if snapshot["program_digest"] != (program_dig or program_digest(program)):
        raise CacheError("snapshot belongs to a different program")

    stmt_by_uid = {s.uid: s for s in program.all_statements()}

    graph = CallGraph(program, snapshot["callgraph"]["entries"])
    for caller_sig, invoke_uid, callee_sig in snapshot["callgraph"]["edges"]:
        graph.add_edge(
            CallEdge(
                program.method(caller_sig),
                stmt_by_uid[invoke_uid],
                program.method(callee_sig),
            )
        )

    shared = SharedArtifacts(program, config, callgraph=graph)

    if snapshot["andersen"] is not None:
        shared.points_to.adopt_andersen(hydrate_flat(snapshot["andersen"]))

    shared.method_stmts.update(
        (sig, tuple(stmt_by_uid[uid] for uid in uids))
        for sig, uids in snapshot["method_stmts"].items()
    )
    shared.stmt_store_edges.update(
        (
            uid,
            tuple(
                StoreEdge(src, field, base, stmt_by_uid[uid])
                for src, field, base in edges
            ),
        )
        for uid, edges in snapshot["store_edges"].items()
    )
    if snapshot["visible"] is not None:
        shared._visible = {(sig, name) for sig, name in snapshot["visible"]}
    if snapshot["thread_sites"] is not None:
        shared._thread_sites = set(snapshot["thread_sites"])
    if snapshot["thread_subclasses"] is not None:
        shared._thread_subclasses = set(snapshot["thread_subclasses"])
    if snapshot["size_counts"] is not None:
        shared._size_counts = tuple(snapshot["size_counts"])
    return shared
