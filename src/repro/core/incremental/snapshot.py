"""Analysis snapshots: everything ``scan --changed-since`` needs.

A snapshot (schema v3, shared with the artifact cache's
:data:`~repro.core.cache.digest.CACHE_SCHEMA_VERSION`) captures one
finished scan of one program under one configuration:

* identity — program digest, substrate key, the full
  ``config.describe()`` dict (region-level knobs like pivot and strong
  updates change reports, so serving across configs is forbidden);
* change-detection state — per-method content digests, the class
  structure digest, per-method dispatch signatures and callsite-level
  call edges, and the value-flow graph
  (:mod:`~repro.core.incremental.flowgraph`);
* replay state for the engine's fast path — per-method returned
  variables, the reachable-method set, per-method simple-statement
  counts and the program-size ``size_counts`` pair, which together let
  the engine rebind call edges around an edited method and patch the
  served reports' size stats without rebuilding a call graph;
* results — for every scanned region, its spec text, its *footprint*
  (the method signatures whose bodies can execute during one region
  iteration) and its encoded report
  (:mod:`~repro.core.incremental.reports`).

Snapshots are plain-data dicts pickled to a user-named file: unlike
artifact-cache entries they are keyed by *path*, not by program digest,
precisely because their purpose is to be read back after the program
changed.
"""

import pickle

from repro.core.cache.digest import CACHE_SCHEMA_VERSION, program_digest
from repro.core.incremental.digests import (
    callsite_edges,
    dispatch_signatures,
    method_digests,
    simple_statement_counts,
    structure_digest,
)
from repro.core.incremental.flowgraph import build_flowgraph, method_returns
from repro.core.incremental.reports import (
    encode_report,
    statement_position_index,
)
from repro.core.regions import region_text
from repro.errors import CacheError


def snapshot_scan(program, config, result, session=None):
    """Encode a finished scan as a snapshot payload dict.

    ``session`` supplies region footprints (memoized pipeline
    artifacts); a scan that fanned out over worker processes left the
    parent session's region cache cold, so footprint capture re-runs
    those pipelines — an accepted one-time cost of writing a snapshot.
    """
    from repro.core.pipeline.session import AnalysisSession

    session = session or AnalysisSession(program, config)
    positions = statement_position_index(program)
    regions = []
    for spec, report in result.entries:
        footprint = set(session.artifacts(spec).contexts.region_methods)
        footprint.add(spec.method_sig)
        regions.append(
            {
                "spec": region_text(spec),
                "footprint": sorted(footprint),
                "report": encode_report(report, positions),
            }
        )
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "substrate_key": tuple(session.config.substrate_key()),
        "config": sorted(session.config.describe().items()),
        "program_digest": program_digest(program),
        "method_digests": method_digests(program),
        "structure_digest": structure_digest(program),
        "dispatch_sigs": dispatch_signatures(program),
        "call_edges": callsite_edges(program, session.callgraph),
        "returns": method_returns(program),
        "reachable": sorted(
            m.sig for m in session.callgraph.reachable_methods()
        ),
        "stmt_counts": simple_statement_counts(program),
        "size_counts": tuple(session.shared.size_counts()),
        "flowgraph": build_flowgraph(program, session.callgraph).to_plain(),
        "regions": regions,
    }


def save_snapshot(path, payload):
    """Pickle ``payload`` to ``path`` (atomic enough for CI use)."""
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def load_snapshot(path):
    """Read a snapshot payload; raises :class:`CacheError` on any
    malformed or wrong-schema file (callers fall back to a cold scan)."""
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise CacheError("cannot read snapshot %s: %s" % (path, exc))
    if not isinstance(payload, dict) or "schema" not in payload:
        raise CacheError("snapshot %s is not a snapshot payload" % path)
    if payload["schema"] != CACHE_SCHEMA_VERSION:
        raise CacheError(
            "snapshot %s has schema %r, this build writes %d"
            % (path, payload["schema"], CACHE_SCHEMA_VERSION)
        )
    return payload
