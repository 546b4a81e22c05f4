"""Persistent on-disk artifact cache for program-level analysis state.

The staged pipeline memoizes its program-level artifacts — call graph,
Andersen solution, per-method statement and store-edge indexes, library
visibility and started-thread summaries — but only for the lifetime of
one :class:`~repro.core.pipeline.session.AnalysisSession`.  This package
makes that state durable:

* :mod:`~repro.core.cache.digest` — content-addressed keying: entries
  are keyed by a digest of (program IR, substrate config key, cache
  schema version), so any change to the program, the substrate-relevant
  configuration, or the serialization format lands on a different key;
* :mod:`~repro.core.cache.serialize` — converts a
  :class:`~repro.core.pipeline.session.SharedArtifacts` to and from a
  plain-data snapshot (labels, signatures and statement uids only — no
  live IR objects), also used to ship the substrate to fleet workers;
* :mod:`~repro.core.cache.store` — the :class:`ArtifactCache` directory
  store with atomic writes and fall-back-to-recompute semantics:
  corrupted or version-mismatched entries are evicted and recomputed,
  never raised to callers.

A second ``scan``/``check`` of the same program under the same substrate
key hydrates the session from the cache and skips the warm-up (call
graph construction, PAG build, Andersen solve, summary computation)
entirely.
"""

from repro.core.cache.digest import CACHE_SCHEMA_VERSION, cache_key, program_digest
from repro.core.cache.serialize import hydrate_shared, snapshot_shared
from repro.core.cache.store import ArtifactCache

__all__ = [
    "ArtifactCache",
    "CACHE_SCHEMA_VERSION",
    "cache_key",
    "hydrate_shared",
    "program_digest",
    "snapshot_shared",
]
