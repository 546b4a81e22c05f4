"""The substrate codec: a program's solved analysis state as bytes.

One whole-program points-to solve is what a cold check pays for; the
daemon's session pool (:mod:`repro.server.pool`) keeps that solved
substrate — call graph, flat points-to solution, per-method statement
and store-edge indexes, library visibility and started-thread
summaries — as bytes in memory, so a later request for the same text
hydrates a session instead of solving again:

* :mod:`~repro.core.cache.digest` — :func:`program_digest`, a hash of
  the canonical pretty-printed IR that responses, the pool and fleet
  workers report, and :data:`CACHE_SCHEMA_VERSION`, the snapshot
  layout the bytes were written in;
* :mod:`~repro.core.cache.serialize` — converts a
  :class:`~repro.core.pipeline.session.SharedArtifacts` to and from a
  plain-data snapshot (labels, signatures and statement uids only — no
  live IR objects) and its byte form.

Hydration checks the schema, the substrate configuration and the program
digest, and raises :class:`~repro.errors.CacheError` on a mismatch.
"""

from repro.core.cache.digest import CACHE_SCHEMA_VERSION, program_digest
from repro.core.cache.serialize import hydrate_shared, snapshot_shared

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "hydrate_shared",
    "program_digest",
    "snapshot_shared",
]
