"""Content-addressed cache keying.

A cache entry is valid only for the exact program and the exact
substrate configuration it was computed from, under the exact
serialization schema this code writes.  All three are folded into one
hex digest:

* the *program digest* hashes the canonical pretty-printed IR
  (:func:`repro.ir.printer.program_to_text`), which is a fixpoint under
  print→parse→print, so textual formatting differences in the original
  source do not fragment the cache while any semantic change — a new
  statement, a renamed field, a different entry point — moves to a new
  key;
* the *substrate key* (:meth:`repro.core.config.DetectorConfig.
  substrate_key`) covers the configuration slice that determines the
  program-level artifacts: call-graph kind, demand-driven mode, query
  budget.  Region-level knobs (context depth, pivot, strong updates)
  deliberately do not participate — they do not change the substrate;
* :data:`CACHE_SCHEMA_VERSION` is bumped whenever the snapshot layout
  changes, so entries written by older code are treated as misses, not
  decoded incorrectly.
"""

import hashlib

from repro.ir.printer import program_to_text

#: Bump on any change to the snapshot payload layout (see serialize.py).
#: v3: incremental-analysis snapshots (per-method digests, flow graph,
#: per-region reports).
#: v4: integer-flat Andersen encoding (kind-tagged: flat arrays + one
#: mask blob from the kernel, sorted lists from the legacy dict solver).
#: v5: per-method summary payloads ("summaries": digest-keyed intra
#: summaries, reused across program versions when the per-method digest
#: still matches).  v6: no summary payloads, and the flat encoding is
#: the only Andersen encoding (reports lose the summary counters).
CACHE_SCHEMA_VERSION = 6


def program_digest(program):
    """Hex digest of the canonical textual rendering of ``program``."""
    text = program_to_text(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(program, config, schema_version=CACHE_SCHEMA_VERSION, program_dig=None):
    """The cache entry key for (program, substrate config, schema).

    ``program_dig`` lets callers reuse an already-computed program
    digest (hashing the printed IR is the expensive part of keying).
    """
    material = "%s\x00%r\x00schema=%d" % (
        program_dig or program_digest(program),
        config.substrate_key(),
        schema_version,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
