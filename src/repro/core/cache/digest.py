"""Program identity and the snapshot schema.

* the *program digest* hashes the canonical pretty-printed IR
  (:func:`repro.ir.printer.program_to_text`), which is a fixpoint under
  print→parse→print, so textual formatting differences in the original
  source do not change it while any semantic change — a new statement,
  a renamed field, a different entry point — does.  Responses, the
  session pool and fleet workers report it, and a substrate snapshot
  records it so that hydration refuses another program;
* :data:`CACHE_SCHEMA_VERSION` is bumped whenever the snapshot layout
  changes, so bytes written by other code are refused, not decoded
  incorrectly.
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
#: v7: no inference catalog.  v8: no per-method statement or
#: per-store edge indexes.
CACHE_SCHEMA_VERSION = 8


def program_digest(program):
    """Hex digest of the canonical textual rendering of ``program``."""
    text = program_to_text(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

