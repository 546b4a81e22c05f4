"""The on-disk artifact cache: a content-addressed directory store.

Layout (one flat directory, safe to delete at any time)::

    <root>/
      <key>.artifacts.pkl     # substrate bytes (serialize.dump_shared)

where ``<key>`` is the hex digest of (program IR, substrate config key,
schema version) from :func:`repro.core.cache.digest.cache_key`.  Writes
go through a same-directory temp file + :func:`os.replace`, so readers
never observe a half-written entry even with concurrent scans.

Failure policy: the cache is an accelerator, never a correctness
dependency.  Any problem reading, decoding or hydrating an entry —
truncated pickle, schema bump, digest mismatch, stale uids — counts as
a miss, evicts the offending file, and lets the caller recompute.  Only
an explicitly unusable *root* (cannot be created or written) raises
:class:`~repro.errors.CacheError`, and only at save time.
"""

import os
import tempfile

from repro.core.cache.digest import cache_key, program_digest
from repro.core.cache.serialize import dump_shared, load_shared
from repro.errors import CacheError

_SUFFIX = ".artifacts.pkl"


class ArtifactCache:
    """Directory-backed store of :class:`SharedArtifacts` snapshots.

    Parameters
    ----------
    root:
        Cache directory; created on first save.  One cache can hold
        entries for any number of (program, substrate) pairs.

    ``stats`` counts ``artifact_cache_hits`` / ``misses`` / ``saves`` /
    ``evictions``; sessions fold these into their pipeline counters so
    the ``--profile`` and ``--json`` CLI paths surface them.
    """

    def __init__(self, root):
        self.root = str(root)
        self.stats = {
            "artifact_cache_hits": 0,
            "artifact_cache_misses": 0,
            "artifact_cache_saves": 0,
            "artifact_cache_evictions": 0,
        }

    # -- paths --------------------------------------------------------------

    def path_for(self, program, config, program_dig=None):
        return os.path.join(
            self.root,
            cache_key(program, config, program_dig=program_dig) + _SUFFIX,
        )

    def entries(self):
        """Keys currently stored (hex digests, sorted)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            name[: -len(_SUFFIX)] for name in names if name.endswith(_SUFFIX)
        )

    # -- load / save ---------------------------------------------------------

    def load(self, program, config):
        """Hydrated :class:`SharedArtifacts` for (program, config), or
        ``None`` on a miss.  Corrupt or mismatched entries are evicted
        and reported as misses — never raised."""
        program_dig = program_digest(program)
        path = self.path_for(program, config, program_dig=program_dig)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            shared = load_shared(program, config, data, program_dig=program_dig)
        except FileNotFoundError:
            self.stats["artifact_cache_misses"] += 1
            return None
        except Exception:
            self._evict(path)
            self.stats["artifact_cache_misses"] += 1
            return None
        self.stats["artifact_cache_hits"] += 1
        return shared

    def save(self, program, config, shared):
        """Persist ``shared`` for (program, config); returns the path."""
        program_dig = program_digest(program)
        path = self.path_for(program, config, program_dig=program_dig)
        payload = dump_shared(shared, program_dig=program_dig)
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise CacheError(
                "cannot write cache entry under %s: %s" % (self.root, exc)
            ) from exc
        self.stats["artifact_cache_saves"] += 1
        return path

    def _evict(self, path):
        try:
            os.unlink(path)
        except OSError:
            return
        self.stats["artifact_cache_evictions"] += 1

    def clear(self):
        """Remove every entry (the cache directory itself is kept)."""
        for key in self.entries():
            self._evict(os.path.join(self.root, key + _SUFFIX))

    def __repr__(self):
        return "ArtifactCache(%r, %d entries)" % (self.root, len(self.entries()))
