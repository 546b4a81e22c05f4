"""The session pool: warm analysis state keyed by program digest.

The daemon's whole value proposition is that the *second* request for a
program is cheap.  :class:`SessionPool` makes that true by keeping, per
distinct program (identified by
:func:`~repro.core.cache.digest.program_digest`), the snapshot a full
scan produces (:mod:`~repro.core.incremental.snapshot`).  A repeat
request with an identical digest goes through
:func:`~repro.core.incremental.engine.changed_scan`, where zero dirty
methods means the **fast path**: every region is decoded from the
snapshot and *no session, call graph or points-to substrate is built at
all*.  The response's profile carries the proof —
``incremental_fast_path: 1``, ``incremental_served: N``,
``incremental_rechecked: 0`` — which the smoke tests assert.

Policy decisions, deliberately boring:

* snapshots are stored only for **full** scans (no explicit region
  list); region-limited requests are *served against* a stored snapshot
  but never overwrite it, so a narrow request cannot degrade a later
  broad one;
* entries evict LRU once ``max_sessions`` distinct programs have been
  seen — a snapshot is all-we-need state, so eviction costs one cold
  scan, nothing more.  The bound covers every warm program, those only
  the worker fleet has seen included: a program analysed through both
  ``/analyze`` and ``/analyze-batch`` takes one slot;
* a per-entry lock serializes same-digest requests (two concurrent
  cold scans of the same program would just waste CPU); distinct
  digests proceed in parallel under the admission layer's ``jobs`` cap.

The pool is also the fleet's program store: :meth:`SessionPool.handoff`
fills an entry with what a worker needs to serve the program warm (see
:class:`PoolEntry`), and the pool's eviction is the one place that
closes and unlinks a hand-off's shared-memory segment.

An optional :class:`~repro.core.cache.store.ArtifactCache` additionally
persists program-level artifacts across daemon restarts.
"""

import pickle
import threading
from collections import OrderedDict

from repro.core.cache.adopt import share_snapshot
from repro.core.cache.digest import program_digest
from repro.core.cache.serialize import snapshot_shared
from repro.core.incremental.engine import changed_scan
from repro.core.incremental.snapshot import snapshot_scan
from repro.core.pipeline.session import AnalysisSession
from repro.core.scan import scan_all_loops
from repro.pta.kernel import pack_snapshot


class PoolEntry:
    """One pooled program: its warm state and the lock that guards it.

    ``snapshot`` is the per-region scan snapshot the incremental engine
    serves from; ``shared_snapshot`` is the program-level substrate
    (call graph + solved points-to in the kernel's flat encoding) that
    a warm request's re-check session hydrates from instead of
    re-solving.  Both are set by ``/analyze``.

    The fleet hand-off, set by :meth:`SessionPool.handoff`:
    ``program_blob`` is the pickled program, and the packed substrate
    (:func:`~repro.pta.kernel.pack_snapshot`) lives in the shared-memory
    segment ``shm`` when the transport wants one, else in ``packed``.
    """

    __slots__ = (
        "digest", "snapshot", "shared_snapshot", "program_blob", "packed",
        "shm", "closed", "lock", "hits", "misses",
    )

    def __init__(self, digest):
        self.digest = digest
        self.snapshot = None
        self.shared_snapshot = None
        self.program_blob = None
        self.packed = None
        self.shm = None
        self.closed = False
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def release(self):
        """Close and unlink the hand-off segment (idempotent)."""
        self.closed = True
        shm, self.shm = self.shm, None
        _unlink(shm)


def _unlink(shm):
    if shm is not None:
        try:
            shm.close()
            shm.unlink()
        except OSError:
            pass


class SessionPool:
    """Digest-keyed warm analysis state; thread-safe; LRU-bounded."""

    def __init__(self, config=None, cache=None, max_sessions=8):
        from repro.core.config import DetectorConfig

        if max_sessions < 1:
            raise ValueError(
                "max_sessions must be >= 1 (got %d)" % max_sessions
            )
        self.config = config or DetectorConfig()
        self.cache = cache
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self.evicted = 0
        #: points-to kernel statistics of the most recent cold solve,
        #: surfaced as ``kernel_*`` gauges by ``/metrics``.
        self.kernel_stats = {}

    def analyze(self, program, specs=None, deadline=None):
        """Scan ``program``, warm when its digest has been seen before.

        Returns ``(ScanResult, info)`` where ``info`` is a plain dict:
        ``{"program_digest", "warm", "counters"}`` — ``counters`` being
        the :class:`~repro.core.incremental.engine.IncrementalOutcome`
        counters on the warm path, empty on the cold path.
        """
        digest = program_digest(program)
        entry = self._entry_for(digest)
        with entry.lock:
            if entry.snapshot is not None:
                # Identical digest guarantees zero dirty methods: the
                # engine serves everything from the snapshot without
                # building analysis state (its fast path).  A spec not
                # covered by the stored scan is re-checked lazily —
                # against a session hydrated from the stored substrate
                # snapshot (solved points-to included), never a cold
                # rebuild.
                result, outcome = changed_scan(
                    program,
                    entry.snapshot,
                    config=self.config,
                    specs=specs,
                    cache=self.cache,
                    deadline=deadline,
                    shared_snapshot=entry.shared_snapshot,
                )
                entry.hits += 1
                return result, {
                    "program_digest": digest,
                    "warm": True,
                    "counters": outcome.counters(),
                }
            session = AnalysisSession(program, self.config, cache=self.cache)
            result = scan_all_loops(
                program, session=session, specs=specs, deadline=deadline
            )
            if specs is None:
                entry.snapshot = snapshot_scan(
                    program, self.config, result, session=session
                )
                entry.shared_snapshot = snapshot_shared(session.shared)
            stats = session.points_to.kernel_stats()
            if stats:
                self.kernel_stats = stats
            entry.misses += 1
            return result, {
                "program_digest": digest,
                "warm": False,
                "counters": {},
            }

    def snapshot_for(self, digest):
        """The stored snapshot for a digest, or ``None`` (used by
        ``POST /diff`` to compare against the pooled baseline)."""
        with self._lock:
            entry = self._entries.get(digest)
        return entry.snapshot if entry is not None else None

    def handoff(self, program, digest=None, shm=False):
        """``program``'s entry with its fleet hand-off filled, at most once.

        The substrate comes from the entry's ``shared_snapshot`` when
        ``/analyze`` already built one, else from a warm session built
        here and not kept: a program only the fleet has seen retains the
        packed form alone.  With ``shm`` it is packed into a
        shared-memory segment, falling back to ``packed`` bytes where
        the platform has none.
        """
        entry = self._entry_for(digest or program_digest(program))
        with entry.lock:
            if entry.program_blob is not None:
                return entry
            snapshot = entry.shared_snapshot
            if snapshot is None:
                session = AnalysisSession(
                    program, self.config, cache=self.cache
                )
                snapshot = snapshot_shared(session.warm().shared)
            segment = share_snapshot(snapshot)[0] if shm else None
            if segment is None:
                entry.packed = pack_snapshot(snapshot)
            else:
                with self._lock:
                    # Evicted while packing: nobody would unlink it later.
                    if not entry.closed:
                        entry.shm, segment = segment, None
                _unlink(segment)
            entry.program_blob = pickle.dumps(
                program, protocol=pickle.HIGHEST_PROTOCOL
            )
            return entry

    def _entry_for(self, digest):
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                return entry
            entry = self._entries[digest] = PoolEntry(digest)
            while len(self._entries) > self.max_sessions:
                self._entries.popitem(last=False)[1].release()
                self.evicted += 1
            return entry

    def close(self):
        """Drop every entry, unlinking its hand-off segment."""
        with self._lock:
            for entry in self._entries.values():
                entry.release()
            self._entries.clear()

    def stats(self):
        """Gauge-ready occupancy numbers for ``/metrics``."""
        with self._lock:
            entries = list(self._entries.values())
            kernel = dict(self.kernel_stats)
        gauges = {
            "pool_sessions": len(entries),
            "pool_warm": sum(1 for e in entries if e.snapshot is not None),
            "pool_hits": sum(e.hits for e in entries),
            "pool_misses": sum(e.misses for e in entries),
            "pool_evicted": self.evicted,
        }
        for name, value in sorted(kernel.items()):
            gauges["kernel_%s" % name] = value
        return gauges

    def __repr__(self):
        with self._lock:
            return "SessionPool(%d/%d programs)" % (
                len(self._entries),
                self.max_sessions,
            )
