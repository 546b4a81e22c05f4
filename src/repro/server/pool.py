"""The session pool: warm analysis state keyed by program digest.

The daemon's whole value proposition is that the *second* request for a
program is cheap.  A region's report depends only on the program and
the configuration, so :class:`SessionPool` keeps, per distinct program
(identified by :func:`~repro.core.cache.digest.program_digest`), two
warm forms and nothing else (:class:`PoolEntry`):

* the program's last full, undegraded scan.  A repeat whose regions it
  covers is answered from it without building a session;
* the program's substrate — call graph plus solved points-to — as the
  bytes the artifact cache writes (:func:`~repro.core.cache.serialize.
  dump_shared`).  Any other request on a known digest checks its
  regions on a session hydrated from them, and every fleet shard
  frame carries the same bytes.

No live session is kept: hydrating one costs milliseconds, while
holding one per program costs about three times the memory of both
forms.

Policy decisions, deliberately boring:

* the scan is stored only for a **full** request (no explicit region
  list) whose deadline forced no fallback answer, so a narrow or
  degraded answer never stands in for a later one; the substrate is
  stored on every cold request;
* entries evict LRU once ``max_sessions`` distinct programs have been
  seen — eviction costs one cold scan, nothing more.  The bound covers
  every warm program, those only the worker fleet has seen included: a
  program analysed through both ``/analyze`` and ``/analyze-batch``
  takes one slot;
* a per-entry lock serializes same-digest requests (two concurrent
  cold scans of the same program would just waste CPU); distinct
  digests proceed in parallel under the admission layer's ``jobs`` cap.

An optional :class:`~repro.core.cache.store.ArtifactCache` additionally
persists the substrate of a cold request across daemon restarts.
"""

import pickle
import threading
from collections import OrderedDict

from repro.core.cache.digest import program_digest
from repro.core.cache.serialize import dump_shared, load_shared
from repro.core.config import DetectorConfig
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import region_text
from repro.core.scan import ScanResult, scan_all_loops


class PoolEntry:
    """One pooled program: its warm forms and the lock that guards them.

    ``result`` is the last full, undegraded :class:`ScanResult`; every
    response served from it shares its reports, so nothing may mutate
    them.  ``substrate`` is the program-level state as
    :func:`~repro.core.cache.serialize.dump_shared` bytes.
    ``program_blob``, the pickled program, is added once the fleet asks
    for the program (:meth:`SessionPool.handoff`).
    """

    __slots__ = (
        "digest", "result", "substrate", "program_blob", "lock", "hits",
        "misses",
    )

    def __init__(self, digest):
        self.digest = digest
        self.result = None
        self.substrate = None
        self.program_blob = None
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0


class SessionPool:
    """Digest-keyed warm analysis state; thread-safe; LRU-bounded."""

    def __init__(self, config=None, cache=None, max_sessions=8):
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
        ``{"program_digest", "warm"}``.  ``warm`` means the request built
        no substrate: the stored scan answered it, or a session
        hydrated from the stored substrate did.
        """
        digest = program_digest(program)
        entry = self._entry_for(digest)
        with entry.lock:
            warm = entry.substrate is not None
            result = _stored_answer(entry.result, specs)
            if result is None:
                result = self._scan(entry, program, specs, deadline)
            if warm:
                entry.hits += 1
            else:
                entry.misses += 1
            return result, {"program_digest": digest, "warm": warm}

    def _scan(self, entry, program, specs, deadline):
        """Check ``specs`` on a session over the entry's substrate —
        built cold (through the artifact cache) and stored when the
        entry has none — and store the scan if it is full and exact."""
        if entry.substrate is None:
            session = AnalysisSession(program, self.config, cache=self.cache)
        else:
            shared = load_shared(
                program, self.config, entry.substrate, entry.digest
            )
            session = AnalysisSession(program, self.config, shared=shared)
        result = scan_all_loops(
            program, session=session, specs=specs, deadline=deadline
        )
        if entry.substrate is None:
            entry.substrate = dump_shared(session.shared, entry.digest)
            stats = session.points_to.kernel_stats()
            if stats:
                self.kernel_stats = stats
        if specs is None and not (deadline and deadline.was_exceeded):
            entry.result = result
        return result

    def handoff(self, program, digest=None):
        """``program``'s entry with its fleet hand-off filled, at most once.

        The substrate is the entry's own when ``/analyze`` already built
        it, else it comes from a warm session built here and not kept.
        """
        entry = self._entry_for(digest or program_digest(program))
        with entry.lock:
            if entry.program_blob is not None:
                return entry
            if entry.substrate is None:
                session = AnalysisSession(
                    program, self.config, cache=self.cache
                )
                entry.substrate = dump_shared(
                    session.warm().shared, entry.digest
                )
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
                self._entries.popitem(last=False)
                self.evicted += 1
            return entry

    def close(self):
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def stats(self):
        """Gauge-ready occupancy numbers for ``/metrics``."""
        with self._lock:
            entries = list(self._entries.values())
            kernel = dict(self.kernel_stats)
        gauges = {
            "pool_sessions": len(entries),
            "pool_warm": sum(1 for e in entries if e.substrate is not None),
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


def _stored_answer(stored, specs):
    """The answer to ``specs`` from a stored full scan, or ``None`` when
    there is none or it misses one of the regions.  A new
    :class:`ScanResult` over the stored reports, with no cache counters:
    serving it touched no cache."""
    if stored is None:
        return None
    if specs is None:
        return ScanResult(stored.entries)
    reports = {region_text(spec): report for spec, report in stored.entries}
    try:
        return ScanResult([(spec, reports[region_text(spec)]) for spec in specs])
    except KeyError:
        return None
