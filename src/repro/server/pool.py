"""The session pool: warm analysis state keyed by request text.

The daemon's whole value proposition is that the *second* request for a
program is cheap.  Parsing is a pure function of the source text and the
``javalib`` flag, and a region's report depends only on the program and
the configuration, so :class:`SessionPool` keys each program by
:func:`text_key` — a SHA-256 of the flag and the text — and keeps, per
key, two warm forms and nothing else (:class:`PoolEntry`):

* the program's last full, undegraded scan.  A repeat whose region
  texts it covers, matched verbatim, is answered from it without
  parsing and without building a session;
* the program's substrate — call graph plus solved points-to — as the
  bytes the artifact cache writes (:func:`~repro.core.cache.serialize.
  dump_shared`).  Any other request for a known text parses it and
  checks its regions on a session hydrated from them.

No live session and no parsed program is kept: hydrating a session
costs milliseconds, while holding one per program costs about three
times the memory of both forms.

Policy decisions, deliberately boring:

* the scan is stored only for a **full** request (no explicit region
  list) whose deadline forced no fallback answer, so a narrow or
  degraded answer never stands in for a later one; the substrate is
  stored on every cold request;
* entries evict LRU once ``max_sessions`` texts have been answered —
  eviction costs one cold scan, nothing more.  The bound covers every
  entry, those only the worker fleet has seen (:meth:`SessionPool.
  register`) included;
* a request that fails on a text the pool had no entry for leaves no
  entry behind and evicts nothing, so unparseable texts cannot push
  warm programs out;
* a per-entry lock serializes same-text requests (two concurrent cold
  scans of the same program would just waste CPU); distinct texts
  proceed in parallel under the admission layer's ``jobs`` cap.

An optional :class:`~repro.core.cache.store.ArtifactCache` additionally
persists the substrate of a cold request across daemon restarts.
"""

import hashlib
import threading
from collections import OrderedDict

from repro.core.cache.digest import program_digest
from repro.core.cache.serialize import dump_shared, load_shared
from repro.core.config import DetectorConfig
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import region_text, resolve_region
from repro.core.scan import ScanResult, scan_all_loops
from repro.javalib import JAVALIB_SOURCE
from repro.lang import parse_program
from repro.pta.queries import Deadline


def text_key(source, javalib):
    """The pool key of a request: a SHA-256 of the ``javalib`` flag and
    the source text (lone surrogates, which JSON can carry, included)."""
    digest = hashlib.sha256(b"javalib\n" if javalib else b"plain\n")
    digest.update(source.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def parse_source(source, javalib):
    """The program a request stands for: ``source``, after the bundled
    Java library when ``javalib`` is set."""
    if javalib:
        source = JAVALIB_SOURCE + "\n" + source
    return parse_program(source)


def resolve_regions(program, regions):
    """Region texts resolved in ``program``; ``None`` (every labelled
    loop) passes through."""
    if regions is None:
        return None
    return [resolve_region(program, text) for text in regions]


class PoolEntry:
    """One pooled program: its warm forms and the lock that guards them.

    ``digest`` is the program digest, known once a scan ran here or a
    fleet worker reported it.  ``result`` is the last full, undegraded
    :class:`ScanResult`; every response served from it shares its
    reports, so nothing may mutate them.  ``substrate`` is the
    program-level state as :func:`~repro.core.cache.serialize.
    dump_shared` bytes.
    """

    __slots__ = ("key", "digest", "result", "substrate", "lock", "hits",
                 "misses")

    def __init__(self, key):
        self.key = key
        self.digest = None
        self.result = None
        self.substrate = None
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0


class SessionPool:
    """Text-keyed warm analysis state; thread-safe; LRU-bounded."""

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

    def analyze(self, source, javalib=False, regions=None, deadline_ms=None):
        """Scan the program ``source`` stands for, warm when its text has
        been seen before.

        ``regions`` is ``None`` (every labelled loop) or a list of region
        spec texts; ``deadline_ms`` bounds the demand-driven query work
        from the end of parsing on.  Returns ``(ScanResult, info)``
        where ``info`` is ``{"program_digest", "warm", "degraded"}``;
        ``warm`` means the request built no substrate.  A program that
        does not parse, a region that does not resolve and a failed
        analysis raise their :class:`~repro.errors.ReproError`.
        """
        entry, created = self._entry_for(text_key(source, javalib))
        with entry.lock:
            try:
                result = _stored_answer(entry.result, regions)
                warm = entry.substrate is not None
                degraded = False
                if result is None:
                    # A region text resolves only in its canonical form,
                    # so a stored scan that missed it verbatim lacks it.
                    program = parse_source(source, javalib)
                    specs = resolve_regions(program, regions)
                    deadline = Deadline.after_ms(deadline_ms)
                    result = self._scan(entry, program, specs, deadline)
                    degraded = bool(deadline and deadline.was_exceeded)
            except BaseException:
                if created and entry.digest is None:
                    self._forget(entry)
                raise
            if warm:
                entry.hits += 1
            else:
                entry.misses += 1
            info = {
                "program_digest": entry.digest,
                "warm": warm,
                "degraded": degraded,
            }
        self._evict()
        return result, info

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
            entry.digest = program_digest(program)
            entry.substrate = dump_shared(session.shared, entry.digest)
            stats = session.points_to.kernel_stats()
            if stats:
                self.kernel_stats = stats
        if specs is None and not (deadline and deadline.was_exceeded):
            entry.result = result
        return result

    def seen(self, key):
        """Whether the pool holds an entry for the text ``key``."""
        with self._lock:
            return key in self._entries

    def register(self, key, digest):
        """Record that a fleet worker ran the text ``key``: it stands for
        the program ``digest`` (``None`` when it did not parse, resolve
        or analyse).  The next request for the text is answered here,
        and a success stored, instead of going to the fleet."""
        entry, _ = self._entry_for(key)
        with entry.lock:
            if entry.digest is None:
                entry.digest = digest
        self._evict()

    def _entry_for(self, key):
        """``(entry, created)`` for ``key``, now the most recent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = PoolEntry(key)
                return entry, True
            self._entries.move_to_end(key)
            return entry, False

    def _evict(self):
        """Drop least recently used entries past ``max_sessions`` — once
        a request has succeeded, so one that fails evicts nothing."""
        with self._lock:
            while len(self._entries) > self.max_sessions:
                self._entries.popitem(last=False)
                self.evicted += 1

    def _forget(self, entry):
        with self._lock:
            if self._entries.get(entry.key) is entry:
                del self._entries[entry.key]

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


def _stored_answer(stored, regions):
    """The answer to the region texts ``regions`` (``None``: all) from a
    stored full scan, or ``None`` when there is none or it misses one of
    them.  A new :class:`ScanResult` over the stored reports, with no
    cache counters: serving it touched no cache."""
    if stored is None:
        return None
    if regions is None:
        return ScanResult(stored.entries)
    entries = {region_text(spec): (spec, report)
               for spec, report in stored.entries}
    try:
        return ScanResult([entries[text] for text in regions])
    except KeyError:
        return None
