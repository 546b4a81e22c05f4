"""The fleet coordinator: shard region scans across a worker pool.

A :class:`Coordinator` is the one region fan-out path.  The daemon
keeps one behind ``POST /analyze-batch``; ``scan --parallel``
(:func:`repro.core.scan.scan_all_loops` with ``parallel=True``) builds
a short-lived one per scan.  It turns "scan these regions of this
program" into shard tasks on a
:class:`~repro.server.transport.Transport`:

* **program hand-off** — :meth:`ensure_program` warms a program once
  in the coordinator process (or adopts the session pool's existing
  snapshot for free), packs the substrate into a shared-memory block,
  and keeps an LRU of these handles; after that *any* worker can serve
  the digest warm, which is what makes sharding free-form rather than
  program-pinned;
* **fan-out / fan-in** — :meth:`scan_iter` plans contiguous shards
  (:mod:`repro.core.pipeline.sharding`), submits them all, and yields
  per-region outcomes *as workers finish* — the streaming source of
  ``POST /analyze-batch``.  :meth:`scan_program` is the collecting
  form: outcomes reassembled in original spec order into a
  :class:`~repro.core.scan.ScanResult` whose canonical JSON is
  byte-identical to a serial scan of the same specs (the fleet
  benchmark pins this);
* **fleet observability** — per-worker utilization, shard counts and
  errors, adoption mix, queue depth; scraped into ``/metrics`` and
  folded into the shard-latency quantiles when a
  :class:`~repro.server.metrics.ServerMetrics` is attached.

A worker that dies mid-shard degrades to per-region ``error``
outcomes (the transport rebuilds its pool); a worker that finds a
region uncheckable reports *that region* failed and keeps going — the
coordinator never turns one bad region into a dropped request.
"""

import pickle
import threading
from collections import OrderedDict
from concurrent.futures import as_completed

from repro.core.cache.adopt import share_snapshot
from repro.core.cache.digest import program_digest
from repro.core.cache.serialize import snapshot_shared
from repro.core.pipeline.session import AnalysisSession
from repro.core.pipeline.sharding import auto_shard_size, plan_shards
from repro.core.regions import candidate_loops
from repro.core.scan import ScanResult
from repro.core.workers import validate_workers
from repro.errors import RegionCheckError
from repro.server.transport import make_transport
from repro.server.worker import make_task

#: Distinct programs the coordinator keeps packed for workers.
DEFAULT_MAX_PROGRAMS = 8


class ProgramHandle:
    """One fleet-ready program: pickled IR + packed substrate."""

    __slots__ = (
        "digest", "program_blob", "config_kwargs",
        "shm", "shm_name", "snapshot", "lock", "ready",
    )

    def __init__(self, digest):
        self.digest = digest
        self.program_blob = None
        self.config_kwargs = None
        self.shm = None
        self.shm_name = None
        self.snapshot = None
        self.lock = threading.Lock()
        self.ready = False

    def release(self):
        if self.shm is not None:
            try:
                self.shm.close()
                self.shm.unlink()
            except OSError:
                pass
            self.shm = None


class RegionOutcome:
    """One region's fate, streamed as shards finish.

    ``kind`` is ``"ok"`` (``report`` set) or ``"error"`` (``cause`` and
    ``worker_traceback`` set); ``index`` is the region's position in
    the request's spec list, ``region`` its spec text, ``worker`` the
    pid that ran it, ``degraded`` whether the shard's deadline forced
    the sound fallback.
    """

    __slots__ = (
        "kind", "index", "region", "report", "cause",
        "worker_traceback", "worker", "degraded",
    )

    def __init__(self, kind, index, region, report=None, cause=None,
                 worker_traceback=None, worker=None, degraded=False):
        self.kind = kind
        self.index = index
        self.region = region
        self.report = report
        self.cause = cause
        self.worker_traceback = worker_traceback
        self.worker = worker
        self.degraded = degraded


class Coordinator:
    """Shard scans over a transport; thread-safe; LRU program cache."""

    def __init__(
        self,
        workers=1,
        *,
        config=None,
        cache=None,
        transport="process",
        worker_hosts=None,
        shard_size=None,
        max_programs=DEFAULT_MAX_PROGRAMS,
        metrics=None,
    ):
        from repro.core.config import DetectorConfig

        if worker_hosts:
            # Remote fleets are sized by their host list, not --workers.
            workers = len(worker_hosts)
        validate_workers(workers, flag="--workers")
        self.config = config or DetectorConfig()
        self.cache = cache
        self.transport = make_transport(transport, workers, hosts=worker_hosts)
        self.shard_size = shard_size
        self.max_programs = max_programs
        self.metrics = metrics
        self._lock = threading.Lock()
        self._programs = OrderedDict()
        self._pending = 0
        self._counters = {
            "shards_total": 0,
            "shard_errors": 0,
            "regions_total": 0,
            "region_errors": 0,
            "programs_evicted": 0,
            "adoption_failures": 0,
        }
        self._adoptions = {"lru": 0, "shm": 0, "snapshot": 0, "cold": 0}
        self._per_worker = {}

    # -- program hand-off ----------------------------------------------------

    def ensure_program(self, program, shared_snapshot=None):
        """A fleet-ready handle for ``program``, built at most once.

        ``shared_snapshot`` lets the caller donate an already-built
        substrate snapshot (the session pool stores one per warm
        digest), skipping the coordinator's own warm scan.
        """
        digest = program_digest(program)
        handle = self._handle_for(digest)
        with handle.lock:
            if handle.ready:
                return handle
            snapshot = shared_snapshot
            if snapshot is None:
                session = AnalysisSession(program, self.config, cache=self.cache)
                session.warm()
                snapshot = snapshot_shared(session.shared)
            handle.program_blob = pickle.dumps(
                program, protocol=pickle.HIGHEST_PROTOCOL
            )
            handle.config_kwargs = self.config.describe()
            # Transports that manage their own program hand-off (the
            # remote transport packs the snapshot once and ships it to
            # workers on demand) register it here instead of having it
            # ride inside every shard task.
            self.transport.prepare_program(digest, snapshot)
            if self.transport.wants_shm:
                handle.shm, handle.shm_name = share_snapshot(snapshot)
            if handle.shm_name is None and self.transport.wants_snapshot:
                handle.snapshot = snapshot
            handle.ready = True
            return handle

    def _handle_for(self, digest):
        with self._lock:
            handle = self._programs.get(digest)
            if handle is not None:
                self._programs.move_to_end(digest)
                return handle
            handle = self._programs[digest] = ProgramHandle(digest)
            while len(self._programs) > self.max_programs:
                _, old = self._programs.popitem(last=False)
                old.release()
                self.transport.release_program(old.digest)
                self._counters["programs_evicted"] += 1
            return handle

    # -- fan-out / fan-in ----------------------------------------------------

    def scan_iter(
        self, program, specs=None, deadline_ms=None, shared_snapshot=None
    ):
        """Fan a region scan out; yield :class:`RegionOutcome` as
        workers finish (shard-completion order, index order inside a
        shard).  ``specs=None`` scans every labelled loop, matching
        :func:`~repro.core.scan.scan_all_loops`."""
        handle = self.ensure_program(program, shared_snapshot=shared_snapshot)
        if specs is None:
            specs = candidate_loops(program)
        specs = list(specs)
        if not specs:
            return
        size = self.shard_size or auto_shard_size(
            len(specs), self.transport.workers
        )
        futures = {}
        for start, shard_specs in plan_shards(specs, size):
            task = make_task(
                handle.digest,
                handle.program_blob,
                handle.config_kwargs,
                shard_specs,
                range(start, start + len(shard_specs)),
                shm_name=handle.shm_name,
                snapshot=handle.snapshot,
                deadline_ms=deadline_ms,
            )
            futures[self.transport.submit(task)] = (start, shard_specs)
        with self._lock:
            self._pending += len(futures)
            self._counters["shards_total"] += len(futures)
            self._counters["regions_total"] += len(specs)
        try:
            for future in as_completed(futures):
                start, shard_specs = futures[future]
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001 - worker crash
                    with self._lock:
                        self._counters["shard_errors"] += 1
                        self._counters["region_errors"] += len(shard_specs)
                    from repro.core.regions import region_text

                    for offset, spec in enumerate(shard_specs):
                        yield RegionOutcome(
                            "error",
                            start + offset,
                            region_text(spec),
                            cause="worker failure: %s: %s"
                            % (type(exc).__name__, exc),
                        )
                    continue
                self._record_shard(result)
                for outcome in result["outcomes"]:
                    if outcome[1] == "ok":
                        index, _, report = outcome
                        spec = specs[index]
                        from repro.core.regions import region_text

                        yield RegionOutcome(
                            "ok",
                            index,
                            region_text(spec),
                            report=report,
                            worker=result["pid"],
                            degraded=result["degraded"],
                        )
                    else:
                        index, _, region, cause, worker_tb = outcome
                        with self._lock:
                            self._counters["region_errors"] += 1
                        yield RegionOutcome(
                            "error",
                            index,
                            region,
                            cause=cause,
                            worker_traceback=worker_tb,
                            worker=result["pid"],
                            degraded=result["degraded"],
                        )
        finally:
            with self._lock:
                self._pending -= len(futures)

    def scan_program(
        self, program, specs=None, deadline_ms=None, shared_snapshot=None
    ):
        """The collecting form: a :class:`ScanResult` with entries in
        the request's spec order — canonically byte-identical to a
        serial scan of the same specs.  A region error raises
        :class:`~repro.errors.RegionCheckError` naming the region, with
        the worker traceback — what ``scan --parallel`` raises.
        """
        if specs is None:
            specs = candidate_loops(program)
        specs = list(specs)
        reports = [None] * len(specs)
        for outcome in self.scan_iter(
            program,
            specs=specs,
            deadline_ms=deadline_ms,
            shared_snapshot=shared_snapshot,
        ):
            if outcome.kind == "error":
                from repro.core.summaries import summaries_mode

                cause = outcome.cause or "worker failure"
                if outcome.worker_traceback:
                    cause += (
                        "\n--- worker traceback ---\n%s"
                        % outcome.worker_traceback
                    )
                raise RegionCheckError(
                    outcome.region,
                    cause,
                    backend="fleet",
                    substrate=self.config.substrate_key(),
                    summaries=summaries_mode(),
                )
            reports[outcome.index] = outcome.report
        return ScanResult(list(zip(specs, reports)))

    # -- observability -------------------------------------------------------

    def _record_shard(self, result):
        with self._lock:
            self._adoptions[result["adoption"]] = (
                self._adoptions.get(result["adoption"], 0) + 1
            )
            self._counters["adoption_failures"] += result.get(
                "adoption_failures", 0
            )
            stats = self._per_worker.setdefault(
                result["pid"], {"shards": 0, "busy_seconds": 0.0}
            )
            stats["shards"] += 1
            stats["busy_seconds"] += result["busy_seconds"]
        if self.metrics is not None:
            self.metrics.observe_latency("shard", result["busy_seconds"])

    def fleet_stats(self):
        """A JSON-ready fleet snapshot for ``/metrics``."""
        with self._lock:
            counters = dict(self._counters)
            adoptions = dict(self._adoptions)
            per_worker = {
                str(pid): {
                    "shards": stats["shards"],
                    "busy_seconds": round(stats["busy_seconds"], 6),
                }
                for pid, stats in sorted(self._per_worker.items())
            }
            pending = self._pending
            programs = len(self._programs)
        snapshot = {
            "workers": self.transport.workers,
            "transport": self.transport.kind,
            "queue_depth": pending,
            "programs_cached": programs,
            "adoptions": adoptions,
            "per_worker": per_worker,
        }
        snapshot.update(counters)
        # Transport-level robustness counters (the remote transport
        # reports reconnects/requeues/retry exhaustions/liveness); the
        # numeric entries flow into the Prometheus fleet section too.
        snapshot.update(self.transport.stats())
        return snapshot

    def close(self):
        """Tear the fleet down: transport first, then shm segments."""
        self.transport.close()
        with self._lock:
            handles = list(self._programs.values())
            self._programs.clear()
        for handle in handles:
            handle.release()
            self.transport.release_program(handle.digest)

    def __repr__(self):
        with self._lock:
            return "Coordinator(%d workers via %s, %d programs)" % (
                self.transport.workers,
                self.transport.kind,
                len(self._programs),
            )
