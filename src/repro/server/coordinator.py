"""The fleet coordinator: shard region scans across a worker fleet.

A :class:`Coordinator` is the one region fan-out path: the daemon keeps
one behind ``POST /analyze-batch``, next to its
:class:`~repro.server.pool.SessionPool`.  It turns "scan these regions
of this program" into shard tasks on a
:class:`~repro.server.remote.RemoteTransport`, whose workers are forked
locally (``workers=N``) or dialed on other hosts (``worker_hosts``):

* **program hand-off** — the session pool fills the program's entry
  once (:meth:`~repro.server.pool.SessionPool.handoff`): the pickled
  program next to its substrate bytes.  Every shard task carries that
  hand-off, so *any* worker can serve the digest warm, which is what
  makes sharding free-form rather than program-pinned;
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

A worker that dies mid-shard costs a requeue onto a survivor (the
transport re-forks a local one); a shard that exhausts its retry budget
degrades to per-region ``error`` outcomes, and a worker that finds a
region uncheckable reports *that region* failed and keeps going — the
coordinator never turns one bad region into a dropped request.
"""

import pickle
import threading
from concurrent.futures import as_completed

from repro.core.pipeline.sharding import auto_shard_size, plan_shards
from repro.core.regions import candidate_loops, region_text
from repro.core.scan import ScanResult
from repro.core.workers import validate_workers
from repro.errors import RegionCheckError
from repro.server.pool import SessionPool
from repro.server.remote import RemoteTransport


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
    """Shard scans over a transport; thread-safe.

    Programs' warm state lives in ``pool``, a
    :class:`~repro.server.pool.SessionPool`: its config is the one the
    workers check under, its artifact cache warms new programs.
    Without one the coordinator keeps a private default pool and
    closes it with itself.  The coordinator builds a transport that
    forks ``workers`` local workers, or dials ``worker_hosts`` when
    given any; ``transport`` passes a ready
    :class:`~repro.server.remote.RemoteTransport` instead.
    """

    def __init__(
        self,
        workers=1,
        *,
        pool=None,
        transport=None,
        worker_hosts=None,
        shard_size=None,
        metrics=None,
    ):
        if worker_hosts:
            # Remote fleets are sized by their host list, not --workers.
            workers = len(worker_hosts)
        validate_workers(workers)
        self._owns_pool = pool is None
        self.pool = SessionPool() if pool is None else pool
        if transport is None:
            transport = RemoteTransport(worker_hosts, workers=workers)
        self.transport = transport
        self.shard_size = shard_size
        self.metrics = metrics
        self._lock = threading.Lock()
        self._pending = 0
        self._counters = {
            "shards_total": 0,
            "shard_errors": 0,
            "regions_total": 0,
            "region_errors": 0,
            "adoption_failures": 0,
        }
        self._adoptions = {"lru": 0, "wire": 0, "cold": 0}
        self._per_worker = {}

    # -- fan-out / fan-in ----------------------------------------------------

    def scan_iter(self, program, specs=None, deadline_ms=None, digest=None):
        """Fan a region scan out; return an iterator of
        :class:`RegionOutcome` in the order workers finish
        (shard-completion order, index order inside a shard).
        ``specs=None`` scans every labelled loop, matching
        :func:`~repro.core.scan.scan_all_loops`; ``digest`` spares a
        second hash when the caller has one.

        The hand-off happens before this returns, so a program that
        cannot be analysed at all raises its
        :class:`~repro.errors.ReproError` here, not mid-iteration."""
        entry = self.pool.handoff(program, digest)
        if specs is None:
            specs = candidate_loops(program)
        return self._outcomes(entry, list(specs), deadline_ms)

    def _outcomes(self, entry, specs, deadline_ms):
        if not specs:
            return
        size = self.shard_size or auto_shard_size(
            len(specs), self.transport.workers
        )
        config_kwargs = self.pool.config.describe()
        futures = {}
        for start, shard_specs in plan_shards(specs, size):
            task = {
                "digest": entry.digest,
                "program_blob": entry.program_blob,
                "config_kwargs": config_kwargs,
                "specs_blob": pickle.dumps(
                    shard_specs, protocol=pickle.HIGHEST_PROTOCOL
                ),
                "indices": list(range(start, start + len(shard_specs))),
                "substrate": entry.substrate,
                "deadline_ms": deadline_ms,
            }
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
                        yield RegionOutcome(
                            "ok",
                            index,
                            region_text(specs[index]),
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

    def scan_program(self, program, specs=None, deadline_ms=None):
        """The collecting form: a :class:`ScanResult` with entries in
        the request's spec order — canonically byte-identical to a
        serial scan of the same specs.  A region error raises
        :class:`~repro.errors.RegionCheckError` naming the region, with
        the worker traceback.
        """
        if specs is None:
            specs = candidate_loops(program)
        specs = list(specs)
        reports = [None] * len(specs)
        for outcome in self.scan_iter(
            program, specs=specs, deadline_ms=deadline_ms
        ):
            if outcome.kind == "error":
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
                    substrate=self.pool.config.substrate_key(),
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
        snapshot = {
            "workers": self.transport.workers,
            "transport": self.transport.kind,
            "queue_depth": pending,
            "adoptions": adoptions,
            "per_worker": per_worker,
        }
        snapshot.update(counters)
        # The transport's robustness counters (reconnects, requeues,
        # retry exhaustions, liveness); the numeric entries flow into
        # the Prometheus fleet section too.
        snapshot.update(self.transport.stats())
        return snapshot

    def close(self):
        """Tear the fleet down: the transport first, which kills and
        reaps its local workers, then a private pool (a shared pool's
        owner closes it)."""
        self.transport.close()
        if self._owns_pool:
            self.pool.close()

    def __repr__(self):
        return "Coordinator(%d workers via %s, %r)" % (
            self.transport.workers,
            self.transport.kind,
            self.pool,
        )
