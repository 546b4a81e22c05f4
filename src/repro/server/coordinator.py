"""The fleet coordinator: run never-seen programs on a worker fleet.

A :class:`Coordinator` is the daemon's fan-out path: ``POST
/analyze-batch`` keeps one when the daemon runs with ``serve --workers
N`` or ``--worker-hosts``.  A batch entry whose text the session pool
has never seen becomes one *program task* on a
:class:`~repro.server.remote.RemoteTransport`, whose workers are forked
locally (``workers=N``) or dialed on other hosts (``worker_hosts``):

* **the program is the unit** — LeakChecker checks every region against
  one whole-program substrate, so parse, call graph and points-to, the
  costly layers, are what is worth spreading.  A task carries the
  source text, and the worker runs the whole program (see
  :mod:`repro.server.remote_worker`); the pool, not the fleet, answers
  repeats;
* **fan-out / fan-in** — :meth:`submit` queues one task and returns a
  future of the worker's plain-data answer; a batch submits all of its
  unseen entries before it waits for the first.  :meth:`scan_program`
  is the collecting form;
* **fleet observability** — per-worker utilization, task and region
  counts and errors, queue depth; scraped into ``/metrics`` and folded
  into the ``shard`` latency quantiles when a
  :class:`~repro.server.metrics.ServerMetrics` is attached.  A *shard*
  in those names is one program task.

A worker that dies mid-task costs a requeue onto a survivor (the
transport re-forks a local one); a task that exhausts its retry budget
fails its future, and a worker that finds a region uncheckable reports
*that region* failed and keeps going.
"""

import threading
from concurrent.futures import Future

from repro.core.config import DetectorConfig
from repro.core.workers import validate_workers
from repro.errors import (
    AnalysisError,
    ParseError,
    RegionCheckError,
    ResolutionError,
)
from repro.server.remote import RemoteTransport

#: The exception a worker's typed program error raises in the caller.
_PROGRAM_ERRORS = {"parse": ParseError, "resolve": ResolutionError}


class Coordinator:
    """Program tasks over a transport; thread-safe.

    The coordinator builds a transport that forks ``workers`` local
    workers, or dials ``worker_hosts`` when given any; ``transport``
    passes a ready :class:`~repro.server.remote.RemoteTransport`
    instead.
    """

    def __init__(
        self,
        workers=1,
        *,
        transport=None,
        worker_hosts=None,
        metrics=None,
    ):
        if worker_hosts:
            # Remote fleets are sized by their host list, not --workers.
            workers = len(worker_hosts)
        validate_workers(workers)
        if transport is None:
            transport = RemoteTransport(worker_hosts, workers=workers)
        self.transport = transport
        self.metrics = metrics
        self._lock = threading.Lock()
        self._pending = 0
        self._counters = {
            "shards_total": 0,
            "shard_errors": 0,
            "regions_total": 0,
            "region_errors": 0,
        }
        self._per_worker = {}

    def submit(self, source, javalib=False, regions=None, config=None,
               deadline_ms=None):
        """Queue ``source`` as one program task; returns a ``Future`` of
        the worker's answer.

        ``regions`` is ``None`` (every labelled loop) or a list of region
        texts, checked under ``config`` (default
        :class:`~repro.core.config.DetectorConfig`).  The answer is a
        dict: the program ``digest``, ``degraded``, and ``outcomes`` —
        per region in order, ``{"region", "report"}`` with the report's
        ``as_dict()``, or ``{"region", "error", "traceback"}`` — or, for
        a program that did not parse, resolve or analyse, ``error``:
        ``{"kind", "message"}``.  A task whose retry budget ran out
        fails the future with
        :class:`~repro.server.remote.RemoteShardError`.
        """
        header = {
            "type": "program",
            "javalib": javalib,
            "regions": regions,
            "config": (config or DetectorConfig()).describe(),
            "deadline_ms": deadline_ms,
        }
        answer = Future()
        with self._lock:
            self._pending += 1
            self._counters["shards_total"] += 1
        task = self.transport.submit(
            header, [source.encode("utf-8", "surrogatepass")]
        )
        task.add_done_callback(lambda done: self._finish(done, answer))
        return answer

    def scan_program(self, source, regions=None, *, javalib=False,
                     config=None, deadline_ms=None):
        """The collecting form of :meth:`submit`: ``[(region text, report
        dict), ...]`` in region order.  A program that does not parse,
        resolve or analyse raises the matching
        :class:`~repro.errors.ReproError`; a region whose check failed
        raises :class:`~repro.errors.RegionCheckError` naming it, with
        the worker traceback.
        """
        config = config or DetectorConfig()
        answer = self.submit(
            source, javalib, regions, config, deadline_ms
        ).result()
        if "error" in answer:
            error = answer["error"]
            raise _PROGRAM_ERRORS.get(error.get("kind"), AnalysisError)(
                error["message"]
            )
        reports = []
        for outcome in answer["outcomes"]:
            if "error" in outcome:
                raise RegionCheckError(
                    outcome["region"],
                    "%s\n--- worker traceback ---\n%s"
                    % (outcome["error"], outcome.get("traceback")),
                    backend="fleet",
                    substrate=config.substrate_key(),
                )
            reports.append((outcome["region"], outcome["report"]))
        return reports

    def _finish(self, task, answer):
        """Fold a finished task into the fleet counters, then hand its
        answer on, so a caller that has it sees the counters too.  A
        reply that is not an answer of :meth:`submit`'s shape fails the
        future like a lost task."""
        error = task.exception()
        reply = None if error is not None else task.result()
        if error is None and not _well_formed(reply):
            error = ValueError("worker %s sent a malformed answer"
                               % reply.get("pid"))
        with self._lock:
            self._pending -= 1
            if error is not None:
                self._counters["shard_errors"] += 1
            else:
                outcomes = reply.get("outcomes", ())
                self._counters["regions_total"] += len(outcomes)
                self._counters["region_errors"] += sum(
                    1 for outcome in outcomes if "error" in outcome
                )
                stats = self._per_worker.setdefault(
                    str(reply.get("pid")), {"shards": 0, "busy_seconds": 0.0}
                )
                stats["shards"] += 1
                stats["busy_seconds"] += reply["busy_seconds"]
        if error is not None:
            answer.set_exception(error)
            return
        if self.metrics is not None:
            self.metrics.observe_latency("shard", reply["busy_seconds"])
        answer.set_result(reply)

    def fleet_stats(self):
        """A JSON-ready fleet snapshot for ``/metrics``."""
        with self._lock:
            counters = dict(self._counters)
            per_worker = {
                pid: {
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
            "per_worker": per_worker,
        }
        snapshot.update(counters)
        # The transport's robustness counters (reconnects, requeues,
        # retry exhaustions, liveness); the numeric entries flow into
        # the Prometheus fleet section too.
        snapshot.update(self.transport.stats())
        return snapshot

    def close(self):
        """Tear the fleet down: the transport kills and reaps its local
        workers."""
        self.transport.close()

    def __repr__(self):
        return "Coordinator(%d workers via %s)" % (
            self.transport.workers,
            self.transport.kind,
        )


def _well_formed(reply):
    """Whether a worker's ``result`` header has :meth:`Coordinator.
    submit`'s answer shape."""
    if not isinstance(reply.get("busy_seconds"), (int, float)):
        return False
    if "error" in reply:
        error = reply["error"]
        return isinstance(error, dict) and isinstance(error.get("message"), str)
    outcomes = reply.get("outcomes")
    return (
        isinstance(reply.get("digest"), str)
        and isinstance(reply.get("degraded"), bool)
        and isinstance(outcomes, list)
        and all(_well_formed_outcome(outcome) for outcome in outcomes)
    )


def _well_formed_outcome(outcome):
    if not isinstance(outcome, dict) or not isinstance(
        outcome.get("region"), str
    ):
        return False
    if "error" in outcome:
        return isinstance(outcome["error"], str)
    report = outcome.get("report")
    return isinstance(report, dict) and isinstance(
        report.get("findings"), list
    ) and all(
        isinstance(finding, dict) and isinstance(finding.get("site"), str)
        for finding in report["findings"]
    )
