"""The fleet's transport seam: how shard tasks reach workers.

The coordinator plans shards; a :class:`Transport` executes them.  The
interface is deliberately tiny — submit a plain-data task, get a
:class:`~concurrent.futures.Future` of a plain-data result — because
that is the whole contract a multi-host backend would need to honor:
tasks and results are already picklable, program state already travels
by digest + snapshot, and ordering is already reconstructed from
indices on the coordinator side.  Three transports exist:

* :class:`LocalProcessTransport` — the production default and the
  engine of ``scan --parallel``: a ``ProcessPoolExecutor`` whose
  workers keep their adopted-session LRUs warm for as long as the pool
  lives (across requests in the daemon, one scan for ``scan
  --parallel``), shard hand-off via shared-memory snapshots.  A broken
  pool (a worker killed mid-task) is rebuilt once per incident rather
  than taking the daemon down.
* :class:`InlineTransport` — same code path, zero processes: shards
  run synchronously in the caller.  This is the deterministic
  harness for tests and the ``workers``-without-multiprocessing
  fallback; because it executes :func:`repro.server.worker.run_shard`
  verbatim, everything from adoption accounting to the failpoint
  behaves identically to the process fleet.
* :class:`~repro.server.remote.RemoteTransport` (``kind="remote"``,
  built by :func:`make_transport` from a ``host:port`` list) — workers
  on other hosts reached over the length-prefixed JSON+blob wire
  protocol of :mod:`repro.server.remote`, with heartbeat liveness,
  automatic shard requeue onto surviving workers, and per-shard retry
  budgets.
"""

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.server.worker import run_shard

TRANSPORTS = ("process", "inline", "remote")


class Transport:
    """Submit shard tasks somewhere; the seam a multi-host fleet
    implements.  ``wants_shm`` tells the coordinator whether packing
    snapshots into shared memory is worth it for this transport;
    ``wants_snapshot`` whether the plain snapshot dict should ride
    inside every shard task when shared memory is unavailable (the
    remote transport answers no to both — it hands programs off through
    :meth:`prepare_program` and its own wire/cache protocol instead)."""

    kind = "abstract"
    wants_shm = False
    wants_snapshot = True
    workers = 1

    def submit(self, task):  # pragma: no cover - interface
        raise NotImplementedError

    def prepare_program(self, digest, snapshot):
        """A program became fleet-ready; transports that manage their
        own hand-off (remote) register the snapshot here."""

    def release_program(self, digest):
        """The coordinator evicted ``digest``; drop any hand-off state."""

    def stats(self):
        """Transport-level counters folded into the fleet snapshot."""
        return {}

    def warm(self):
        pass

    def close(self):
        pass


class InlineTransport(Transport):
    """Run shards synchronously in the calling process."""

    kind = "inline"
    wants_shm = False

    def __init__(self, workers=1):
        self.workers = max(1, workers)

    def submit(self, task):
        future = Future()
        try:
            future.set_result(run_shard(task))
        except Exception as exc:  # noqa: BLE001 - surfaces via the future
            future.set_exception(exc)
        return future


class LocalProcessTransport(Transport):
    """A persistent local process pool; the production fleet backend."""

    kind = "process"
    wants_shm = True

    def __init__(self, workers):
        self.workers = max(1, workers)
        self._lock = threading.Lock()
        self._pool = None
        self.rebuilds = 0

    def _make_pool(self):
        return ProcessPoolExecutor(max_workers=self.workers)

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def submit(self, task):
        with self._lock:
            pool = self._ensure_pool()
        try:
            return pool.submit(run_shard, task)
        except BrokenProcessPool:
            # A worker died hard (OOM kill, segfault).  Replace the
            # pool and retry once; a second break surfaces to the
            # coordinator, which degrades the shard to error
            # outcomes instead of dropping the request.
            return self._replace_broken(pool).submit(run_shard, task)

    def _replace_broken(self, broken):
        """Swap a broken pool for a fresh one, exactly once per incident.

        Concurrent submits can all observe the same broken pool; only
        the first to get here may tear it down and bump ``rebuilds`` —
        the identity re-check sends everyone else straight to the
        replacement that thread built (or to a newer one, if the
        replacement broke too and a third thread already swapped it).
        """
        with self._lock:
            if self._pool is broken:
                broken.shutdown(wait=False, cancel_futures=True)
                self._pool = None
                self.rebuilds += 1
            return self._ensure_pool()

    def warm(self):
        """Spawn every worker process up-front.

        The executor otherwise forks lazily at first submit — inside
        the daemon that means mid-request, where the children would
        inherit the accepted connection's descriptor and keep the
        client waiting for EOF long after the response ended.  One
        sleeping task per worker forces the full spawn (the executor
        only reuses a process once it has finished a task), so the
        daemon can fork before it binds.
        """
        with self._lock:
            pool = self._ensure_pool()
            futures = [
                pool.submit(time.sleep, 0.05) for _ in range(self.workers)
            ]
        for future in futures:
            future.result()

    def close(self):
        # Wait for the workers: a manager thread still running at
        # interpreter exit can race concurrent.futures' exit hook into
        # printing "OSError: [Errno 9] Bad file descriptor".
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def make_transport(kind, workers, hosts=None):
    """Build a transport by name (the ``serve`` wiring).

    ``hosts`` is the ``host:port`` worker list the remote transport
    requires (``--worker-hosts``); the local transports ignore it.
    """
    if isinstance(kind, Transport):
        return kind
    if kind == "process":
        return LocalProcessTransport(workers)
    if kind == "inline":
        return InlineTransport(workers)
    if kind == "remote":
        if not hosts:
            raise ValueError(
                "the remote fleet transport needs --worker-hosts "
                "(a host:port per worker)"
            )
        from repro.server.remote import RemoteTransport

        return RemoteTransport(hosts)
    raise ValueError(
        "unknown fleet transport %r (choose from %s)"
        % (kind, ", ".join(TRANSPORTS))
    )
