"""The fleet transport: program tasks to workers over a wire protocol.

A :class:`RemoteTransport` drives every fleet worker the same way, over
a small, versioned, length-prefixed wire protocol.  Its *links* either
fork local workers, one per socket pair (``serve --workers N``), or dial
``repro worker`` processes on other hosts (``serve --worker-hosts``; the
"two-host" CI harness is two worker processes on localhost).  Either
way the far end is a
:class:`~repro.server.remote_worker.RemoteWorkerServer`.

Wire protocol (version :data:`WIRE_VERSION`)
--------------------------------------------

Every message is one *frame*::

    [4-byte magic "RFW1"] [u32 header length] [JSON header] [blobs...]

The header is UTF-8 JSON carrying ``wire`` (the protocol version,
checked on receipt exactly like ``api_version`` in
:mod:`repro.server.schema`), ``type``, and the message fields; binary
payloads travel as opaque blobs whose lengths the header declares in
``blobs``.  Every field is plain JSON or text, so a frame decodes
without executing anything.  Messages are strict request/response on
one coordinator-owned connection per worker:

* ``hello`` -> ``welcome`` — handshake; the worker announces its pid
  and wire version, and a version mismatch fails the connection before
  any work is exchanged.
* ``ping`` -> ``pong`` — heartbeat liveness for idle links.
* ``program`` -> ``result`` | ``error`` — run one program task.  The
  frame is the whole task: ``javalib``, the region texts, the detector
  configuration and the deadline in the header, and one blob, the
  source text as UTF-8.  The ``result`` header carries the answer as
  plain JSON (:mod:`repro.server.remote_worker`), so any worker serves
  any program in one round trip.

Robustness
----------

The transport owns the fleet's failure handling so the coordinator
never has to care which worker ran a task:

* **liveness** — a heartbeat thread pings idle links every
  ``heartbeat_interval`` seconds; a failed ping (or any socket error
  mid-task) marks the link down and its serve thread reconnects with
  backoff.  A local link's reconnect forks a fresh worker: failing the
  link killed and reaped the old one.
* **requeue** — a task in flight on a dead link goes back on the
  shared queue, where any surviving worker picks it up; results are
  byte-identical wherever the task lands because every worker runs
  the same code and keeps no state between tasks.
* **retry budgets** — each task may be requeued at most
  ``retry_budget`` times; exhaustion surfaces as
  :class:`RemoteShardError` on the task's future, which the batch
  endpoint turns into one ``error`` record for that program — an
  ``/analyze-batch`` stream stays alive, it never turns into a failed
  request.
* **observability** — reconnects, requeues, retry exhaustions,
  heartbeats and live-worker count are reported through
  :meth:`RemoteTransport.stats` into the fleet's ``/metrics`` section
  (``leakchecker_fleet_remote_*`` in the Prometheus rendering).
"""

import itertools
import json
import os
import queue
import signal
import socket
import struct
import threading
import time
from concurrent.futures import Future

#: The wire protocol version; both ends check it at handshake and on
#: every frame, so a skewed deployment fails loudly instead of
#: misinterpreting payloads.
WIRE_VERSION = 5

_MAGIC = b"RFW1"
_LEN = struct.Struct("<I")

#: Sanity bounds: a frame claiming more than this is garbage (or a
#: port scanner), not a peer — fail the connection instead of
#: allocating.
MAX_HEADER_BYTES = 16 * 1024 * 1024
MAX_BLOB_BYTES = 2 * 1024 * 1024 * 1024

DEFAULT_RETRY_BUDGET = 2
DEFAULT_HEARTBEAT_INTERVAL = 5.0
DEFAULT_CONNECT_TIMEOUT = 5.0
DEFAULT_SHARD_TIMEOUT = 600.0
DEFAULT_RECONNECT_BACKOFF = 0.25


class WireError(Exception):
    """A malformed or version-skewed frame."""


class WireEOF(WireError):
    """The peer closed the connection at a frame boundary."""


class RemoteShardError(Exception):
    """A task failed on every attempt its retry budget allowed."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def send_frame(sock, header, blobs=()):
    """Send one frame: ``header`` (a JSON-able dict) plus raw ``blobs``.

    The wire version and blob lengths are stamped here so callers only
    describe the message; everything is concatenated into a single
    ``sendall`` to keep a frame atomic from the sender's side.
    """
    header = dict(header)
    header["wire"] = WIRE_VERSION
    header["blobs"] = [len(blob) for blob in blobs]
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_MAGIC, _LEN.pack(len(encoded)), encoded]
    parts.extend(bytes(blob) for blob in blobs)
    sock.sendall(b"".join(parts))


def recv_frame(sock):
    """Receive one frame; returns ``(header, blobs)``.

    Raises :class:`WireEOF` on a clean close between frames,
    :class:`WireError` on garbage (bad magic, oversized declaration, a
    header that does not decode, version mismatch), and
    :class:`ConnectionError` on a mid-frame close.
    """
    first = sock.recv(len(_MAGIC))
    if not first:
        raise WireEOF("connection closed")
    magic = _recv_exact(sock, len(_MAGIC) - len(first), prefix=first)
    if magic != _MAGIC:
        raise WireError("bad frame magic %r" % magic)
    (header_len,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if header_len > MAX_HEADER_BYTES:
        raise WireError("frame header of %d bytes exceeds limit" % header_len)
    try:
        header = json.loads(_recv_exact(sock, header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, nesting deeper than the decoder recurses.
        raise WireError("frame header is not valid JSON: %s" % exc)
    if not isinstance(header, dict):
        raise WireError("frame header must be a JSON object")
    if header.get("wire") != WIRE_VERSION:
        raise WireError(
            "wire version mismatch: peer speaks %r, this end %d"
            % (header.get("wire"), WIRE_VERSION)
        )
    lengths = header.get("blobs", [])
    if not isinstance(lengths, list) or not all(
        isinstance(n, int) and 0 <= n <= MAX_BLOB_BYTES for n in lengths
    ):
        raise WireError("frame declares invalid blob lengths %r" % lengths)
    blobs = [_recv_exact(sock, length) for length in lengths]
    return header, blobs


def _recv_exact(sock, count, prefix=b""):
    chunks = [prefix] if prefix else []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_hosts(spec):
    """``host:port`` endpoints from a comma-separated string (or an
    iterable of strings / ``(host, port)`` pairs)."""
    if isinstance(spec, str):
        spec = [part for part in spec.split(",") if part.strip()]
    endpoints = []
    for entry in spec:
        if isinstance(entry, (tuple, list)):
            host, port = entry
        else:
            host, _, port = str(entry).strip().rpartition(":")
            if not host:
                raise ValueError(
                    "worker host %r is not host:port" % (entry,)
                )
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ValueError("worker host %r has a non-integer port" % (entry,))
        endpoints.append((host, port))
    if not endpoints:
        raise ValueError("at least one worker host:port is required")
    return endpoints


# ---------------------------------------------------------------------------
# the transport
# ---------------------------------------------------------------------------


class _LinkFailure(Exception):
    """The connection to a worker failed; the task must requeue."""


class _TaskRejected(Exception):
    """The worker answered an error frame; the link itself is fine."""


class _Link:
    """One worker endpoint: its socket, liveness flag, and request lock."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.sock = None
        self.pid = None
        self.connected = False
        self.ever_connected = False
        self.last_io = 0.0
        self.lock = threading.Lock()

    @property
    def address(self):
        return "%s:%d" % (self.host, self.port)

    def _open(self, timeout):
        return socket.create_connection((self.host, self.port), timeout=timeout)

    def connect(self, timeout):
        """Open and handshake; caller holds :attr:`lock`."""
        self.sock = self._open(timeout)
        try:
            reply, _ = self.request({"type": "hello"}, (), timeout)
        except _LinkFailure:
            self.fail()
            raise
        if reply.get("type") != "welcome":
            self.fail()
            raise _LinkFailure(
                "worker %s answered %r to hello" % (self.address, reply)
            )
        self.pid = reply.get("pid")
        self.connected = True

    def request(self, header, blobs, timeout):
        """One request/response exchange; caller holds :attr:`lock`.

        Any socket or framing problem raises :class:`_LinkFailure` —
        after an error the connection state is unknown (a reply may be
        half-read), so the link must be failed and redialed.
        """
        if self.sock is None:
            raise _LinkFailure("worker %s is not connected" % self.address)
        try:
            self.sock.settimeout(timeout)
            send_frame(self.sock, header, blobs)
            reply, reply_blobs = recv_frame(self.sock)
        except (OSError, WireError) as exc:
            raise _LinkFailure(
                "worker %s: %s: %s" % (self.address, type(exc).__name__, exc)
            )
        self.last_io = time.monotonic()
        return reply, reply_blobs

    def fail(self):
        """Mark the link down and drop the socket."""
        self.connected = False
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def close(self):
        self.fail()


class _LocalLink(_Link):
    """A worker this process forks (:func:`~repro.server.remote_worker.
    fork_worker`): each connect forks a fresh one on a new socket pair,
    and failing the link kills and reaps it, so the transport's
    reconnect loop is also the respawn loop."""

    def __init__(self, index):
        super().__init__("local", index)
        self._child = None

    def _open(self, timeout):
        from repro.server.remote_worker import fork_worker

        self._child, sock = fork_worker()
        return sock

    def fail(self):
        super().fail()
        child, self._child = self._child, None
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


class _Pending:
    __slots__ = ("header", "blobs", "future", "failures")

    def __init__(self, header, blobs, future):
        self.header = header
        self.blobs = blobs
        self.future = future
        self.failures = 0


class RemoteTransport:
    """The fleet's one transport: tasks to workers over the wire.

    ``hosts`` names ``repro worker`` endpoints to dial; without it, the
    transport forks ``workers`` local workers.  One serve thread per
    worker pulls tasks from a shared queue, so a dead worker's backlog
    drains onto the survivors automatically; a heartbeat thread keeps
    idle links honest.  A task is one request frame, so a first,
    requeued or re-forked worker serves it in one round trip.
    """

    def __init__(
        self,
        hosts=None,
        *,
        workers=1,
        retry_budget=DEFAULT_RETRY_BUDGET,
        heartbeat_interval=DEFAULT_HEARTBEAT_INTERVAL,
        connect_timeout=DEFAULT_CONNECT_TIMEOUT,
        shard_timeout=DEFAULT_SHARD_TIMEOUT,
        reconnect_backoff=DEFAULT_RECONNECT_BACKOFF,
    ):
        self.retry_budget = max(0, retry_budget)
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        self.shard_timeout = shard_timeout
        self.reconnect_backoff = reconnect_backoff
        if hosts:
            self.kind = "remote"
            self._links = [_Link(*address) for address in parse_hosts(hosts)]
        else:
            self.kind = "local"
            self._links = [_LocalLink(n) for n in range(max(1, workers))]
        self.workers = len(self._links)
        self._queue = queue.Queue()
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._counters = {
            "reconnects": 0,
            "connect_failures": 0,
            "requeues": 0,
            "retry_exhaustions": 0,
            "heartbeats": 0,
            "heartbeat_failures": 0,
        }
        self._closed = threading.Event()
        if not hosts:
            # Fork before this transport starts a thread of its own (in
            # the daemon: while the process is still single-threaded).
            self.warm()
        self._threads = [
            threading.Thread(
                target=self._serve_link,
                args=(link,),
                name="repro-remote-%s" % link.address,
                daemon=True,
            )
            for link in self._links
        ]
        for thread in self._threads:
            thread.start()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="repro-remote-heartbeat",
            daemon=True,
        )
        self._heartbeat.start()

    # -- interface -----------------------------------------------------------

    def submit(self, header, blobs=()):
        """Queue one task frame; returns a ``Future`` of the worker's
        ``result`` header."""
        future = Future()
        if self._closed.is_set():
            future.set_exception(RemoteShardError("transport closed"))
            return future
        self._queue.put(_Pending(header, list(blobs), future))
        return future

    def warm(self):
        """Connect every link not yet connected, eagerly — the daemon
        calls this before it binds, so connection problems show up when
        it starts, not mid-request.  (Local links fork their workers in
        the constructor already.)  Workers that are down stay owned by
        their serve threads' reconnect loops."""
        for link in self._links:
            self._try_connect(link)

    def stats(self):
        with self._lock:
            counters = dict(self._counters)
        snapshot = {
            "remote_workers_alive": sum(
                1 for link in self._links if link.connected
            ),
            "remote_hosts": [link.address for link in self._links],
        }
        for name, value in counters.items():
            snapshot["remote_%s" % name] = value
        return snapshot

    def close(self):
        """Stop serving; every local worker is killed and reaped, and a
        task still queued fails with :class:`RemoteShardError`."""
        self._closed.set()
        for _ in self._threads:
            self._queue.put(None)  # wakes a serve thread waiting for work
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._heartbeat.join(timeout=2.0)
        for link in self._links:
            with link.lock:
                link.close()
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            if pending is not None:
                pending.future.set_exception(
                    RemoteShardError("transport closed with the task queued")
                )

    # -- dispatch ------------------------------------------------------------

    def _serve_link(self, link):
        while not self._closed.is_set():
            if not link.connected:
                if not self._try_connect(link):
                    self._fail_one_orphan()
                    self._closed.wait(self.reconnect_backoff)
                    continue
            try:
                pending = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if self._closed.is_set():
                self._queue.put(pending)  # close() fails it with the rest
                return
            try:
                result = self._execute(link, pending)
            except _LinkFailure as exc:
                with link.lock:
                    link.fail()
                self._requeue(pending, exc)
                continue
            except _TaskRejected as exc:
                self._requeue(pending, exc)
                continue
            except Exception as exc:  # noqa: BLE001 - surface, don't hang
                pending.future.set_exception(exc)
                continue
            pending.future.set_result(result)

    def _execute(self, link, pending):
        """Run one task on ``link``: one request frame, one reply."""
        with link.lock:
            reply, _ = link.request(
                pending.header, pending.blobs, self.shard_timeout
            )
        if reply.get("type") == "error":
            raise _TaskRejected(
                "worker %s: %s" % (link.address, reply.get("message"))
            )
        if reply.get("type") != "result":
            raise _LinkFailure(
                "worker %s answered %r to a task"
                % (link.address, reply.get("type"))
            )
        return reply

    def _requeue(self, pending, exc):
        """A failed attempt: back on the queue, or budget exhausted."""
        pending.failures += 1
        if pending.failures <= self.retry_budget:
            with self._lock:
                self._counters["requeues"] += 1
            self._queue.put(pending)
            return
        with self._lock:
            self._counters["retry_exhaustions"] += 1
        pending.future.set_exception(
            RemoteShardError(
                "task failed after %d attempt(s), retry budget %d "
                "exhausted (last failure: %s)"
                % (pending.failures, self.retry_budget, exc)
            )
        )

    def _fail_one_orphan(self):
        """With *every* worker down, queued tasks must not hang
        forever: each failed reconnect attempt burns one retry from one
        queued task, so budgets exhaust and callers get error
        outcomes instead of a deadlock."""
        if any(link.connected for link in self._links):
            return
        try:
            pending = self._queue.get_nowait()
        except queue.Empty:
            return
        if pending is None:  # close() is waking the serve threads
            self._queue.put(pending)
            return
        self._requeue(
            pending, RemoteShardError("no live workers in the fleet")
        )

    def _try_connect(self, link):
        with link.lock:
            if link.connected:
                return True
            was_connected = link.ever_connected
            try:
                link.connect(self.connect_timeout)
            except (OSError, _LinkFailure):
                with self._lock:
                    self._counters["connect_failures"] += 1
                return False
            link.ever_connected = True
        if was_connected:
            with self._lock:
                self._counters["reconnects"] += 1
        return True

    # -- liveness ------------------------------------------------------------

    def _heartbeat_loop(self):
        while not self._closed.wait(self.heartbeat_interval):
            for link in self._links:
                if self._closed.is_set():
                    return
                self._heartbeat_one(link)

    def _heartbeat_one(self, link):
        if not link.connected:
            return
        if time.monotonic() - link.last_io < self.heartbeat_interval:
            return
        # A link busy with a task holds its lock — that's proof of
        # life already; never queue a ping behind real work.
        if not link.lock.acquire(blocking=False):
            return
        try:
            if not link.connected:
                return
            seq = next(self._seq)
            with self._lock:
                self._counters["heartbeats"] += 1
            try:
                reply, _ = link.request(
                    {"type": "ping", "seq": seq}, (), self.connect_timeout
                )
                if reply.get("type") != "pong" or reply.get("seq") != seq:
                    raise _LinkFailure(
                        "worker %s answered %r to ping %d"
                        % (link.address, reply, seq)
                    )
            except _LinkFailure:
                with self._lock:
                    self._counters["heartbeat_failures"] += 1
                link.fail()
        finally:
            link.lock.release()

    def __repr__(self):
        return "RemoteTransport(%s)" % ", ".join(
            "%s%s" % (link.address, "" if link.connected else " (down)")
            for link in self._links
        )
