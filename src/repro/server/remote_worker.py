"""The fleet worker: execute shards behind the fleet wire.

A :class:`RemoteWorkerServer` is the far end of every
:class:`repro.server.remote.RemoteTransport` link.  It speaks the
versioned frame protocol of :mod:`repro.server.remote` on each
connection it serves: accepted on its TCP listener (``repro worker``,
dialed by ``serve --worker-hosts``), or one end of a socket pair in a
worker the transport forked for ``serve --workers N``
(:func:`fork_worker`).  One connection loop and one shard runner serve
both, which is what makes fleet results byte-identical no matter where
a shard lands.

Every ``shard`` frame carries its program and substrate, so a worker's
only warm state is its :class:`AdoptedSessions` LRU, and a shard's
session comes from the warmest source that has it:

1. **lru** — a session for (digest, config) is already live in this
   server's :class:`AdoptedSessions`;
2. **wire** — hydrate the frame's substrate bytes (the artifact
   cache's encoding) into a new session, kept in the LRU;
3. **cold** — the substrate failed to decode: rebuild from the program
   blob.  Slower, never wrong; decode failures are counted as
   ``adoption_failures`` in the shard result.

Shard failures travel as data, per region: one dead region becomes an
``error`` outcome while the rest of the shard still answers — the batch
endpoint's partial-result contract depends on this.

Failpoints (tests and the fleet benchmark) are one comma-separated
spec, ``REPRO_FAILPOINTS`` or ``RemoteWorkerServer(failpoints=)``, of
``action:Class.method[:LOOP][*N]`` entries (:class:`Failpoints`).
"""

import gc
import math
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from collections import OrderedDict

from repro.core.cache.serialize import load_shared
from repro.core.config import DetectorConfig
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import region_text
from repro.pta.queries import Deadline
from repro.server.remote import WIRE_VERSION, WireEOF, WireError, recv_frame, send_frame

#: Distinct (digest, config) sessions one worker keeps warm.
MAX_ADOPTED = 4

#: The failpoint spec a worker reads when given none (test-only).
FAILPOINTS_ENV = "REPRO_FAILPOINTS"


class AdoptedSessions:
    """A worker's warm sessions: an LRU of at most ``capacity``, keyed
    by (program digest, detector config); thread-safe, because a
    worker's connection threads share one."""

    def __init__(self, capacity=MAX_ADOPTED):
        self.capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._entries = OrderedDict()

    @staticmethod
    def key(task):
        return (task["digest"], tuple(sorted(task["config_kwargs"].items())))

    def get(self, key):
        """The session under ``key`` (now most recent), or ``None``."""
        with self._lock:
            session = self._entries.get(key)
            if session is not None:
                self._entries.move_to_end(key)
            return session

    def put(self, key, session):
        with self._lock:
            self._entries[key] = session
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self):
        with self._lock:
            self._entries.clear()


class Failpoints:
    """Parsed failpoint spec: ``raise:REGION`` fails that region's check
    (an ``error`` outcome), ``drop:REGION`` drops the connection before
    answering a shard that carries it (a worker killed mid-shard, as the
    transport sees it).  ``*N`` fires a failpoint at most N times in
    this worker process; without it, every time."""

    ACTIONS = ("raise", "drop")

    def __init__(self, spec=""):
        self._lock = threading.Lock()
        self._remaining = {}
        for entry in filter(None, (part.strip() for part in spec.split(","))):
            action, _, target = entry.partition(":")
            region, star, times = target.partition("*")
            if action not in self.ACTIONS or not region or (
                star and not times.isdigit()
            ):
                raise ValueError(
                    "bad failpoint %r: expected raise|drop:"
                    "Class.method[:LOOP][*N]" % entry
                )
            self._remaining[action, region] = int(times) if star else math.inf

    def fire(self, action, region):
        """Whether ``action`` fires at ``region`` now; consumes one."""
        with self._lock:
            left = self._remaining.get((action, region), 0)
            if left <= 0:
                return False
            self._remaining[action, region] = left - 1
            return True


class RemoteWorkerServer:
    """One fleet worker: its warm sessions, failpoints and counters.

    Session state is *instance*-level, so several servers can share a
    test process — the "two hosts on localhost" harness — without
    adopting through each other's state.  ``port=None`` binds no
    listener: a forked local worker only serves the socket it is
    handed.
    """

    def __init__(self, host="127.0.0.1", port=0, failpoints=None):
        if failpoints is None:
            failpoints = os.environ.get(FAILPOINTS_ENV, "")
        self._failpoints = Failpoints(failpoints)
        self._sessions = AdoptedSessions()
        self._lock = threading.Lock()
        self._run_lock = threading.Lock()
        self._closing = False
        self._conns = set()
        self._thread = None
        self.counters = {
            "connections": 0,
            "shards": 0,
            "adoption_failures": 0,
            "simulated_deaths": 0,
        }
        self._sock = None
        if port is not None:
            self._sock = socket.create_server((host, port))
            self.host, self.port = self._sock.getsockname()[:2]

    @property
    def address(self):
        return "%s:%d" % (self.host, self.port)

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Serve in a daemon thread; returns ``self`` for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="repro-worker-%d" % self.port,
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self):
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # shutdown closed the listener
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._conns.add(conn)
                self.counters["connections"] += 1
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                daemon=True,
            ).start()

    def shutdown(self):
        self._closing = True
        try:
            # Closing alone would leave serve_forever blocked in accept().
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        with self._lock:
            conns, self._conns = list(self._conns), set()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._sessions.clear()

    # -- the connection loop -------------------------------------------------

    def _serve_connection(self, conn):
        try:
            while not self._closing:
                try:
                    header, blobs = recv_frame(conn)
                except WireEOF:
                    return
                reply = self._dispatch(header, blobs)
                if reply is None:
                    return  # simulated death: drop without answering
                send_frame(conn, reply[0], reply[1])
        except (OSError, ConnectionError, WireError):
            return  # a vanished coordinator is not our problem
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, header, blobs):
        kind = header.get("type")
        if kind == "hello":
            return {"type": "welcome", "pid": os.getpid(),
                    "wire": WIRE_VERSION}, ()
        if kind == "ping":
            return {"type": "pong", "seq": header.get("seq")}, ()
        if kind == "shard":
            return self._handle_shard(header, blobs)
        return {"type": "error", "code": "bad_request",
                "message": "unknown message type %r" % kind}, ()

    def _handle_shard(self, header, blobs):
        digest = header.get("digest")
        config = header.get("config") or {}
        if len(blobs) != 3 or not isinstance(digest, str) or not isinstance(
            config, dict
        ):
            return {"type": "error", "code": "bad_request",
                    "message": "shard frame needs a digest, a config "
                    "object, and program, substrate and spec blobs"}, ()
        task = {
            "digest": digest,
            "program_blob": blobs[0],
            "substrate": blobs[1],
            "config_kwargs": config,
        }
        try:
            specs = pickle.loads(blobs[2])
            if self._should_die(specs):
                return None
            # One shard at a time: sessions are single-threaded, and a
            # second coordinator dialing in must queue, not corrupt.
            with self._run_lock:
                reply, outcomes = self._run_shard(
                    task, specs, header.get("indices") or [],
                    header.get("deadline_ms"),
                )
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            return {"type": "error", "code": "shard_failed",
                    "message": "%s: %s" % (type(exc).__name__, exc)}, ()
        with self._lock:
            self.counters["shards"] += 1
        return reply, (
            pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _should_die(self, specs):
        """Consume a ``drop`` failpoint if this shard carries one."""
        if any(self._failpoints.fire("drop", region_text(s)) for s in specs):
            with self._lock:
                self.counters["simulated_deaths"] += 1
            return True
        return False

    def _run_shard(self, task, specs, indices, deadline_ms):
        """Check every region of one shard; returns ``(reply, outcomes)``.

        ``outcomes`` holds, per region in shard order, either ``(index,
        "ok", LeakReport)`` or ``(index, "error", region_text, cause,
        worker_traceback)``; ``reply`` is the ``result`` frame header
        with the bookkeeping the coordinator folds into fleet metrics.
        """
        started = time.perf_counter()
        session, adoption, adoption_failures = self._resolve(task)
        deadline = Deadline.after_ms(deadline_ms)
        outcomes = []
        with session.points_to.deadline_scope(deadline):
            for index, spec in zip(indices, specs):
                text = region_text(spec)
                try:
                    if self._failpoints.fire("raise", text):
                        raise RuntimeError("injected failpoint at %s" % text)
                    outcomes.append((index, "ok", session.check(spec)))
                except Exception as exc:  # noqa: BLE001 - travels as data
                    outcomes.append(
                        (
                            index,
                            "error",
                            text,
                            "%s: %s" % (type(exc).__name__, exc),
                            traceback.format_exc(),
                        )
                    )
        reply = {
            "type": "result",
            "pid": os.getpid(),
            "busy_seconds": time.perf_counter() - started,
            "adoption": adoption,
            "adoption_failures": adoption_failures,
            "degraded": bool(deadline is not None and deadline.was_exceeded),
        }
        return reply, outcomes

    # -- session adoption ----------------------------------------------------

    def _resolve(self, task):
        """The shard's session, warmest source first.

        Returns ``(session, adoption, adoption_failures)``: ``adoption``
        names the rung of the module docstring's ladder that served
        (``"lru"``, ``"wire"`` or ``"cold"``), and ``adoption_failures``
        is 1 when the frame's substrate failed to decode and the cold
        rebuild served instead.
        """
        key = AdoptedSessions.key(task)
        hit = self._sessions.get(key)
        if hit is not None:
            return hit, "lru", 0
        program = pickle.loads(task["program_blob"])
        config = DetectorConfig(**task["config_kwargs"])
        try:
            shared = load_shared(
                program, config, task["substrate"], program_dig=task["digest"]
            )
            session, adoption, failures = (
                AnalysisSession(program, config, shared=shared), "wire", 0
            )
        except Exception:  # noqa: BLE001 - corrupt substrate, rebuild cold
            with self._lock:
                self.counters["adoption_failures"] += 1
            session, adoption, failures = (
                AnalysisSession(program, config).warm(), "cold", 1
            )
        self._sessions.put(key, session)
        return session, adoption, failures

    def __repr__(self):
        where = self.address if self._sock is not None else "forked"
        return "RemoteWorkerServer(%s)" % where


def fork_worker():
    """Fork a local fleet worker on a fresh socket pair.

    Returns ``(pid, sock)``; the child serves the fleet wire on its end
    of the pair until EOF.  Before serving, it closes every descriptor
    it inherited except that end and stdio, so a worker forked while
    the daemon holds its listener and client connections keeps none of
    them open.  It leaves with ``os._exit`` (no exit handlers, none of
    the parent's buffered output), quietly on SIGINT.
    """
    parent_end, child_end = socket.socketpair()
    with child_end:
        try:
            pid = os.fork()
        except OSError:
            parent_end.close()
            raise
        if pid == 0:
            _serve_forked(child_end)
    return pid, parent_end


def _serve_forked(sock):
    # The child must never unwind into the stack it was forked from (a
    # transport serve thread): whatever happens, it leaves by os._exit.
    status = 1
    try:
        # Inherited objects are never collected here, so no finalizer
        # closes a descriptor number this process has reused since.
        gc.freeze()
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.set_wakeup_fd(-1)  # the parent's is about to be closed
        keep = sock.fileno()
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        RemoteWorkerServer(port=None)._serve_connection(sock)
        status = 0
    except BaseException:  # noqa: BLE001 - reported raw, then exit
        os.write(2, traceback.format_exc().encode("utf-8", "replace"))
    finally:
        os._exit(status)


def spawn_worker(host="127.0.0.1", env=None):
    """Start a ``repro worker`` subprocess; returns ``(proc, address)``.

    The worker picks a free port (``--port 0``) and announces it on
    stdout; this helper parses the announcement.  ``env`` entries are
    layered over the current environment (failpoints travel this way),
    and ``PYTHONPATH`` is extended so the child finds this checkout of
    ``repro`` no matter where the caller runs from.
    """
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    child_env = dict(os.environ)
    child_env.update(env or {})
    existing = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    command = [sys.executable, "-m", "repro", "worker",
               "--host", host, "--port", "0"]
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=child_env,
    )
    line = proc.stdout.readline().strip()
    marker = "worker listening on "
    if marker not in line:
        proc.kill()
        raise RuntimeError(
            "repro worker did not announce its address (got %r)" % line
        )
    address = line.split(marker, 1)[1].split()[0]
    return proc, address
