"""The fleet worker: run program tasks behind the fleet wire.

A :class:`RemoteWorkerServer` is the far end of every
:class:`repro.server.remote.RemoteTransport` link.  It speaks the
versioned frame protocol of :mod:`repro.server.remote` on each
connection it serves: accepted on its TCP listener (``repro worker``,
dialed by ``serve --worker-hosts``), or one end of a socket pair in a
worker the transport forked for ``serve --workers N``
(:func:`fork_worker`).  One connection loop and one task runner serve
both, which is what makes fleet results byte-identical no matter where
a task lands.

A ``program`` frame is the whole task, and the worker keeps nothing
between tasks: it parses the source, resolves the regions (every
labelled loop when the frame names none), builds a cold session and
checks each region under the frame's deadline.  The ``result`` header
holds the program digest and, per region in order, the report's
``as_dict()`` — or, for a region whose check raised, an ``error``
outcome while the rest of the program still answers (the batch
endpoint's partial-result contract depends on this).  A program that
does not parse, resolve or analyse is answered with a typed ``error``
object in the ``result`` instead.  A malformed frame is a
``bad_request`` error frame, and the connection keeps serving.

Failpoints (tests and the fleet benchmark) are one comma-separated
spec, ``REPRO_FAILPOINTS`` or ``RemoteWorkerServer(failpoints=)``, of
``action:Class.method[:LOOP][*N]`` entries (:class:`Failpoints`).
"""

import gc
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback

from repro.core.cache.digest import program_digest
from repro.core.config import DetectorConfig
from repro.core.pipeline.session import AnalysisSession
from repro.core.regions import candidate_loops, region_text
from repro.errors import ReproError
from repro.pta.queries import Deadline
from repro.server.pool import parse_source, resolve_regions
from repro.server.remote import WIRE_VERSION, WireEOF, WireError, recv_frame, send_frame

#: The failpoint spec a worker reads when given none (test-only).
FAILPOINTS_ENV = "REPRO_FAILPOINTS"


class Failpoints:
    """Parsed failpoint spec: ``raise:REGION`` fails that region's check
    (an ``error`` outcome), ``drop:REGION`` drops the connection before
    answering a program task that carries it (a worker killed mid-task,
    as the transport sees it).  ``*N`` fires a failpoint at most N times in
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
    """One fleet worker: its failpoints and counters.

    Several servers can share a test process — the "two hosts on
    localhost" harness.  ``port=None`` binds no listener: a forked local
    worker only serves the socket it is handed.
    """

    def __init__(self, host="127.0.0.1", port=0, failpoints=None):
        if failpoints is None:
            failpoints = os.environ.get(FAILPOINTS_ENV, "")
        self._failpoints = Failpoints(failpoints)
        self._lock = threading.Lock()
        self._run_lock = threading.Lock()
        self._closing = False
        self._conns = set()
        self._thread = None
        self.counters = {
            "connections": 0,
            "programs": 0,
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
        if kind == "program":
            return self._handle_program(header, blobs)
        return _bad_request("unknown message type %r" % (kind,))

    def _handle_program(self, header, blobs):
        regions = header.get("regions")
        config = header.get("config")
        javalib = header.get("javalib", False)
        deadline_ms = header.get("deadline_ms")
        if not (
            len(blobs) == 1
            and isinstance(config, dict)
            and isinstance(javalib, bool)
            and (regions is None or _strings(regions))
            and (deadline_ms is None or _count(deadline_ms))
        ):
            return _bad_request(
                "a program frame needs one source blob, a config object, "
                "a javalib flag, and regions as null or a list of strings"
            )
        try:
            source = blobs[0].decode("utf-8", "surrogatepass")
            config = DetectorConfig(**config)
        except Exception as exc:  # noqa: BLE001 - any bad field is the peer's
            return _bad_request("%s: %s" % (type(exc).__name__, exc))
        try:
            # One task at a time: a second coordinator dialing in must
            # queue, not compete for the same cores.
            with self._run_lock:
                reply = self._run_program(
                    source, javalib, regions, config, deadline_ms
                )
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            return {"type": "error", "code": "program_failed",
                    "message": "%s: %s" % (type(exc).__name__, exc)}, ()
        if reply is None:
            return None  # simulated death: drop without answering
        with self._lock:
            self.counters["programs"] += 1
        return reply, ()

    def _run_program(self, source, javalib, regions, config, deadline_ms):
        """Parse, resolve and check one program; returns the ``result``
        header, or ``None`` when a ``drop`` failpoint fires.

        ``outcomes`` holds, per region in order, ``{"region", "report"}``
        or ``{"region", "error", "traceback"}``; a program that fails
        before its first region is answered with ``error``, ``{"kind":
        "parse" | "resolve" | "analysis", "message"}``, instead.
        """
        started = time.perf_counter()
        reply = {"type": "result", "pid": os.getpid()}
        stage = "parse"
        try:
            program = parse_source(source, javalib)
            stage = "resolve"
            specs = resolve_regions(program, regions)
            if specs is None:
                specs = candidate_loops(program)
            if self._should_die(specs):
                return None
            stage = "analysis"
            session = AnalysisSession(program, config)
        except ReproError as exc:
            reply["error"] = {"kind": stage, "message": str(exc)}
            reply["busy_seconds"] = time.perf_counter() - started
            return reply
        deadline = Deadline.after_ms(deadline_ms)
        outcomes = []
        with session.points_to.deadline_scope(deadline):
            for spec in specs:
                text = region_text(spec)
                try:
                    if self._failpoints.fire("raise", text):
                        raise RuntimeError("injected failpoint at %s" % text)
                    report = session.check(spec).as_dict()
                    outcomes.append({"region": text, "report": report})
                except Exception as exc:  # noqa: BLE001 - travels as data
                    outcomes.append({
                        "region": text,
                        "error": "%s: %s" % (type(exc).__name__, exc),
                        "traceback": traceback.format_exc(),
                    })
        reply["digest"] = program_digest(program)
        reply["degraded"] = bool(deadline and deadline.was_exceeded)
        reply["outcomes"] = outcomes
        reply["busy_seconds"] = time.perf_counter() - started
        return reply

    def _should_die(self, specs):
        """Consume a ``drop`` failpoint if this program carries one."""
        if any(self._failpoints.fire("drop", region_text(s)) for s in specs):
            with self._lock:
                self.counters["simulated_deaths"] += 1
            return True
        return False

    def __repr__(self):
        where = self.address if self._sock is not None else "forked"
        return "RemoteWorkerServer(%s)" % where


def _bad_request(message):
    return {"type": "error", "code": "bad_request", "message": message}, ()


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


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
