"""The ``repro worker`` endpoint: serve shards over the fleet wire.

A :class:`RemoteWorkerServer` is the far end of
:class:`repro.server.remote.RemoteTransport`: it listens on a TCP
port, speaks the versioned frame protocol of
:mod:`repro.server.remote`, and executes shards through the very same
:func:`repro.server.worker.run_shard` the local transports use — which
is what makes fleet results byte-identical no matter which host a
shard lands on.

Program hand-off degrades gracefully, warmest first:

1. **lru** — a session for (digest, config) is already live in this
   server's adoption LRU;
2. **cache** — the server's *own* content-addressed artifact cache
   directory (``--cache-dir``) holds the snapshot; hydrate from disk.
   This is the shared-store story: any worker that ever saw the digest
   (or shares the directory) serves it warm without wire traffic;
3. **wire** — answer ``need-snapshot``; the coordinator pushes the
   packed snapshot and re-sends the shard on the same connection, the
   worker hydrates it *and saves it into its cache dir*, so the next
   miss on this host is a cache hit;
4. **cold** — the pushed snapshot failed to decode: rebuild from the
   program blob.  Slower, never wrong; decode failures are counted as
   ``adoption_failures`` in the shard result.

A pushed snapshot belongs to the connection it arrived on: it waits
there for the next shard of its digest, and is dropped with the
connection if none comes (a shard requeued to another worker, a
coordinator that went away).

Failpoints (CI's kill-a-worker harness): ``fail_regions`` names region
spec texts whose arrival makes the server *drop the connection* before
answering — exactly what a worker killed mid-shard looks like from the
transport side — at most ``fail_times`` times per region.  The
``REPRO_REMOTE_FAIL_SHARD`` / ``REPRO_REMOTE_FAIL_TIMES`` environment
variables configure the same thing for subprocess workers.
"""

import os
import pickle
import socket
import subprocess
import sys
import threading

from repro.core.regions import region_text
from repro.server.remote import WIRE_VERSION, WireEOF, WireError, recv_frame, send_frame
from repro.server.worker import MAX_ADOPTED, AdoptedSessions, run_shard

#: Region spec texts that trigger a simulated worker death (comma-sep).
FAIL_SHARD_ENV = "REPRO_REMOTE_FAIL_SHARD"
#: How many times each listed region kills the connection (default 1 —
#: the deterministic "worker died once, survivor finished the shard"
#: harness; 0 means every time, for retry-exhaustion tests).
FAIL_TIMES_ENV = "REPRO_REMOTE_FAIL_TIMES"


class _NeedSnapshot(Exception):
    """No warm session, no cache entry: ask the coordinator to push."""

    def __init__(self, digest):
        self.digest = digest
        super().__init__(digest)


class RemoteWorkerServer:
    """One fleet worker: a TCP listener executing shards.

    Unlike the process-pool worker, session state is *instance*-level
    (its own :class:`~repro.server.worker.AdoptedSessions`, not the
    module-global one), so several servers can share a test process —
    the "two hosts on localhost" CI harness — without adopting through
    each other's state.
    """

    def __init__(
        self,
        host="127.0.0.1",
        port=0,
        cache_dir=None,
        max_adopted=MAX_ADOPTED,
        fail_regions=None,
        fail_times=None,
    ):
        if fail_regions is None:
            raw = os.environ.get(FAIL_SHARD_ENV, "")
            fail_regions = [part for part in raw.split(",") if part.strip()]
        if fail_times is None:
            fail_times = int(os.environ.get(FAIL_TIMES_ENV, "1"))
        self.cache_dir = str(cache_dir) if cache_dir else None
        #: region text -> drops remaining (None = unlimited).
        self._fail_budget = {
            text: (None if fail_times == 0 else fail_times)
            for text in fail_regions
        }
        self._sessions = AdoptedSessions(max_adopted)
        self._lock = threading.Lock()
        self._run_lock = threading.Lock()
        self._closing = False
        self._conns = set()
        self._thread = None
        self.counters = {
            "connections": 0,
            "shards": 0,
            "snapshot_pulls": 0,
            "adoption_failures": 0,
            "simulated_deaths": 0,
        }
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
            self._sock.close()
        except OSError:
            pass
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
        #: digest -> packed snapshot pushed on this connection, waiting
        #: for the re-sent shard; one at a time, gone with the link.
        pushed = {}
        try:
            while not self._closing:
                try:
                    header, blobs = recv_frame(conn)
                except WireEOF:
                    return
                reply = self._dispatch(header, blobs, pushed)
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

    def _dispatch(self, header, blobs, pushed):
        kind = header.get("type")
        if kind == "hello":
            return {"type": "welcome", "pid": os.getpid(),
                    "wire": WIRE_VERSION}, ()
        if kind == "ping":
            return {"type": "pong", "seq": header.get("seq")}, ()
        if kind == "snapshot":
            return self._handle_snapshot(header, blobs, pushed)
        if kind == "shard":
            return self._handle_shard(header, blobs, pushed)
        return {"type": "error", "code": "bad_request",
                "message": "unknown message type %r" % kind}, ()

    def _handle_snapshot(self, header, blobs, pushed):
        digest = header.get("digest")
        if not isinstance(digest, str) or not digest or not blobs:
            return {"type": "error", "code": "bad_request",
                    "message": "snapshot push without digest or payload"}, ()
        with self._lock:
            self.counters["snapshot_pulls"] += 1
        # Kept packed; decode is deferred to the shard that needs it,
        # where the program blob required for hydration rides along and
        # failures have a cold fallback.
        pushed.clear()
        pushed[digest] = bytes(blobs[0])
        return {"type": "snapshot-ok", "digest": digest}, ()

    def _handle_shard(self, header, blobs, pushed):
        digest = header.get("digest")
        if len(blobs) != 2 or not isinstance(digest, str):
            return {"type": "error", "code": "bad_request",
                    "message": "shard frame needs a digest, program and "
                    "spec blobs"}, ()
        task = {
            "digest": digest,
            "program_blob": blobs[0],
            "config_kwargs": dict(header.get("config") or {}),
            "specs_blob": blobs[1],
            "indices": list(header.get("indices") or []),
            "shm_name": None,
            "packed": pushed.pop(digest, None),
            "deadline_ms": header.get("deadline_ms"),
        }
        if self._should_die(task["specs_blob"]):
            return None
        try:
            # One shard at a time: sessions are single-threaded, and a
            # second coordinator dialing in must queue, not corrupt.
            with self._run_lock:
                result = run_shard(task, session_resolver=self._resolve)
        except _NeedSnapshot as need:
            return {"type": "need-snapshot", "digest": need.digest}, ()
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            return {"type": "error", "code": "shard_failed",
                    "message": "%s: %s" % (type(exc).__name__, exc)}, ()
        with self._lock:
            self.counters["shards"] += 1
        outcome_blob = pickle.dumps(
            result["outcomes"], protocol=pickle.HIGHEST_PROTOCOL
        )
        reply = {
            "type": "result",
            "pid": result["pid"],
            "busy_seconds": result["busy_seconds"],
            "adoption": result["adoption"],
            "adoption_failures": result["adoption_failures"],
            "degraded": result["degraded"],
        }
        return reply, (outcome_blob,)

    def _should_die(self, specs_blob):
        """Consume a failpoint if this shard carries a doomed region."""
        try:
            texts = [region_text(spec) for spec in pickle.loads(specs_blob)]
        except Exception:  # noqa: BLE001 - malformed specs fail later
            return False
        with self._lock:
            for text in texts:
                remaining = self._fail_budget.get(text, 0)
                if remaining == 0:
                    continue
                if remaining is not None:
                    self._fail_budget[text] = remaining - 1
                self.counters["simulated_deaths"] += 1
                return True
        return False

    # -- session adoption ----------------------------------------------------

    def _resolve(self, task):
        """``run_shard``'s session resolver: warmest source first.

        Returns ``(session, adoption, adoption_failures)`` like the
        process worker's, with the remote-only adoption kinds
        ``"cache"`` (own artifact-cache directory) and ``"wire"``
        (snapshot pushed by the coordinator on this connection, carried
        in the task as ``packed``).
        """
        import pickle as _pickle

        from repro.core.cache.store import ArtifactCache
        from repro.core.config import DetectorConfig
        from repro.core.pipeline.session import AnalysisSession
        from repro.pta.kernel import attach_snapshot

        key = AdoptedSessions.key(task)
        hit = self._sessions.get(key)
        if hit is not None:
            return hit, "lru", 0
        program = _pickle.loads(task["program_blob"])
        config = DetectorConfig(**task["config_kwargs"])
        cache = ArtifactCache(self.cache_dir) if self.cache_dir else None
        failures = 0

        if cache is not None:
            shared = cache.load(program, config)
            if shared is not None:
                session = AnalysisSession(program, config, shared=shared)
                self._sessions.put(key, session)
                return session, "cache", failures

        packed = task["packed"]
        if packed is not None:
            try:
                from repro.core.cache.serialize import hydrate_shared

                shared = hydrate_shared(
                    program,
                    config,
                    attach_snapshot(packed),
                    program_dig=task["digest"],
                )
                session = AnalysisSession(program, config, shared=shared)
            except Exception:  # noqa: BLE001 - corrupt push, rebuild cold
                failures = 1
                with self._lock:
                    self.counters["adoption_failures"] += 1
                session = None
            if session is not None:
                if cache is not None:
                    try:
                        cache.save(program, config, session.shared)
                    except Exception:  # noqa: BLE001 - cache is best-effort
                        pass
                self._sessions.put(key, session)
                return session, "wire", failures

        if failures == 0:
            raise _NeedSnapshot(task["digest"])

        session = AnalysisSession(program, config)
        session.warm()
        if cache is not None:
            try:
                cache.save(program, config, session.shared)
            except Exception:  # noqa: BLE001 - cache is best-effort
                pass
        self._sessions.put(key, session)
        return session, "cold", failures

    def __repr__(self):
        return "RemoteWorkerServer(%s, cache_dir=%r)" % (
            self.address, self.cache_dir
        )


def spawn_worker(cache_dir=None, host="127.0.0.1", env=None):
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
    if cache_dir:
        command += ["--cache-dir", str(cache_dir)]
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
