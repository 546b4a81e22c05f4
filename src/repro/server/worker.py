"""Fleet worker: execute one shard of region checks, warm on any digest.

A worker process is long-lived and *program-agnostic*: every shard
task names a program digest and carries the hand-off material of the
daemon's session-pool entry — the pickled program, the detector config,
and the packed substrate snapshot as a shared-memory name (zero-copy,
preferred) or as bytes (fallback).  The worker keeps its adopted
sessions in an :class:`AdoptedSessions` LRU keyed by ``(digest,
config)``; a repeat digest skips adoption entirely, a new digest
hydrates through :func:`repro.core.cache.adopt.adopt_session`, so any
worker can serve any pooled program warm, which is what lets the
coordinator shard freely instead of pinning programs to workers.  The
remote worker server (:mod:`repro.server.remote_worker`) keeps its
sessions in the same class.

:func:`run_shard` is the single entry point, deliberately a top-level
function of plain-data arguments so every transport can ship it: the
in-process inline transport calls it directly, the local process pool
submits it to a ``ProcessPoolExecutor``, and the remote worker server
runs it behind the fleet wire.  Failures travel as data, per region:
one dead region becomes an ``error`` outcome while the rest of the
shard still answers — the batch endpoint's partial-result contract
depends on this.

``REPRO_FLEET_FAIL_REGION=<Class.method[:LOOP]>`` is a test-only
failpoint injecting a failure when the named region is checked; the
mid-stream-failure tests and the fleet benchmark's degradation probe
use it.
"""

import os
import pickle
import threading
import time
import traceback
from collections import OrderedDict

from repro.core.regions import region_text
from repro.pta.queries import Deadline

#: Test-only failpoint: a region spec text whose check raises.
FAILPOINT_ENV = "REPRO_FLEET_FAIL_REGION"

#: Distinct (digest, config) sessions one worker keeps warm.
MAX_ADOPTED = 4


class AdoptedSessions:
    """A worker's warm sessions: an LRU of at most ``capacity``, keyed
    by (program digest, detector config).

    The only code that evicts an adopted session and closes the shared
    memory it was adopted from.  The session's masks view that segment,
    and a viewed segment cannot close (``BufferError``): an evicted
    handle closes once nothing views it, retried on every :meth:`put`
    and :meth:`clear` until then.  Closing never raises.
    """

    def __init__(self, capacity=MAX_ADOPTED):
        self.capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # key -> (session, shm or None)
        self._evicted = []  # handles of evicted sessions, still open

    @staticmethod
    def key(task):
        return (task["digest"], tuple(sorted(task["config_kwargs"].items())))

    def get(self, key):
        """The session under ``key`` (now most recent), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
            return None

    def put(self, key, session, shm=None):
        with self._lock:
            replaced = self._entries.pop(key, None)
            if replaced is not None:
                self._evicted.append(replaced[1])
            self._entries[key] = (session, shm)
            self._evict(len(self._entries) - self.capacity)

    def clear(self):
        with self._lock:
            self._evict(len(self._entries))

    def _evict(self, count):
        for _ in range(count):
            self._evicted.append(self._entries.popitem(last=False)[1][1])
        still_viewed = []
        for shm in filter(None, self._evicted):
            try:
                shm.close()
            except BufferError:
                still_viewed.append(shm)
            except OSError:
                pass
        self._evicted = still_viewed


#: This process's adopted sessions (process and inline transports).
_SESSIONS = AdoptedSessions()


def make_task(
    digest,
    program_blob,
    config_kwargs,
    specs,
    indices,
    shm_name=None,
    packed=None,
    deadline_ms=None,
):
    """Assemble one plain-data shard task (everything picklable)."""
    return {
        "digest": digest,
        "program_blob": program_blob,
        "config_kwargs": dict(config_kwargs),
        "specs_blob": pickle.dumps(list(specs), protocol=pickle.HIGHEST_PROTOCOL),
        "indices": list(indices),
        "shm_name": shm_name,
        "packed": packed,
        "deadline_ms": deadline_ms,
    }


def _session_for(task):
    """This worker's session for the task's program: LRU hit or adopt.

    Returns ``(session, adoption, adoption_failures)`` where
    ``adoption`` names how the state arrived: ``"lru"`` (already warm
    here), ``"shm"`` (attached the packed snapshot), ``"snapshot"``
    (hydrated the packed bytes), or ``"cold"`` (no hand-off, or a
    hand-off that failed to decode; built and warmed from the program
    alone).
    ``adoption_failures`` is 1 when a hand-off was offered but could
    not be adopted — the sound cold rebuild served instead — so the
    coordinator can count decode failures without losing the shard.
    """
    from repro.core.cache.adopt import adopt_session

    key = AdoptedSessions.key(task)
    hit = _SESSIONS.get(key)
    if hit is not None:
        return hit, "lru", 0
    failures = 0
    try:
        session, shm = adopt_session(
            task["program_blob"],
            task["config_kwargs"],
            shm_name=task["shm_name"],
            packed=task["packed"],
            program_digest=task["digest"],
        )
        if task["shm_name"] is not None:
            adoption = "shm"
        elif task["packed"] is not None:
            adoption = "snapshot"
        else:
            adoption = "cold"
    except Exception:
        if task["shm_name"] is None and task["packed"] is None:
            raise  # the cold path itself failed; nothing to fall back to
        # The hand-off was unusable (corrupt snapshot, vanished shm
        # segment).  adopt_session released the handle; rebuild cold —
        # slower, never wrong — and report the failure as data.
        failures = 1
        session, shm = adopt_session(
            task["program_blob"],
            task["config_kwargs"],
            program_digest=task["digest"],
        )
        adoption = "cold"
    _SESSIONS.put(key, session, shm)
    return session, adoption, failures


def run_shard(task, session_resolver=None):
    """Check every region in one shard; return a plain-data result.

    The result dict carries ``outcomes`` — per region, in shard order,
    either ``(index, "ok", LeakReport)`` or ``(index, "error",
    region_text, cause, worker_traceback)`` — plus the bookkeeping the
    coordinator folds into fleet metrics: the worker ``pid``, busy
    wall-clock seconds, how the program state was adopted, whether the
    shard's deadline degraded any demand-driven query, and how many
    hand-offs failed to adopt (served by the cold fallback instead).

    ``session_resolver`` overrides the process-global adoption LRU —
    the remote worker server keeps its own :class:`AdoptedSessions`
    and passes its own resolver; the inline and local-process
    transports use the default.
    """
    started = time.perf_counter()
    resolver = session_resolver or _session_for
    session, adoption, adoption_failures = resolver(task)
    specs = pickle.loads(task["specs_blob"])
    deadline = Deadline.after_ms(task.get("deadline_ms"))
    failpoint = os.environ.get(FAILPOINT_ENV)
    outcomes = []
    with session.points_to.deadline_scope(deadline):
        for index, spec in zip(task["indices"], specs):
            text = region_text(spec)
            try:
                if failpoint and text == failpoint:
                    raise RuntimeError(
                        "injected fleet failpoint at %s" % failpoint
                    )
                outcomes.append((index, "ok", session.check(spec)))
            except Exception as exc:  # noqa: BLE001 - failures travel as data
                outcomes.append(
                    (
                        index,
                        "error",
                        text,
                        "%s: %s" % (type(exc).__name__, exc),
                        traceback.format_exc(),
                    )
                )
    return {
        "pid": os.getpid(),
        "busy_seconds": time.perf_counter() - started,
        "adoption": adoption,
        "adoption_failures": adoption_failures,
        "degraded": bool(deadline is not None and deadline.was_exceeded),
        "outcomes": outcomes,
    }


def reset_worker_state():
    """Drop every adopted session (tests; harmless in production)."""
    _SESSIONS.clear()
