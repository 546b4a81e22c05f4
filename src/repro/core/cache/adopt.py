"""Worker-side snapshot adoption: from a parent's artifacts to a live session.

The multi-process execution path in the system — the fleet behind
``repro serve --workers`` — faces one hand-off problem: a parent holds
a program's warmed substrate and a worker in another process must
answer region checks against *exactly* that state without re-solving
it.  The currency is the plain-data snapshot
(:func:`~repro.core.cache.serialize.snapshot_shared`), and the
zero-copy transport is the flat kernel's packed form
(:func:`~repro.pta.kernel.pack_snapshot`) in a read-only
``multiprocessing.shared_memory`` block: a worker attaches and decodes
points-to bitsets lazily straight out of the mapping, so per-worker
warmup is microseconds instead of a fresh Andersen solve.

This module is the one place that protocol lives:

* :func:`share_snapshot` — parent side: pack a snapshot into a fresh
  shared-memory block (or report that the platform cannot);
* :func:`attach_shared` — worker side: attach to a named block and
  keep it alive past the worker's own resource tracker's cleanup;
* :func:`adopt_session` — worker side, one call: program blob +
  config + (shm name | packed bytes | nothing) → a ready
  ``AnalysisSession``, hydrated when state was handed off, cold-built
  as the sound fallback when not.

The daemon's session pool (:mod:`repro.server.pool`) and the fleet
worker (:mod:`repro.server.worker`) build on these; keeping them here
means the cache layer owns every producer *and* consumer of its
snapshot encoding.
"""

import os
import pickle


def share_snapshot(snapshot):
    """Pack ``snapshot`` into a shared-memory block.

    Returns ``(shm, name)``; ``(None, None)`` when shared memory is
    unavailable on this platform (callers then ship the packed bytes
    themselves).  The caller owns the segment: ``shm.close()`` +
    ``shm.unlink()`` when every worker is done with it.
    """
    from repro.pta.kernel import pack_snapshot

    shm = None
    try:
        from multiprocessing import shared_memory

        packed = pack_snapshot(snapshot)
        shm = shared_memory.SharedMemory(create=True, size=max(1, len(packed)))
        shm.buf[: len(packed)] = packed
        return shm, shm.name
    except Exception:
        # A segment created before the failure (e.g. the copy into the
        # buffer raised) must not outlive this call: nobody else knows
        # its name, so close *and unlink* it here.
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass
        return None, None


def attach_shared(shm_name):
    """Attach to the parent's packed-snapshot segment; returns the
    ``SharedMemory`` handle, which must stay referenced for as long as
    any session decoded from it answers queries (the mask table holds
    memoryviews into its buffer)."""
    from multiprocessing import resource_tracker, shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    # Attaching registered the segment with the resource tracker, but the
    # creator owns its lifetime: a tracker this process launched must
    # forget it, while a tracker shared with the creator must keep it, or
    # the creator's unlink() makes that tracker raise KeyError.
    try:
        if _runs_own_tracker(resource_tracker._resource_tracker):
            resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass  # best-effort by design
    return shm


def _runs_own_tracker(tracker):
    """Whether ``tracker`` is a child of this process."""
    if tracker._pid is None:
        return False  # handed the parent's tracker at spawn
    try:
        os.waitpid(tracker._pid, os.WNOHANG)
    except ChildProcessError:
        return False  # forked after the parent launched it
    return True


def adopt_session(
    program_blob,
    config_kwargs,
    shm_name=None,
    packed=None,
    program_digest=None,
):
    """Build a worker-local session adopting the parent's state.

    ``program_blob`` is the pickled program and ``config_kwargs`` the
    parent's ``config.describe()``.  State arrives, in preference
    order, as ``shm_name`` (a packed snapshot in shared memory),
    ``packed`` (the same bytes, carried along), or neither — in which
    case the session is built cold and warmed, the sound fallback for
    a worker that missed every hand-off.

    Returns ``(session, shm)``; ``shm`` is the attached segment (or
    ``None``) and must be kept referenced alongside the session.
    """
    from repro.core.cache.serialize import hydrate_shared
    from repro.core.config import DetectorConfig
    from repro.core.pipeline.session import AnalysisSession

    program = pickle.loads(program_blob)
    config = DetectorConfig(**config_kwargs)
    shm = None
    try:
        if shm_name is not None:
            shm = attach_shared(shm_name)
            packed = shm.buf
        if packed is not None:
            from repro.pta.kernel import attach_snapshot

            snapshot = attach_snapshot(packed)
            # The snapshot came straight from a live parent session, so
            # its recorded digest is trusted — no need to re-hash the
            # program.
            shared = hydrate_shared(
                program,
                config,
                snapshot,
                program_dig=program_digest or snapshot["program_digest"],
            )
            return AnalysisSession(program, config, shared=shared), shm
    except Exception:
        # Adoption failed mid-decode (corrupt snapshot, truncated
        # segment): the attached handle must not leak with the
        # exception.  The segment itself belongs to the parent, so
        # close without unlinking.
        if shm is not None:
            try:
                shm.close()
            except OSError:
                pass
        raise
    session = AnalysisSession(program, config)
    session.warm()
    return session, shm
