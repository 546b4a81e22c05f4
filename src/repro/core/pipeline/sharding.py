"""Shard planning for distributed region scans.

A region scan is an embarrassingly parallel list of independent
checks:

* :func:`plan_shards` — split a spec list into contiguous, ordered
  shards for the daemon's fleet coordinator
  (:mod:`repro.server.coordinator`).  Contiguity matters: a shard is
  one worker task, and the coordinator reassembles results by original
  index, so any partition that preserves indices reproduces the serial
  entry order (and with it canonical byte-identity);
* :func:`check_spec_list` — the serial scan's loop: one warmed
  session, one optional deadline, entries in list order.  A fleet
  worker runs its own per-region loop instead
  (:meth:`~repro.server.remote_worker.RemoteWorkerServer._run_shard`),
  which makes the same ``session.check`` calls but turns a region that
  raises into an ``error`` outcome and goes on.

:func:`auto_shard_size` balances two pressures: shards small enough
that N workers all stay busy and results stream steadily, large
enough that per-shard overhead (pickling, queue hops) stays amortized.
"""

#: Target number of shards handed to each worker: >1 so a slow shard
#: does not leave its worker's siblings idle at the tail of a scan.
SHARDS_PER_WORKER = 2

#: Never pack more regions than this into one shard, whatever the
#: worker count — streaming granularity has a floor.
MAX_SHARD_SIZE = 16


def auto_shard_size(spec_count, workers):
    """A shard size giving each of ``workers`` about
    :data:`SHARDS_PER_WORKER` shards, clamped to [1, MAX_SHARD_SIZE]."""
    if spec_count <= 0:
        return 1
    per_worker = max(1, workers) * SHARDS_PER_WORKER
    size = (spec_count + per_worker - 1) // per_worker
    return max(1, min(MAX_SHARD_SIZE, size))


def plan_shards(specs, shard_size):
    """Split ``specs`` into contiguous shards of at most ``shard_size``.

    Returns ``[(start_index, [spec, ...]), ...]`` in order; indices are
    positions in the original list, the key the coordinator sorts
    results back by.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1 (got %d)" % shard_size)
    specs = list(specs)
    return [
        (start, specs[start : start + shard_size])
        for start in range(0, len(specs), shard_size)
    ]


def check_spec_list(session, specs, deadline=None):
    """Check a region list serially on one session.

    Returns ``[(spec, LeakReport), ...]`` in list order — the loop
    ``scan_all_loops`` runs over its regions.  ``deadline`` scopes the
    demand-driven query budget for the whole list; past it, queries
    degrade to the sound whole-program answer.

    Failures propagate exactly as ``session.check`` raised them —
    callers that must *continue* past a dead region (the fleet worker)
    catch per spec around their own loop instead.
    """
    with session.points_to.deadline_scope(deadline):
        return [(spec, session.check(spec)) for spec in specs]
