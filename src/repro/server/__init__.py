"""The analysis service: LeakChecker as a long-running HTTP daemon.

``repro serve`` keeps analysis state warm across requests — the
session pool (:mod:`~repro.server.pool`) serves repeat programs from
snapshots via the incremental engine's fast path, admission control
(:mod:`~repro.server.limits`) bounds concurrency and queueing, and
:mod:`~repro.server.metrics` exposes counters and latency quantiles.
See :mod:`~repro.server.app` for the endpoint contract.

The package re-exports nothing: importing one module — ``scan
--parallel`` imports :mod:`~repro.server.coordinator` — must not load
the HTTP daemon and asyncio with it.
"""
