"""The analysis service: LeakChecker as a long-running HTTP daemon.

``repro serve`` keeps analysis state warm across requests — the
session pool (:mod:`~repro.server.pool`), keyed by request text, is the
one warm cache: it answers a repeat from the stored scan without
parsing, and checks other requests on a stored substrate.  The
optional worker fleet (:mod:`~repro.server.coordinator`) runs the
never-seen programs of a batch whole, one stateless task per program.
Admission control (:mod:`~repro.server.limits`) bounds concurrency and
queueing, and :mod:`~repro.server.metrics` exposes counters and latency
quantiles.  See :mod:`~repro.server.app` for the endpoint contract.

The package re-exports nothing: importing one module — say
:mod:`~repro.server.coordinator` for a standalone fleet — must not load
the HTTP daemon and asyncio with it.
"""
