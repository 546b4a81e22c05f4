"""One validator for every worker-count knob.

Three surfaces accept "how many workers" and must reject the same
inputs with the same message: the CLI's ``scan --jobs``, the library's
``max_workers`` argument (:func:`repro.core.scan.scan_all_loops` with
``parallel=True``), and the daemon's ``serve --workers`` fleet size.
Before this module each grew its own copy of the check and the exit-2
text drifted between the CLI print and the
:class:`~repro.errors.AnalysisError` the library raised.

:func:`validate_workers` is that single check.  It raises
:class:`~repro.errors.AnalysisError` — a :class:`~repro.errors.
ReproError`, which ``repro.cli.main`` already renders as ``error: ...``
and exit code 2 — so the CLI callers need no wrapper of their own.
"""

from repro.errors import AnalysisError

#: Default fan-out when the caller does not pick a worker count:
#: enough to saturate small scans without oversubscribing CI machines.
DEFAULT_WORKERS = 4


def validate_workers(value, flag="--jobs"):
    """Check an explicit worker count; ``None`` (defaulting) passes through.

    Raises :class:`AnalysisError` with the canonical one-line message —
    ``<flag> must be a positive worker count (got N)`` — the text the
    CLI exit-2 path, the parallel scan and ``serve --workers`` all
    share.
    """
    if value is None:
        return None
    if value < 1:
        raise AnalysisError(
            "%s must be a positive worker count (got %d)" % (flag, value)
        )
    return value


def resolve_workers(value, task_count, flag="--jobs"):
    """An effective worker count: validated when explicit, otherwise
    ``min(DEFAULT_WORKERS, task_count)`` (never below 1)."""
    if value is None:
        return max(1, min(DEFAULT_WORKERS, task_count))
    return validate_workers(value, flag=flag)
