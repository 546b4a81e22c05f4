"""The validator for the daemon's worker-count knob.

``serve --workers`` (and :class:`repro.server.coordinator.Coordinator`,
which it builds) accepts "how many fleet workers".  :func:`validate_workers`
is that check.  It raises :class:`~repro.errors.AnalysisError` — a
:class:`~repro.errors.ReproError`, which ``repro.cli.main`` already
renders as ``error: ...`` and exit code 2 — so the CLI needs no wrapper
of its own, and the CLI and the library reject with the same text.
"""

from repro.errors import AnalysisError

#: The option the message names.
FLAG = "--workers"


def validate_workers(value):
    """Check an explicit worker count; ``None`` (defaulting) passes through.

    Raises :class:`AnalysisError` with the canonical one-line message —
    ``--workers must be a positive worker count (got N)``.
    """
    if value is None:
        return None
    if value < 1:
        raise AnalysisError(
            "%s must be a positive worker count (got %d)" % (FLAG, value)
        )
    return value
