"""Exception hierarchy shared by all repro subsystems."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IRError(ReproError):
    """Raised when an IR construct is malformed or inconsistent."""


class ParseError(ReproError):
    """Raised by the while-language frontend on invalid source text.

    Carries the 1-based source position of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column or 0, message)
        super().__init__(message)


class ResolutionError(ReproError):
    """Raised when a name (class, method, field) cannot be resolved."""


class AnalysisError(ReproError):
    """Raised when a static analysis is invoked on unsupported input."""


class InterpError(ReproError):
    """Raised by the concrete interpreter on a run-time fault.

    The interpreter is used to validate the abstract semantics, so faults
    (null dereference, unresolved dispatch) are surfaced rather than hidden.
    """


class RegionCheckError(AnalysisError):
    """Raised when checking one region of a multi-region scan fails.

    Wraps the worker-side exception so a failing spec reports *which*
    region died instead of a bare future traceback; ``region_desc``
    carries the region description and ``cause_text`` the original
    error rendering (the original traceback cannot always cross a
    process boundary).

    ``substrate`` (the active substrate key) pins down *which* analysis
    configuration the failing run was using.
    """

    def __init__(self, region_desc, cause_text="", backend=None, substrate=None):
        self.region_desc = region_desc
        self.cause_text = cause_text
        self.backend = backend
        self.substrate = None if substrate is None else tuple(substrate)
        message = "region check failed for %s" % region_desc
        details = []
        if backend:
            details.append("backend=%s" % backend)
        if self.substrate is not None:
            details.append("substrate=%r" % (self.substrate,))
        if details:
            message += " [%s]" % " ".join(details)
        if cause_text:
            message += ": %s" % cause_text
        super().__init__(message)


class CacheError(ReproError):
    """Raised when substrate bytes cannot serve a program: the snapshot
    was written under another schema, another substrate configuration
    or for another program (:func:`repro.core.cache.hydrate_shared`)."""


class BudgetExhausted(AnalysisError):
    """Raised internally by the demand-driven CFL solver when its work
    budget runs out; callers catch it and fall back to a sound
    over-approximation, mirroring the refinement-with-fallback design of
    demand-driven points-to analyses."""
