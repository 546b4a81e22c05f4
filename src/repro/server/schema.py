"""The versioned wire protocol: one schema both handlers and tests obey.

Every HTTP response the analysis service emits is built *and checked*
against this module — the handlers assemble bodies through
:func:`success_body` / :func:`error_body` and assert conformance with
:func:`validate_response` before sending, and the test suite validates
what actually came over the wire with the same functions.  A shape
drift therefore fails loudly on both sides instead of silently
breaking clients.

The envelope
------------

Every response is wire version 1, a uniform envelope.  Success is
``{"api_version": 1, "ok": true, "data": {...}}``; every error — 400,
404, 405, 413, 422, 429, 500 — is ``{"api_version": 1, "ok": false,
"error": {"code", "message", "context"}}`` with ``code`` from
:data:`ERROR_CODES`.  A 429's ``Retry-After`` header is mirrored into
``error.context.retry_after``.

A request may name ``api_version`` (a field in a POST body, a query
parameter on GETs); it is optional, and any value other than 1 is a
400 (:func:`requested_version`).

The NDJSON records of ``POST /analyze-batch`` (``region``, ``error``,
``summary``) are schema'd here too — :func:`validate_record`.
"""

__all__ = [
    "API_VERSION",
    "BATCH_RECORDS",
    "ERROR_CODES",
    "SchemaError",
    "error_body",
    "requested_version",
    "success_body",
    "validate",
    "validate_error",
    "validate_record",
    "validate_response",
]

#: The one wire version the server speaks.
API_VERSION = 1

#: HTTP status -> stable machine-readable error code.
ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    413: "payload_too_large",
    422: "analysis_error",
    429: "queue_full",
    500: "internal",
}

#: Record types a ``/analyze-batch`` NDJSON stream may carry.
BATCH_RECORDS = ("region", "error", "summary")


class SchemaError(Exception):
    """An instance does not conform to its wire schema; the message
    names the JSON path of the first violation."""


# ---------------------------------------------------------------------------
# a minimal JSON-schema-style validator (stdlib only)
# ---------------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name):
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, expected)


def validate(instance, schema, path="$"):
    """Check ``instance`` against ``schema``; raise :class:`SchemaError`
    naming the first violating path.

    The schema dialect is the JSON-Schema subset the wire needs:
    ``type`` (name or list of names), ``required`` + ``properties`` +
    ``additionalProperties`` (boolean) for objects, ``items`` for
    arrays, ``enum`` and ``const`` for pinned values.
    """
    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(instance, name) for name in names):
            raise SchemaError(
                "%s: expected %s, got %s"
                % (path, "|".join(names), type(instance).__name__)
            )
    if "const" in schema and instance != schema["const"]:
        raise SchemaError(
            "%s: expected %r, got %r" % (path, schema["const"], instance)
        )
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(
            "%s: %r not one of %r" % (path, instance, schema["enum"])
        )
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                raise SchemaError("%s: missing required field %r" % (path, name))
        properties = schema.get("properties", {})
        for name, sub in properties.items():
            if name in instance:
                validate(instance[name], sub, "%s.%s" % (path, name))
        if schema.get("additionalProperties") is False:
            extra = sorted(set(instance) - set(properties))
            if extra:
                raise SchemaError(
                    "%s: unexpected fields %s" % (path, ", ".join(extra))
                )
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            validate(item, schema["items"], "%s[%d]" % (path, index))
    return instance


# ---------------------------------------------------------------------------
# response schemas
# ---------------------------------------------------------------------------

_ERROR_OBJECT = {
    "type": "object",
    "required": ["code", "message", "context"],
    "properties": {
        "code": {"type": "string", "enum": sorted(ERROR_CODES.values())},
        "message": {"type": "string"},
        "context": {"type": "object"},
    },
    "additionalProperties": False,
}

ERROR_SCHEMA = {
    "type": "object",
    "required": ["api_version", "ok", "error"],
    "properties": {
        "api_version": {"const": API_VERSION},
        "ok": {"const": False},
        "error": _ERROR_OBJECT,
    },
    "additionalProperties": False,
}

_DIGEST = {"type": "string"}
_SIDE = {
    "type": "object",
    "required": ["program_digest", "warm"],
    "properties": {"program_digest": _DIGEST, "warm": {"type": "boolean"}},
}

#: endpoint -> schema of the success envelope's ``data`` field.
DATA_SCHEMAS = {
    "analyze": {
        "type": "object",
        "required": ["warm", "degraded", "program_digest", "scan"],
        "properties": {
            "warm": {"type": "boolean"},
            "degraded": {"type": "boolean"},
            "program_digest": _DIGEST,
            "scan": {"type": "object"},
        },
    },
    "diff": {
        "type": "object",
        "required": ["diff", "before", "after"],
        "properties": {
            "diff": {"type": "object"},
            "before": _SIDE,
            "after": _SIDE,
        },
    },
    "healthz": {
        "type": "object",
        "required": ["status", "inflight", "queued", "pool"],
        "properties": {
            "status": {"const": "ok"},
            "inflight": {"type": "integer"},
            "queued": {"type": "integer"},
            "pool": {"type": "object"},
        },
    },
    "metrics": {
        "type": "object",
        "required": ["counters", "latency", "gauges"],
        "properties": {
            "counters": {"type": "object"},
            "latency": {"type": "object"},
            "gauges": {"type": "object"},
            "fleet": {"type": ["object", "null"]},
        },
    },
}

RECORD_SCHEMAS = {
    "region": {
        "type": "object",
        "required": [
            "record",
            "program_id",
            "program_digest",
            "region",
            "index",
            "leaking_sites",
            "findings",
            "degraded",
        ],
        "properties": {
            "record": {"const": "region"},
            "program_id": {"type": "string"},
            "program_digest": _DIGEST,
            "region": {"type": "string"},
            "index": {"type": "integer"},
            "leaking_sites": {"type": "array", "items": {"type": "string"}},
            "findings": {"type": "integer"},
            "degraded": {"type": "boolean"},
            "report": {"type": "object"},
        },
        "additionalProperties": False,
    },
    "error": {
        "type": "object",
        "required": ["record", "program_id", "region", "error"],
        "properties": {
            "record": {"const": "error"},
            "program_id": {"type": ["string", "null"]},
            "region": {"type": ["string", "null"]},
            "error": _ERROR_OBJECT,
        },
        "additionalProperties": False,
    },
    "summary": {
        "type": "object",
        "required": [
            "record",
            "ok",
            "programs",
            "regions",
            "errors",
            "findings",
            "elapsed_ms",
        ],
        "properties": {
            "record": {"const": "summary"},
            "ok": {"type": "boolean"},
            "programs": {"type": "integer"},
            "regions": {"type": "integer"},
            "errors": {"type": "integer"},
            "findings": {"type": "integer"},
            "elapsed_ms": {"type": "number"},
        },
        "additionalProperties": False,
    },
}


# ---------------------------------------------------------------------------
# body construction
# ---------------------------------------------------------------------------


def requested_version(payload=None, query=None):
    """Reject a request that names a wire version other than 1.

    ``payload`` is the decoded POST body (or ``None``); ``query`` a
    ``parse_qs`` dict.  A body field wins over a query parameter, and
    naming no version at all is fine.  Raises :class:`SchemaError` for
    non-integer values and for any version but :data:`API_VERSION`.
    """
    value = None
    if isinstance(payload, dict) and "api_version" in payload:
        value = payload["api_version"]
    elif query and "api_version" in query:
        raw = query["api_version"][0]
        try:
            value = int(raw)
        except ValueError:
            raise SchemaError("api_version must be an integer, got %r" % raw)
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("api_version must be an integer, got %r" % value)
    if value != API_VERSION:
        raise SchemaError(
            "unsupported api_version %d (supported: %d)" % (value, API_VERSION)
        )


def success_body(data):
    """A success response body: ``data`` in the envelope."""
    return {"api_version": API_VERSION, "ok": True, "data": data}


def error_body(status, message, context=None):
    """An error response body: the envelope with the status's code."""
    return {
        "api_version": API_VERSION,
        "ok": False,
        "error": {
            "code": ERROR_CODES.get(status, "internal"),
            "message": message,
            "context": dict(context or {}),
        },
    }


# ---------------------------------------------------------------------------
# conformance checks
# ---------------------------------------------------------------------------


def validate_response(endpoint, body):
    """Assert ``body`` is a well-formed success response of
    ``endpoint``; returns ``body``."""
    validate(
        body,
        {
            "type": "object",
            "required": ["api_version", "ok", "data"],
            "properties": {
                "api_version": {"const": API_VERSION},
                "ok": {"const": True},
                "data": DATA_SCHEMAS[endpoint],
            },
            "additionalProperties": False,
        },
    )
    return body


def validate_error(body):
    """Assert ``body`` is a well-formed error response; returns it."""
    validate(body, ERROR_SCHEMA)
    return body


def validate_record(record):
    """Assert an ``/analyze-batch`` NDJSON record conforms; returns it."""
    kind = record.get("record") if isinstance(record, dict) else None
    if kind not in RECORD_SCHEMAS:
        raise SchemaError(
            "$.record: %r not one of %r" % (kind, BATCH_RECORDS)
        )
    validate(record, RECORD_SCHEMAS[kind])
    return record
