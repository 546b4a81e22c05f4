"""The fleet's ``RFW1`` frames against untrusted bytes.

A worker decodes whatever dials it, so :func:`repro.server.remote.
recv_frame` must turn any byte stream into one frame or a typed error:
it returns ``(dict, list of bytes)`` or raises
:class:`~repro.server.remote.WireError` (end of stream included) or
:class:`ConnectionError` — nothing else, and once the writer has closed
it never blocks.  Inputs are arbitrary bytes, frames with arbitrary
header bytes and declared lengths, and well-formed frames whose JSON
headers, wire versions and blob lengths are arbitrary.

A decoded frame then reaches :meth:`~repro.server.remote_worker.
RemoteWorkerServer._dispatch`, which must answer any ``program`` frame
— whatever its fields and blobs — with a ``result`` or a typed
``error`` reply that encodes as a frame, and keep serving.
"""

import json
import socket
import struct
import threading

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.server.remote import WIRE_VERSION, WireError, recv_frame
from repro.server.remote_worker import RemoteWorkerServer

_MAGIC = b"RFW1"

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _frame(header, payload=b"", declared=None):
    """Magic, a header length (``declared``, or the true one), the
    header bytes and a payload."""
    length = len(header) if declared is None else declared
    return _MAGIC + struct.pack("<I", length) + header + payload


@st.composite
def _json_frames(draw):
    header = draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=4))
    if draw(st.booleans()):
        header["wire"] = draw(
            st.sampled_from([WIRE_VERSION, WIRE_VERSION - 1])
        )
    blobs = draw(st.lists(st.binary(max_size=64), max_size=3))
    if draw(st.booleans()):
        header["blobs"] = draw(
            st.just([len(blob) for blob in blobs])
            | st.lists(st.integers(min_value=-1, max_value=96), max_size=3)
            | _JSON
        )
    payload = b"".join(blobs)
    payload = payload[: draw(st.integers(0, len(payload)))]
    return _frame(json.dumps(header).encode("utf-8"), payload)


_INPUTS = st.one_of(
    st.binary(max_size=256),
    st.builds(
        _frame,
        st.binary(max_size=64),
        st.binary(max_size=64),
        st.none() | st.integers(0, 2**32 - 1),
    ),
    _json_frames(),
)


def _decode(data):
    """Write ``data`` to a socket pair from a thread, close the writer,
    and decode one frame from the other end.  A read that would block
    times out, which the property does not allow."""
    reader, writer = socket.socketpair()

    def write():
        try:
            writer.sendall(data)
        except OSError:
            pass  # the reader stopped early and closed its end
        finally:
            writer.close()

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    reader.settimeout(10)
    try:
        return recv_frame(reader)
    finally:
        reader.close()
        thread.join(timeout=10)


@given(_INPUTS)
# Nesting deeper than the JSON decoder recurses, under MAX_HEADER_BYTES.
@example(_frame(b"[" * 200_000))
# An integer longer than the int conversion limit.
@example(_frame(b'{"wire": 4, "n": ' + b"1" * 5000 + b"}"))
def test_recv_frame_returns_a_frame_or_a_typed_error(data):
    try:
        header, blobs = _decode(data)
    except (WireError, ConnectionError):
        return
    assert isinstance(header, dict)
    assert header["wire"] == WIRE_VERSION
    assert isinstance(blobs, list)
    assert all(isinstance(blob, bytes) for blob in blobs)
    assert [len(blob) for blob in blobs] == header.get("blobs", [])


_SOURCE = """
entry Main.main;
class Main { static method main() {
  c = new Cache @cache;
  loop L (*) { x = new Item @item; c.slot = x; }
} }
class Cache { field slot; }
class Item { }
"""

_SOURCES = st.one_of(
    st.just(_SOURCE.encode("utf-8")),
    st.text(max_size=40).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.binary(max_size=40),  # mostly not UTF-8
    st.just(b"class {"),
)

#: Per field: a well-formed value, and values that are not.
_FIELDS = {
    "javalib": (st.just(False), st.booleans() | _JSON),
    "regions": (
        st.none() | st.lists(
            st.sampled_from(["Main.main:L", "Main.main", "Nope.x:Y", "::"]),
            max_size=3,
        ),
        _JSON,
    ),
    "config": (
        st.sampled_from([
            DetectorConfig().describe(),
            DetectorConfig(demand_driven=True).describe(),
        ]),
        st.dictionaries(
            st.sampled_from(sorted(DetectorConfig().describe()) + ["bogus"]),
            _JSON,
            max_size=3,
        ) | _JSON,
    ),
    "deadline_ms": (st.none() | st.integers(0, 50), st.integers(-5, 0) | _JSON),
}


@st.composite
def _program_frames(draw):
    """Mostly well-formed ``program`` frames, each field and the blob
    list at times replaced by something that is not."""
    header = {"type": "program"}
    for key, (valid, invalid) in _FIELDS.items():
        choice = draw(st.integers(0, 9))
        if choice < 7:
            header[key] = draw(valid)
        elif choice < 9:
            header[key] = draw(invalid)
    if draw(st.integers(0, 3)):
        blobs = [draw(_SOURCES)]
    else:
        blobs = draw(st.lists(_SOURCES, max_size=3))
    return header, blobs


_WORKER = RemoteWorkerServer(port=None, failpoints="")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_program_frames())
@example(({"type": "program", "config": {}, "javalib": False,
           "regions": None, "deadline_ms": None}, [b"\xff\xfe"]))
@example(({"type": "program", "config": {}, "javalib": False,
           "regions": "Main.main:L", "deadline_ms": None},
          [_SOURCE.encode("utf-8")]))
@example(({"type": "program", "config": [], "javalib": False,
           "regions": None}, [_SOURCE.encode("utf-8")]))
@example(({"type": "program", "config": {}, "javalib": False},
           [_SOURCE.encode("utf-8")] * 2))
@example(({"type": "program", "config": {"callgraph": None}},
          [_SOURCE.encode("utf-8")]))
def test_dispatch_answers_every_program_frame(frame):
    header, blobs = frame
    reply = _WORKER._dispatch(header, blobs)
    assert reply is not None
    reply_header, reply_blobs = reply
    json.dumps(reply_header)  # encodes as a frame header
    assert list(reply_blobs) == []
    if reply_header["type"] == "error":
        assert reply_header["code"] in ("bad_request", "program_failed")
        assert isinstance(reply_header["message"], str)
    else:
        assert reply_header["type"] == "result"
        if "error" in reply_header:
            assert reply_header["error"]["kind"] in (
                "parse", "resolve", "analysis"
            )
        else:
            assert isinstance(reply_header["digest"], str)
            assert all(
                ("report" in outcome) != ("error" in outcome)
                for outcome in reply_header["outcomes"]
            )
    pong, _ = _WORKER._dispatch({"type": "ping", "seq": 3}, [])
    assert pong == {"type": "pong", "seq": 3}
