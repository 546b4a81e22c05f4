"""The fleet's ``RFW1`` frame decoder against untrusted bytes.

A worker decodes whatever dials it, so :func:`repro.server.remote.
recv_frame` must turn any byte stream into one frame or a typed error:
it returns ``(dict, list of bytes)`` or raises
:class:`~repro.server.remote.WireError` (end of stream included) or
:class:`ConnectionError` — nothing else, and once the writer has closed
it never blocks.  Inputs are arbitrary bytes, frames with arbitrary
header bytes and declared lengths, and well-formed frames whose JSON
headers, wire versions and blob lengths are arbitrary.
"""

import json
import socket
import struct
import threading

from hypothesis import example, given
from hypothesis import strategies as st

from repro.server.remote import WIRE_VERSION, WireError, recv_frame

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
