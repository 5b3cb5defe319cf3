"""Wire protocol of the streaming analysis service.

One framing for both transports (unix socket and TCP): every message is

    type: u8 | length: u32 (big-endian) | payload: length bytes

Control payloads are UTF-8 JSON; ``DATA`` payloads are raw RPTR v1
trace bytes — the service streams the *same* encoding the offline tier
stores (``docs/TRACE_FORMAT.md``), in arbitrary chunkings (the
server-side :class:`~repro.runtime.codec.StreamDecoder` tolerates
records straddling frames).

Conversation shape (client-initiated, one session per connection)::

    C: HELLO   {"config": "hwlc+dr"}            # or {"session": id} to resume
    S: WELCOME {"session": "s0001", "credits": 8, "offset": 0, "events": 0}
    C: DATA    <bytes>          ]  at most `credits` DATA frames may be
    C: DATA    <bytes>          ]  in flight; each CREDIT frame returns
    S: CREDIT  {"credits": 2}   ]  capacity (credit-based backpressure)
    C: FINISH  {}
    S: REPORT  <report JSON, byte-identical to `repro report` offline>

``STAT``/``STATS`` is a standalone request/response pair (no HELLO
needed) returning the server's metrics snapshot — the
``repro_service_*`` catalogue of ``docs/OBSERVABILITY.md``.  ``ERROR``
may replace any server response; the connection closes after it.

HELLO is free-form JSON, so optional keys ride it without a protocol
rev.  Current optional keys: ``"assign"`` (the sharded acceptor's
pre-chosen session id) and ``"trace"`` (a session-scoped trace
correlation id — the acceptor mints one per session and stamps it into
the rewritten HELLO, so acceptor- and worker-side log records and
Chrome trace spans for the same session share the id across both the
SCM_RIGHTS handover and the REDIRECT re-dial; ``repro trace merge``
correlates on it).  The server echoes the id back as ``"trace"`` in
WELCOME.  Unknown HELLO keys are ignored.

Backpressure contract: ``WELCOME.credits`` is the session's queue bound
N.  A client must not send a DATA frame without holding a credit; the
server returns one credit per DATA frame it *dequeues and analyses*, so
at most N frames are ever buffered per session.  The server enforces
the bound regardless (a violating client blocks at the socket), but a
conforming client never stalls the reader thread.
"""

from __future__ import annotations

import json
import socket
import struct

__all__ = [
    "FrameReader",
    "MAX_FRAME",
    "ProtocolError",
    "decode_json",
    "frame_name",
    "hello_id",
    "send_frame",
    "send_json",
    # frame types
    "HELLO", "DATA", "FINISH", "STAT",
    "WELCOME", "CREDIT", "REPORT", "STATS", "ERROR", "REDIRECT",
]

#: Frame header: type byte + payload length (big-endian u32).
HEADER = struct.Struct("!BI")

#: Upper bound on a single frame's payload — a malformed length
#: prefix must not make the server allocate gigabytes.
MAX_FRAME = 16 * 1024 * 1024

# Client → server.
HELLO = 1
DATA = 2
FINISH = 3
STAT = 4

# Server → client.
WELCOME = 16
CREDIT = 17
REPORT = 18
STATS = 19
ERROR = 20
#: Sharded TCP mode: the acceptor answers HELLO with a REDIRECT naming
#: the worker endpoint (``{"host", "port", "hello"}``); the client
#: reconnects there and sends the rewritten ``hello`` body.  Unix-socket
#: sharding never redirects — the connection itself is handed to the
#: worker over SCM_RIGHTS.
REDIRECT = 21

_NAMES = {
    HELLO: "HELLO", DATA: "DATA", FINISH: "FINISH", STAT: "STAT",
    WELCOME: "WELCOME", CREDIT: "CREDIT", REPORT: "REPORT",
    STATS: "STATS", ERROR: "ERROR", REDIRECT: "REDIRECT",
}


def frame_name(ftype: int) -> str:
    return _NAMES.get(ftype, f"frame#{ftype}")


class ProtocolError(Exception):
    """Malformed frame, oversized payload, or out-of-order message."""


def send_frame(sock: socket.socket, ftype: int, payload: bytes = b"") -> None:
    """Write one frame (atomic ``sendall`` of header + payload)."""
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload)} bytes")
    sock.sendall(HEADER.pack(ftype, len(payload)) + payload)


def send_json(sock: socket.socket, ftype: int, obj) -> None:
    """Write one JSON-payload frame."""
    send_frame(sock, ftype, json.dumps(obj, separators=(",", ":")).encode("utf-8"))


class FrameReader:
    """Buffered frame parser over a socket.

    :meth:`read` blocks for the next complete frame and returns
    ``(type, payload)``, or ``None`` on a clean EOF at a frame
    boundary.  EOF in the middle of a frame raises
    :class:`ProtocolError` — a half frame always means a lost peer.

    ``initial`` seeds the buffer with bytes already read from the
    socket by a previous reader — the sharded acceptor reads the HELLO
    frame to route a connection, then hands the socket *and* whatever
    it over-read to the worker, which resumes parsing mid-stream.
    """

    def __init__(self, sock: socket.socket, initial: bytes = b"") -> None:
        self._sock = sock
        self._buf = bytearray(initial)

    def leftover(self) -> bytes:
        """Buffered bytes beyond the last frame returned by :meth:`read`
        (for handing the stream over to another process)."""
        return bytes(self._buf)

    def _fill(self, need: int) -> bool:
        """Grow the buffer to ``need`` bytes; False on EOF before that."""
        while len(self._buf) < need:
            chunk = self._sock.recv(65536)
            if not chunk:
                return False
            self._buf += chunk
        return True

    def read(self) -> tuple[int, bytes] | None:
        if not self._fill(HEADER.size):
            if self._buf:
                raise ProtocolError("connection closed mid-frame")
            return None
        ftype, length = HEADER.unpack_from(bytes(self._buf[: HEADER.size]))
        if length > MAX_FRAME:
            raise ProtocolError(f"frame too large: {length} bytes")
        if not self._fill(HEADER.size + length):
            raise ProtocolError("connection closed mid-frame")
        payload = bytes(self._buf[HEADER.size: HEADER.size + length])
        del self._buf[: HEADER.size + length]
        return ftype, payload


def decode_json(payload: bytes) -> dict:
    """Parse a JSON control payload (empty payload → empty dict)."""
    if not payload:
        return {}
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad control payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("control payload must be a JSON object")
    return obj


def hello_id(hello: dict, key: str) -> str | None:
    """A session id carried by a HELLO — ``"session"`` (resume) or the
    acceptor's ``"assign"`` — or ``None`` when the key is absent.

    Checked here, before the id is hashed, looked up or joined into a
    checkpoint path: an id that is not a string is a
    :class:`ProtocolError`, so the client gets an ERROR frame.
    """
    value = hello.get(key)
    if value is not None and not isinstance(value, str):
        raise ProtocolError(
            f"HELLO {key} must be a string, not {type(value).__name__}"
        )
    return value
