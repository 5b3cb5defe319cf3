"""Client side of the streaming analysis service (``repro client``).

:class:`AnalysisClient` speaks the frame protocol and keeps the credit
ledger: :meth:`send` blocks while the server's per-session queue is
full, so a fast producer is throttled to analysis speed instead of
ballooning server memory — the backpressure the protocol promises, made
invisible to callers.

Two producer conveniences cover the CLI's use cases:

* :meth:`stream_file` pipes an existing ``.rptr`` trace (optionally
  from a resume ``offset``) in bounded chunks;
* :meth:`sink` returns a file-like object a
  :class:`~repro.runtime.codec.TraceWriter` can write *live* — a
  harness run streams its event blocks to the server as they are
  encoded, nothing is staged on disk.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path

from repro.errors import ServiceError
from repro.service import protocol

__all__ = ["AnalysisClient", "ServiceError", "fetch_report"]

#: Default DATA chunk size for file/live streaming.
DEFAULT_CHUNK_BYTES = 32 * 1024


class AnalysisClient:
    """One connection to an analysis server.

    Use as a context manager::

        with AnalysisClient(socket_path="/run/repro.sock") as client:
            welcome = client.hello("hwlc+dr")
            client.stream_file("trace.rptr")
            report_bytes = client.finish()
    """

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        timeout: float | None = 60.0,
    ) -> None:
        if (socket_path is None) == (host is None or port is None):
            raise ValueError("pass either socket_path or host+port")
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection((host, port), timeout=timeout)
            # Frames are small; Nagle would delay them behind delayed
            # ACKs and defeat the credit protocol's pacing.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = protocol.FrameReader(self._sock)
        self.chunk_bytes = chunk_bytes
        self.credits = 0
        self.welcome: dict | None = None
        self.bytes_sent = 0

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "AnalysisClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- frame plumbing ------------------------------------------------

    def _await(self, wanted: int) -> bytes:
        """Read frames until ``wanted`` arrives; CREDIT frames are
        absorbed into the ledger on the way; ERROR raises."""
        while True:
            frame = self._reader.read()
            if frame is None:
                raise ServiceError(
                    f"server closed the connection awaiting "
                    f"{protocol.frame_name(wanted)}"
                )
            ftype, payload = frame
            if ftype == protocol.CREDIT:
                self.credits += protocol.decode_json(payload).get("credits", 0)
            elif ftype == protocol.ERROR:
                raise ServiceError(
                    protocol.decode_json(payload).get("error", "unknown error")
                )
            elif ftype == wanted:
                return payload
            else:
                raise ServiceError(
                    f"unexpected {protocol.frame_name(ftype)} frame"
                )

    # -- session -------------------------------------------------------

    def hello(self, config: str = "hwlc+dr", *, session: str | None = None) -> dict:
        """Open (or resume) a session; returns the WELCOME body.

        For a resume, pass the ``session`` id of a checkpointed
        session; ``welcome["offset"]`` then says where to continue the
        byte stream (what :meth:`stream_file` does with ``offset``).
        """
        body: dict = {}
        if session is not None:
            body["session"] = session
        else:
            body["config"] = config
        protocol.send_json(self._sock, protocol.HELLO, body)
        self.welcome = protocol.decode_json(self._await(protocol.WELCOME))
        self.credits = int(self.welcome.get("credits", 0))
        return self.welcome

    @property
    def session_id(self) -> str | None:
        return self.welcome.get("session") if self.welcome else None

    def send(self, data: bytes) -> None:
        """Send one DATA frame, spending a credit (waits for one when
        the ledger is empty — this is where backpressure bites)."""
        if self.welcome is None:
            raise ServiceError("send before hello()")
        while self.credits <= 0:
            # Only CREDIT (or ERROR) can legitimately arrive here.
            frame = self._reader.read()
            if frame is None:
                raise ServiceError("server closed the connection mid-stream")
            ftype, payload = frame
            if ftype == protocol.CREDIT:
                self.credits += protocol.decode_json(payload).get("credits", 0)
            elif ftype == protocol.ERROR:
                raise ServiceError(
                    protocol.decode_json(payload).get("error", "unknown error")
                )
            else:
                raise ServiceError(
                    f"unexpected {protocol.frame_name(ftype)} frame"
                )
        self.credits -= 1
        protocol.send_frame(self._sock, protocol.DATA, data)
        self.bytes_sent += len(data)

    def finish(self) -> bytes:
        """Declare end-of-stream; returns the report exactly as the
        server rendered it (byte-identical to the offline report)."""
        protocol.send_frame(self._sock, protocol.FINISH)
        return self._await(protocol.REPORT)

    def stats(self, *, per_worker: bool = False) -> dict:
        """Fetch the service's merged metrics snapshot.

        Send it before any :meth:`hello`: the acceptor answers STAT
        only on a connection that has not opened a session, and a
        STAT after HELLO is an ERROR that closes the connection.
        ``per_worker=True`` asks for
        ``{"merged": snapshot, "workers": {"w0": snapshot, ...}}`` —
        one unmerged snapshot per worker process next to the merged
        whole.
        """
        if per_worker:
            protocol.send_json(self._sock, protocol.STAT, {"per_worker": True})
        else:
            protocol.send_frame(self._sock, protocol.STAT)
        return protocol.decode_json(self._await(protocol.STATS))

    # -- producers -----------------------------------------------------

    def stream_file(self, path: str | Path, *, offset: int = 0) -> int:
        """Stream a trace file's bytes from ``offset``; returns the
        byte count sent."""
        sent = 0
        with open(path, "rb") as fh:
            if offset:
                fh.seek(offset)
            while True:
                chunk = fh.read(self.chunk_bytes)
                if not chunk:
                    break
                self.send(chunk)
                sent += len(chunk)
        return sent

    def sink(self) -> "_ClientSink":
        """A binary file-like whose writes become DATA frames — hand it
        to a :class:`~repro.runtime.codec.TraceWriter` to stream a live
        run.  ``close()`` flushes the trailing partial chunk (it does
        not FINISH the session — reports stay on demand)."""
        return _ClientSink(self, self.chunk_bytes)


class _ClientSink:
    """File-like adapter: buffered ``write()`` → DATA frames."""

    def __init__(self, client: AnalysisClient, chunk_bytes: int) -> None:
        self._client = client
        self._chunk = chunk_bytes
        self._buf = bytearray()
        self.closed = False

    def write(self, data: bytes) -> int:
        self._buf += data
        while len(self._buf) >= self._chunk:
            self._client.send(bytes(self._buf[: self._chunk]))
            del self._buf[: self._chunk]
        return len(data)

    def flush(self) -> None:
        if self._buf:
            self._client.send(bytes(self._buf))
            self._buf.clear()

    def close(self) -> None:
        if not self.closed:
            self.flush()
            self.closed = True


def fetch_report(
    source: str | Path,
    config: str = "hwlc+dr",
    *,
    socket_path: str | None = None,
    host: str | None = None,
    port: int | None = None,
    session: str | None = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> bytes:
    """One-call convenience: stream ``source`` (a ``.rptr`` file) to the
    server and return the report bytes.  With ``session``, resumes that
    checkpointed session and streams only the remainder of the file."""
    with AnalysisClient(
        socket_path=socket_path, host=host, port=port, chunk_bytes=chunk_bytes
    ) as client:
        welcome = client.hello(config, session=session)
        client.stream_file(source, offset=int(welcome.get("offset", 0)))
        return client.finish()
