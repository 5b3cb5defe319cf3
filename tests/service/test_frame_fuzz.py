"""Fuzzing the service's frame layer through its one way in.

Every connection reaches ``repro serve`` through the acceptor, which
reads it up to its HELLO and hands it to a worker, so one property over
the shared one-worker acceptor covers both frame readers.  Each example
connects and sends raw bytes, or generated frames with or without a
valid HELLO in front — any type byte, a length prefix up to 2**32 - 1
that may disagree with its body, and a body of a few KiB at most, JSON
or not — then shuts down its write side.  The properties:

* every frame the service answers with is WELCOME, CREDIT, REPORT,
  STATS or ERROR, and the service ends the connection within a
  deadline;
* afterwards the acceptor still serves a report byte-identical to
  offline replay, its worker never died, and no handshake thread is
  left behind.
"""

from __future__ import annotations

import json
import socket
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import fetch_report, protocol

from tests.service.conftest import connect, metric_sum, wait_until

#: Every frame type a server may send.
ANSWERS = {
    protocol.WELCOME, protocol.CREDIT, protocol.REPORT, protocol.STATS,
    protocol.ERROR,
}

#: How long one example waits for the service to end its connection.
DEADLINE_S = 5.0

HELLO = protocol.HEADER.pack(protocol.HELLO, 20) + b'{"config":"hwlc+dr"}'

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
#: Control bodies naming the keys a HELLO or STAT reads, with any value.
controls = st.dictionaries(
    st.sampled_from(["config", "session", "trace", "assign", "per_worker"]),
    json_values | st.sampled_from(["hwlc+dr", "predictive", "djit"]),
    max_size=3,
)
bodies = st.one_of(
    st.binary(max_size=4096),
    json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    controls.map(lambda body: json.dumps(body).encode("utf-8")),
)


@st.composite
def frames(draw) -> bytes:
    ftype = draw(
        st.sampled_from(sorted(protocol._NAMES)) | st.integers(0, 255)
    )
    body = draw(bodies)
    length = draw(st.just(len(body)) | st.integers(0, 2**32 - 1))
    return protocol.HEADER.pack(ftype, length) + body


conversations = st.one_of(
    st.binary(max_size=256),
    st.tuples(
        st.sampled_from([b"", HELLO]), st.lists(frames(), max_size=10)
    ).map(lambda parts: parts[0] + b"".join(parts[1])),
)


def _exchange(address: str, payload: bytes) -> list[int]:
    """Send ``payload``, shut the write side, and read every answer
    frame's type until the service ends the connection."""
    with connect(address, DEADLINE_S) as sock:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the service may answer and close before reading it all
        reader = protocol.FrameReader(sock)
        answers = []
        try:
            while (frame := reader.read()) is not None:
                answers.append(frame[0])
        except ConnectionResetError:
            pass  # closed with our bytes unread: the end, as EOF is
    return answers


def test_any_frames_get_typed_answers_then_the_end(acceptor, traces):
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(payload=conversations)
    def answered_then_closed(payload: bytes) -> None:
        answers = _exchange(acceptor.address, payload)
        assert set(answers) <= ANSWERS, [protocol.frame_name(a) for a in answers]

    answered_then_closed()
    path, reference = traces[("T1", "hwlc+dr")]
    assert fetch_report(path, socket_path=acceptor.address) == reference
    stats = acceptor.stats_payload()
    assert metric_sum(stats, "repro_service_worker_restarts_total") == 0
    assert wait_until(
        lambda: not any(
            t.name == "repro-shard-handshake" for t in threading.enumerate()
        ),
        timeout=5.0,
    )
