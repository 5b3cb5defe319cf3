"""Shared fixtures for the service test suite.

Every service test talks to the shape ``repro serve`` runs: a
:class:`~repro.service.ShardedAnalysisServer` acceptor in front of
worker processes.  ``acceptor`` is one package-wide, one-worker
acceptor with a checkpoint directory, shared by the tests that need no
fresh state; a test that needs its own options, a crash or a second
worker starts its own.  Tests that patch a worker's internals drive a
listener-less :class:`~repro.service.AnalysisServer` in the test
process through :func:`adopt`, the call a worker makes for each
connection the acceptor hands it.

The ``traces`` fixture is the byte-identity oracle: every report the
service produces must equal the offline ``repro trace replay`` report
byte-for-byte, whatever process the session happened to land on.
``predictive_traces`` does the same for the latent-bug cases T9 and
T10 under the ``predictive`` profile.  ``BAD_HELLOS`` and
:func:`raw_hello` drive the acceptor with HELLO bodies whose fields
have the wrong JSON type, and :func:`raw_failing_session` with a
session whose analysis fails.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.api import Pipeline
from repro.api.profiles import profile
from repro.detectors import HelgrindDetector
from repro.runtime.trace import replay_trace
from repro.service import ShardedAnalysisServer, protocol

CASES = ("T1", "T2", "T3")
CONFIGS = ("original", "hwlc", "hwlc+dr")

#: ``name: (HELLO body, text the ERROR frame must carry)`` — each field
#: the server hashes, looks up or joins into a path, sent as a JSON type
#: it cannot use.
BAD_HELLOS = {
    "config-list": ({"config": ["x"]}, "unknown detector configuration"),
    "config-object": ({"config": {"a": 1}}, "unknown detector configuration"),
    "session-int": ({"session": 5}, "HELLO session must be a string"),
    "session-list": ({"session": ["x"]}, "HELLO session must be a string"),
    "trace-list": ({"trace": ["x"]}, "HELLO trace must be a string"),
    "trace-int": ({"trace": 5}, "HELLO trace must be a string"),
    "trace-object": ({"trace": {"a": 1}}, "HELLO trace must be a string"),
}


def wait_until(cond, timeout: float = 15.0, interval: float = 0.02) -> bool:
    """Poll ``cond`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(interval)
    return cond()


def metric_sum(snapshot: dict, name: str) -> float:
    """The sum over every sample of family ``name`` (0 if absent)."""
    family = snapshot.get("metrics", {}).get(name)
    return sum(s["value"] for s in family["samples"]) if family else 0.0


def connect(address: str | tuple[str, int], timeout: float) -> socket.socket:
    """A raw client socket: ``address`` is a unix socket path or a TCP
    ``(host, port)``, as a server's ``address`` gives it."""
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
        return sock
    return socket.create_connection(address, timeout=timeout)


def client_endpoint(address: str | tuple[str, int]) -> dict:
    """``AnalysisClient``/``fetch_report`` endpoint keywords for a
    server's ``address``."""
    if isinstance(address, str):
        return {"socket_path": address}
    host, port = address
    return {"host": host, "port": port}


def raw_hello(
    address: str | tuple[str, int], body: dict
) -> tuple[int, dict] | None:
    """Send ``body`` as a HELLO exactly as given; the server's first
    answer as ``(frame type, JSON body)``, ``None`` if it hung up."""
    with connect(address, 10.0) as sock:
        protocol.send_json(sock, protocol.HELLO, body)
        frame = protocol.FrameReader(sock).read()
    if frame is None:
        return None
    ftype, payload = frame
    return ftype, protocol.decode_json(payload)


def adopt(server, hello: dict, assigned: str | None = None) -> socket.socket:
    """One end of a socketpair whose other end ``server`` (a
    listener-less ``AnalysisServer``) adopted with ``hello``, as a
    worker adopts each connection the acceptor hands it."""
    ours, theirs = socket.socketpair()
    ours.settimeout(10.0)
    server.adopt_connection(theirs, hello, assigned=assigned)
    return ours


def adopted_report(
    server, path, hello: dict, assigned: str | None = None,
    chunk_bytes: int = 4096,
) -> bytes:
    """Stream ``path`` from the WELCOME's offset over an adopted
    connection, spending credits as ``AnalysisClient`` does, FINISH,
    and return the REPORT bytes."""
    with adopt(server, hello, assigned) as sock:
        reader = protocol.FrameReader(sock)

        def expect(wanted: int) -> bytes:
            ftype, payload = reader.read()
            assert ftype == wanted, (protocol.frame_name(ftype), payload)
            return payload

        welcome = protocol.decode_json(expect(protocol.WELCOME))
        credits = welcome["credits"]
        data = path.read_bytes()[welcome["offset"]:]
        for pos in range(0, len(data), chunk_bytes):
            if not credits:
                credits = protocol.decode_json(expect(protocol.CREDIT))["credits"]
            protocol.send_frame(sock, protocol.DATA, data[pos:pos + chunk_bytes])
            credits -= 1
        protocol.send_frame(sock, protocol.FINISH)
        while (frame := reader.read())[0] == protocol.CREDIT:
            pass
        assert frame[0] == protocol.REPORT, frame
        return frame[1]


def raw_failing_session(socket_path: str) -> list[tuple[int, dict]]:
    """Open a session, send one DATA frame that is not RPTR and FINISH;
    every frame the server answers with, up to EOF.  The connection
    closes after the ERROR frame, so a read that waits 2 s for that EOF
    raises ``TimeoutError``."""
    with connect(socket_path, 2.0) as sock:
        protocol.send_json(sock, protocol.HELLO, {"config": "hwlc+dr"})
        protocol.send_frame(sock, protocol.DATA, b'{"type":"MemoryAccess"}\n')
        protocol.send_frame(sock, protocol.FINISH)
        reader = protocol.FrameReader(sock)
        frames = []
        while (frame := reader.read()) is not None:
            ftype, payload = frame
            frames.append((ftype, protocol.decode_json(payload)))
    return frames


@pytest.fixture(scope="package")
def traces(tmp_path_factory):
    """T1–T3 recorded under each paper configuration, plus the offline
    reference report bytes: ``{(case, config): (path, report_bytes)}``."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import evaluation_cases

    root = tmp_path_factory.mktemp("service-traces")
    by_id = {c.case_id: c for c in evaluation_cases()}
    out = {}
    for case_id in CASES:
        for config in CONFIGS:
            path = root / f"{case_id}-{config.replace('+', '_')}.rptr"
            with TraceRecorder(path, format="binary") as recorder:
                run_proxy_case(by_id[case_id], config, seed=42,
                               extra_hooks=(recorder,))
            det = HelgrindDetector(profile(config).config())
            replay_trace(path, det)
            reference = json.dumps(det.report.to_dict(), indent=2).encode()
            out[(case_id, config)] = (path, reference)
    return out


@pytest.fixture(scope="package")
def predictive_traces(tmp_path_factory):
    """T9 and T10 recorded under ``predictive``, plus the offline
    report bytes: ``{case: (path, report_bytes)}``."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import predictive_cases

    root = tmp_path_factory.mktemp("predictive-traces")
    out = {}
    for case in predictive_cases():
        path = root / f"{case.case_id}.rptr"
        with TraceRecorder(path) as recorder:
            run_proxy_case(case, "predictive", seed=42, extra_hooks=(recorder,))
        report = Pipeline("predictive").replay(path).render()
        out[case.case_id] = (path, report.encode("utf-8"))
    return out


@pytest.fixture(scope="package")
def shared_acceptor(tmp_path_factory):
    root = tmp_path_factory.mktemp("shared-acceptor")
    server = ShardedAnalysisServer(
        socket_path=str(root / "repro.sock"), workers=1, threads=2,
        checkpoint_dir=str(root / "ckpt"),
    )
    server.start()
    yield server
    server.shutdown(drain=True, timeout=30.0)


@pytest.fixture
def acceptor(shared_acceptor):
    """The package's one-worker acceptor (checkpoint directory at
    ``acceptor.checkpoint_dir``), with no session an earlier test left
    open."""
    assert wait_until(lambda: not shared_acceptor.sessions_payload())
    return shared_acceptor
