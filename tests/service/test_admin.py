"""Tests for the ops plane: HTTP admin endpoint, worker-error
accounting, trace-id correlation, and the crash flight recorder.

The admin listener is read-only glass over a running server — these
tests assert the glass shows the truth: ``/sessions`` names the worker
that really owns the session (the hash ring's slot), ``/metrics`` is
the same merged snapshot ``repro client stat`` renders, ``/readyz``
flips to 503 the moment a drain begins, and a SIGKILLed worker leaves
a flight dump behind for the post-mortem.
"""

from __future__ import annotations

import io
import json
import os
import signal
import time
import urllib.error
import urllib.request

from repro.service import (
    AdminServer,
    AnalysisClient,
    AnalysisServer,
    ShardedAnalysisServer,
    fetch_report,
    protocol,
)
from repro.service.admin import ROUTES
from repro.telemetry.logs import StructuredLogger, read_flight_records
from repro.telemetry.schema import validate_snapshot

from tests.service.conftest import (
    adopt,
    adopted_report,
    metric_sum as _counter,
    wait_until as _wait_until,
)


def _get(address: tuple[str, int], path: str) -> tuple[int, str]:
    url = f"http://{address[0]}:{address[1]}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as err:  # 4xx/5xx still carry a body
        return err.code, err.read().decode("utf-8")


class TestAdminSingleProcess:
    """The admin plane over the package's one-worker acceptor."""

    def test_probes_and_route_listing(self, acceptor):
        admin = AdminServer(acceptor, port=0)
        admin.start()
        try:
            status, body = _get(admin.address, "/healthz")
            health = json.loads(body)
            assert status == 200
            assert health["status"] == "ok"
            assert health["pid"] == os.getpid()
            assert health["uptime_seconds"] >= 0

            status, body = _get(admin.address, "/readyz")
            assert status == 200
            assert json.loads(body) == {"status": "ready"}

            status, body = _get(admin.address, "/")
            assert status == 200
            assert json.loads(body)["routes"] == ROUTES

            status, body = _get(admin.address, "/no-such-route")
            assert status == 404
            assert sorted(ROUTES) == json.loads(body)["routes"]

            # trailing slashes and query strings are tolerated
            assert _get(admin.address, "/healthz/")[0] == 200
            assert _get(admin.address, "/metrics?scrape=1")[0] == 200
        finally:
            admin.shutdown()

    def test_metrics_views_reflect_finished_sessions(self, acceptor, traces):
        admin = AdminServer(acceptor, port=0)
        admin.start()
        try:
            before = json.loads(_get(admin.address, "/metrics.json")[1])
            path, reference = traces[("T1", "hwlc+dr")]
            assert fetch_report(path, socket_path=acceptor.address) == reference

            status, text = _get(admin.address, "/metrics")
            assert status == 200
            assert "# TYPE repro_service_sessions_total counter" in text
            sessions = int(_counter(before, "repro_service_sessions_total")) + 1
            assert f"repro_service_sessions_total {sessions}" in text

            status, body = _get(admin.address, "/metrics.json")
            assert status == 200
            snapshot = json.loads(body)
            validate_snapshot(snapshot)
            assert _counter(snapshot, "repro_service_reports_total") == (
                _counter(before, "repro_service_reports_total") + 1
            )
        finally:
            admin.shutdown()

    def test_sessions_view_tracks_the_session_lifecycle(
        self, acceptor, traces
    ):
        admin = AdminServer(acceptor, port=0)
        admin.start()
        client = AnalysisClient(socket_path=acceptor.address)
        try:
            welcome = client.hello("hwlc+dr")
            assert welcome["trace"]  # correlation id minted at open

            status, body = _get(admin.address, "/sessions")
            assert status == 200
            (entry,) = json.loads(body)["sessions"]
            assert entry["session"] == welcome["session"]
            assert entry["worker"] == "w0"
            assert entry["state"] == "active"
            assert entry["config"] == "hwlc+dr"
            assert entry["trace"] == welcome["trace"]

            path, reference = traces[("T1", "hwlc+dr")]
            client.stream_file(path)
            assert client.finish() == reference
            # the finished session leaves the live view
            assert _wait_until(
                lambda: json.loads(_get(admin.address, "/sessions")[1])[
                    "sessions"
                ]
                == []
            )
        finally:
            client.close()
            admin.shutdown()

    def test_readyz_flips_to_503_on_drain(self, tmp_path):
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "a.sock"), workers=1, threads=1
        )
        server.start()
        admin = AdminServer(server, port=0)
        admin.start()
        try:
            assert _get(admin.address, "/readyz")[0] == 200
            server.shutdown(drain=True, timeout=30.0)
            status, body = _get(admin.address, "/readyz")
            assert status == 503
            assert json.loads(body) == {"status": "draining"}
        finally:
            admin.shutdown()
            server.shutdown(drain=True, timeout=30.0)


class TestAdminShutdown:
    def test_shutdown_returns_promptly(self):
        """The serve loop looks at its stop flag often, so a shutdown
        does not wait out the stdlib's half-second poll."""
        admin = AdminServer(None, port=0)
        admin.start()
        time.sleep(0.05)
        start = time.perf_counter()
        admin.shutdown()
        assert time.perf_counter() - start < 0.25


class TestAdminSharded:
    def test_sessions_name_the_owning_worker(self, tmp_path, traces):
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"), workers=2, threads=1
        )
        server.start()
        admin = AdminServer(server, port=0)
        admin.start()
        client = AnalysisClient(socket_path=server.address)
        try:
            welcome = client.hello("hwlc+dr")
            session_id = welcome["session"]
            owner = f"w{server.ring.slot(session_id)}"
            # the acceptor minted the trace id and the worker echoed it
            assert welcome["trace"].startswith(session_id + "-")

            def listed() -> list[dict]:
                return json.loads(_get(admin.address, "/sessions")[1])[
                    "sessions"
                ]

            assert _wait_until(
                lambda: any(s["session"] == session_id for s in listed())
            )
            (entry,) = [s for s in listed() if s["session"] == session_id]
            assert entry["worker"] == owner
            assert entry["trace"] == welcome["trace"]

            status, body = _get(admin.address, "/workers")
            workers = json.loads(body)["workers"]
            assert [w["worker"] for w in workers] == ["w0", "w1"]
            assert all(w["alive"] for w in workers)
            assert len({w["pid"] for w in workers}) == 2
            assert all(w["restarts"] == 0 for w in workers)

            path, reference = traces[("T1", "hwlc+dr")]
            client.stream_file(path)
            assert client.finish() == reference

            status, text = _get(admin.address, "/metrics")
            assert status == 200
            assert "repro_service_workers 2" in text
            snapshot = json.loads(_get(admin.address, "/metrics.json")[1])
            validate_snapshot(snapshot)
            assert _counter(snapshot, "repro_service_sessions_total") == 1
        finally:
            client.close()
            admin.shutdown()
            server.shutdown(drain=True, timeout=30.0)


class TestWorkerErrorAccounting:
    def test_worker_loop_survives_counts_and_logs(self, traces, monkeypatch):
        """A bug in batch processing must not kill the worker thread:
        the loop counts it, logs the traceback with the session id, and
        keeps serving other sessions.  The worker's server runs in this
        process, fed through ``adopt`` as the acceptor feeds it."""
        from repro.service import session as session_mod

        stream = io.StringIO()
        server = AnalysisServer(
            logger=StructuredLogger(stream, level="error"),
        )
        server.start()
        sock = adopt(server, {"config": "hwlc+dr"}, assigned="s0001")
        try:
            def boom(self):
                raise RuntimeError("injected batch failure")

            monkeypatch.setattr(
                session_mod.ServiceSession, "_process_batch", boom
            )
            reader = protocol.FrameReader(sock)
            assert reader.read()[0] == protocol.WELCOME
            protocol.send_frame(sock, protocol.DATA, b"\x00" * 64)

            def errors_counted() -> float:
                with server.registry_lock:
                    snapshot = server.registry.snapshot()
                return _counter(snapshot, "repro_service_worker_errors_total")

            assert _wait_until(
                lambda: errors_counted() >= 1
            ), "worker error was never counted"
            monkeypatch.undo()

            records = [
                json.loads(line)
                for line in stream.getvalue().splitlines()
                if line
            ]
            errors = [r for r in records if r["event"] == "worker_error"]
            assert errors, records
            assert errors[0]["session"] == "s0001"
            assert "RuntimeError: injected batch failure" in (
                errors[0]["traceback"]
            )

            # the server is still fully operational afterwards
            path, reference = traces[("T1", "hwlc+dr")]
            assert adopted_report(
                server, path, {"config": "hwlc+dr"}, assigned="s0002"
            ) == reference
        finally:
            sock.close()
            server.shutdown(drain=True, timeout=10.0)


class TestFlightRecorder:
    def test_sigkilled_worker_leaves_a_flight_dump(self, tmp_path, traces):
        """kill -9 mid-session: the supervisor preserves the victim's
        spooled ring as ``flight-w<slot>-<ts>.jsonl`` before respawning
        the slot, and the dump holds the last protocol frames."""
        path, _reference = traces[("T2", "hwlc+dr")]
        data = path.read_bytes()
        ckpt = tmp_path / "ckpt"
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"),
            workers=2,
            threads=1,
            checkpoint_dir=str(ckpt),
            checkpoint_every=1,
        )
        server.start()
        client = AnalysisClient(socket_path=server.address, chunk_bytes=1024)
        try:
            client.hello("hwlc+dr")
            slot = server.ring.slot(client.session_id)
            victim = server._slots[slot].proc.pid
            spool = ckpt / f"flight-w{slot}.spool"

            half = len(data) // 2
            pos = 0
            while pos < half:
                client.send(data[pos:pos + 1024])
                pos += 1024
            # the time-based sync guarantees the spool exists shortly
            # even under light traffic
            assert _wait_until(spool.exists), "flight spool never synced"
            os.kill(victim, signal.SIGKILL)
            client.close()

            def dumped() -> list:
                return list(ckpt.glob(f"flight-w{slot}-*.jsonl"))

            assert _wait_until(lambda: bool(dumped())), (
                "supervisor never dumped the flight spool"
            )
            (dump,) = dumped()
            assert not spool.exists()  # renamed, not copied
            records = read_flight_records(dump)
            assert records
            frames = [r for r in records if r.get("event") == "frame"]
            assert frames and frames[-1]["dir"] == "recv"
            assert any(r["frame"] == "DATA" for r in frames)
        finally:
            client.close()
            server.shutdown(drain=True, timeout=30.0)

    def test_clean_drain_deletes_the_spools(self, tmp_path, traces):
        """A graceful shutdown is not a crash: workers delete their
        spools on the way out, so a surviving spool file always means
        an abnormal exit."""
        ckpt = tmp_path / "ckpt"
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"),
            workers=2,
            threads=1,
            checkpoint_dir=str(ckpt),
        )
        server.start()
        try:
            path, reference = traces[("T1", "hwlc+dr")]
            assert fetch_report(path, socket_path=server.address) == reference
            assert _wait_until(
                lambda: any(ckpt.glob("flight-w*.spool"))
            ), "workers never spooled their rings"
        finally:
            server.shutdown(drain=True, timeout=30.0)
        assert not list(ckpt.glob("flight-w*.spool"))
        assert not list(ckpt.glob("flight-w*-*.jsonl"))
