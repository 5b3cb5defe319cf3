"""Integration tests for the streaming analysis service.

The contracts under test are the tentpole's acceptance criteria:

* a session's report is **byte-identical** to the offline
  ``repro trace replay`` report, for T1–T3 under all three paper
  configurations, with any number of concurrent sessions;
* a **killed** server (no drain) resumes a checkpointed session
  mid-stream and still produces the identical report, and a damaged
  checkpoint file fails its resume with an ERROR frame;
* a HELLO whose ``config`` or ``session`` has the wrong JSON type gets
  an ERROR frame, and the server goes on serving;
* a session opened as ``predictive`` reports what an offline
  predictive replay reports, predictions included;
* the per-session ingest queue **never buffers more than the
  configured bound** and credit exhaustion is visible as
  ``repro_service_backpressure_stalls_total``;
* the CLI round trip (``repro client report``/``stat``) works over a
  unix socket against an in-process server, and a server ERROR frame
  ends the command with one ``error:`` line and exit status 2.

Servers run in-process (threads), so each test owns its lifecycle and
nothing leaks between tests.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
import zlib

import pytest

from repro.runtime import codec
from repro.runtime.events import EVENT_TYPES, LockAcquire
from repro.service import (
    AnalysisClient,
    AnalysisServer,
    CheckpointStore,
    ServiceError,
    fetch_report,
    protocol,
)

from tests.service.conftest import (  # shared with test_shard
    BAD_HELLOS,
    CASES,
    CONFIGS,
    raw_hello,
)


@pytest.fixture
def unix_server(tmp_path):
    server = AnalysisServer(
        socket_path=str(tmp_path / "repro.sock"), workers=2
    )
    server.start()
    yield server
    server.shutdown(drain=True, timeout=10.0)


def _family(server, name):
    with server.registry_lock:
        return server.registry.snapshot()["metrics"].get(name)


def _sample_values(server, name):
    family = _family(server, name)
    return [s["value"] for s in family["samples"]] if family else []


class TestRoundTrip:
    def test_report_byte_identical_over_unix_socket(self, unix_server, traces):
        path, reference = traces[("T1", "hwlc+dr")]
        got = fetch_report(path, "hwlc+dr", socket_path=unix_server.address)
        assert got == reference

    @pytest.mark.parametrize("config", CONFIGS)
    def test_concurrent_sessions_all_cases(self, unix_server, traces, config):
        """Three sessions streaming T1–T3 at once, tiny chunks so their
        blocks interleave on the worker pool: every report must equal
        its offline twin byte-for-byte."""
        results: dict[str, bytes] = {}
        errors: list[Exception] = []

        def one(case_id: str) -> None:
            try:
                results[case_id] = fetch_report(
                    traces[(case_id, config)][0],
                    config,
                    socket_path=unix_server.address,
                    chunk_bytes=1024,
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=one, args=(case_id,)) for case_id in CASES
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        for case_id in CASES:
            assert results[case_id] == traces[(case_id, config)][1], case_id

    def test_session_metrics_populated(self, unix_server, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        fetch_report(path, socket_path=unix_server.address)
        assert sum(
            _sample_values(unix_server, "repro_service_bytes_ingested_total")
        ) == path.stat().st_size
        assert sum(
            _sample_values(unix_server, "repro_service_reports_total")
        ) == 1
        assert _sample_values(unix_server, "repro_service_sessions_total") == [1]

    def test_stats_frame_matches_registry(self, unix_server, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        fetch_report(path, socket_path=unix_server.address)
        with AnalysisClient(socket_path=unix_server.address) as client:
            snapshot = client.stats()
        names = set(snapshot["metrics"])
        assert {
            "repro_service_sessions_total",
            "repro_service_events_total",
            "repro_service_queue_high_water",
            "repro_service_backpressure_stalls_total",
        } <= names


class TestErrors:
    def test_unknown_config_rejected(self, unix_server):
        with AnalysisClient(socket_path=unix_server.address) as client:
            with pytest.raises(ServiceError) as exc:
                client.hello("helgrind++")
        assert "hwlc+dr" in str(exc.value)  # the error lists known names

    def test_resume_without_checkpoint_dir(self, unix_server):
        with AnalysisClient(socket_path=unix_server.address) as client:
            with pytest.raises(ServiceError):
                client.hello(session="s0001")

    @pytest.mark.parametrize(
        "checkpoints", [False, True], ids=["no-checkpoints", "checkpoints"]
    )
    def test_mistyped_hello_is_an_error_frame(
        self, tmp_path, traces, checkpoints
    ):
        """Each HELLO field with the wrong JSON type is answered with an
        ERROR frame instead of killing the connection's reader thread,
        and the same server then serves a byte-identical report."""
        path, reference = traces[("T1", "hwlc+dr")]
        server = AnalysisServer(
            socket_path=str(tmp_path / "a.sock"),
            workers=1,
            checkpoint_dir=str(tmp_path / "ck") if checkpoints else None,
        )
        server.start()
        try:
            for name, (body, message) in BAD_HELLOS.items():
                answer = raw_hello(server.address, body)
                assert answer is not None, f"{name}: no ERROR frame"
                ftype, reply = answer
                assert ftype == protocol.ERROR, name
                assert message in reply["error"], name
            assert fetch_report(path, socket_path=server.address) == reference
        finally:
            server.shutdown(drain=True, timeout=10.0)

    def test_data_before_hello(self, unix_server):
        with AnalysisClient(socket_path=unix_server.address) as client:
            with pytest.raises(ServiceError):
                client.send(b"xx")

    def test_corrupt_stream_fails_session_not_server(self, unix_server, traces):
        """Garbage bytes must kill the *session* (ERROR frame, metric)
        — never a worker thread; the next client is unaffected.  That
        includes a header declaring a 1 TiB string, which must fail on
        arrival rather than have the worker buffer the stream, a
        block of an unknown event type, and a row naming a stack the
        stream never defined."""
        huge = bytearray([codec._TAG_STRING])
        codec._write_varint(huge, 2**40)
        unknown_type = bytes([codec._TAG_BLOCK, 255, 0, 1])
        lock = EVENT_TYPES.index(LockAcquire)
        seq = codec._FLAG_SEQ_STEP
        undefined_stack = bytes([codec._TAG_BLOCK, lock, seq, 1, 0]) + (
            codec._ROW_STRUCTS[lock][seq].pack(0, 99, 7, 0, 0)
        )
        corrupt = [
            (b"NOPE this is not RPTR at all", "bad magic"),
            (codec.MAGIC + huge, "record limit"),
            (codec.MAGIC + unknown_type, "corrupt trace"),
            (codec.MAGIC + undefined_stack, "corrupt trace"),
        ]
        for payload, reason in corrupt:
            with AnalysisClient(socket_path=unix_server.address) as client:
                client.hello("hwlc+dr")
                client.send(payload)
                with pytest.raises(ServiceError) as exc:
                    client.finish()
            assert reason in str(exc.value)
        assert sum(
            _sample_values(unix_server, "repro_service_analysis_errors_total")
        ) == len(corrupt)
        # Both workers must still be alive and serving.
        path, reference = traces[("T1", "hwlc+dr")]
        for _ in range(2):
            assert fetch_report(
                path, socket_path=unix_server.address
            ) == reference


def _framed(payload: bytes) -> bytes:
    """A checkpoint file holding ``payload`` under a valid header."""
    from repro.service.checkpoint import _HEADER

    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _flip_middle_byte(data: bytes) -> bytes:
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 0x01]) + data[mid + 1:]


#: ``name: (checkpoint file -> damaged file, expected message)``.
CHECKPOINT_DAMAGE = {
    "truncated-to-3-bytes": (lambda f: f[:3], "shorter than its header"),
    "truncated-by-1-byte": (lambda f: f[:-1], "payload bytes"),
    "flipped-byte": (_flip_middle_byte, "checksum mismatch"),
    "not-a-pickle": (lambda f: _framed(b"not a pickle"), "UnpicklingError"),
    "not-a-dict": (lambda f: _framed(pickle.dumps([1])), "not a dict"),
}


class TestKillAndResume:
    def test_killed_server_resumes_byte_identical(self, tmp_path, traces):
        path, reference = traces[("T2", "hwlc+dr")]
        data = path.read_bytes()
        ckpt_dir = tmp_path / "ckpt"

        server1 = AnalysisServer(
            socket_path=str(tmp_path / "one.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
            checkpoint_every=300,
        )
        server1.start()
        client = AnalysisClient(socket_path=server1.address)
        client.hello("hwlc+dr")
        session_id = client.session_id
        # Stream roughly half the trace, then wait until the periodic
        # checkpoint cadence has fired at least once.
        half = len(data) // 2
        pos = 0
        while pos < half:
            client.send(data[pos:pos + 4096])
            pos += 4096
        store = CheckpointStore(ckpt_dir)
        deadline = time.monotonic() + 10
        while not store.session_ids() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert store.session_ids() == [session_id]
        server1.shutdown(drain=False)  # the crash
        client.close()

        ckpt = store.load(session_id)
        assert 0 < ckpt.offset < len(data)

        server2 = AnalysisServer(
            socket_path=str(tmp_path / "two.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server2.start()
        try:
            got = fetch_report(
                path, socket_path=server2.address, session=session_id
            )
            assert got == reference
            assert _sample_values(
                server2, "repro_service_sessions_resumed_total"
            ) == [1]
            # A finished session's checkpoint is garbage-collected
            # (by the worker shortly after it ships the report).
            deadline = time.monotonic() + 5
            while store.session_ids() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert store.session_ids() == []
        finally:
            server2.shutdown(drain=True, timeout=10.0)

    def test_fresh_ids_skip_checkpointed_sessions(self, tmp_path, traces):
        """After a restart, fresh session ids must not collide with a
        prior incarnation's resumable checkpoints — a collision would
        overwrite, then delete, the other client's checkpoint file."""
        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        ckpt_dir = tmp_path / "ckpt"
        server1 = AnalysisServer(
            socket_path=str(tmp_path / "one.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
            checkpoint_every=1,
        )
        server1.start()
        client = AnalysisClient(socket_path=server1.address)
        client.hello("hwlc+dr")
        old_id = client.session_id
        client.send(data[:8192])
        store = CheckpointStore(ckpt_dir)
        deadline = time.monotonic() + 10
        while not store.session_ids() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert store.session_ids() == [old_id]
        server1.shutdown(drain=False)
        client.close()

        server2 = AnalysisServer(
            socket_path=str(tmp_path / "two.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server2.start()
        try:
            # A full fresh run (open → stream → finish, which deletes
            # *its own* checkpoint) must get a new id and leave the old
            # checkpoint untouched…
            with AnalysisClient(socket_path=server2.address) as fresh:
                fresh.hello("hwlc+dr")
                assert fresh.session_id != old_id
                fresh.stream_file(path)
                assert fresh.finish() == reference
            assert store.session_ids() == [old_id]
            # …and the old session must still resume to the same bytes.
            assert fetch_report(
                path, socket_path=server2.address, session=old_id
            ) == reference
        finally:
            server2.shutdown(drain=True, timeout=10.0)

    def test_concurrent_resume_single_winner(self, tmp_path, traces,
                                             monkeypatch):
        """Two simultaneous HELLO{session: X} frames: exactly one may
        win; the loser gets 'already active' even though both arrive
        before the winner's checkpoint load completes."""
        path, reference = traces[("T2", "hwlc+dr")]
        data = path.read_bytes()
        ckpt_dir = tmp_path / "ckpt"
        server1 = AnalysisServer(
            socket_path=str(tmp_path / "one.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
            checkpoint_every=1,
        )
        server1.start()
        client = AnalysisClient(socket_path=server1.address)
        client.hello("hwlc+dr")
        session_id = client.session_id
        client.send(data[:8192])
        store = CheckpointStore(ckpt_dir)
        deadline = time.monotonic() + 10
        while not store.session_ids() and time.monotonic() < deadline:
            time.sleep(0.02)
        server1.shutdown(drain=False)
        client.close()

        real_load = CheckpointStore.load
        monkeypatch.setattr(
            CheckpointStore,
            "load",
            lambda self, sid: (time.sleep(0.4), real_load(self, sid))[1],
        )
        server2 = AnalysisServer(
            socket_path=str(tmp_path / "two.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server2.start()
        outcomes: list[str] = []

        def try_resume(delay: float) -> None:
            time.sleep(delay)
            try:
                with AnalysisClient(socket_path=server2.address) as c:
                    c.hello(session=session_id)
                    outcomes.append("resumed")
            except ServiceError:
                outcomes.append("rejected")

        threads = [
            threading.Thread(target=try_resume, args=(delay,))
            for delay in (0.0, 0.15)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        try:
            assert sorted(outcomes) == ["rejected", "resumed"]
            # Wait out the winner's detach (async, on the worker pool),
            # then the session must resume cleanly from its checkpoint.
            deadline = time.monotonic() + 10
            while server2._sessions and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fetch_report(
                path, socket_path=server2.address, session=session_id
            ) == reference
        finally:
            server2.shutdown(drain=True, timeout=10.0)

    def test_resume_active_session_rejected(self, tmp_path, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        server = AnalysisServer(
            socket_path=str(tmp_path / "a.sock"),
            workers=1,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        server.start()
        try:
            with AnalysisClient(socket_path=server.address) as first:
                first.hello("hwlc+dr")
                with AnalysisClient(socket_path=server.address) as second:
                    with pytest.raises(ServiceError):
                        second.hello(session=first.session_id)
        finally:
            server.shutdown(drain=True, timeout=10.0)

    def test_unloadable_checkpoint_is_an_error_frame(self, tmp_path, traces):
        """A checkpoint whose snapshot no longer unpickles — a frame
        pickled before frames became tuples — fails the resume with an
        ERROR frame, and the server goes on serving fresh sessions."""
        from repro.service import Checkpoint
        from tests.conftest import DATACLASS_FRAME_PICKLE

        path, reference = traces[("T1", "hwlc+dr")]
        ckpt_dir = tmp_path / "ck"
        CheckpointStore(ckpt_dir).save(
            Checkpoint("s0042", "hwlc+dr", 0, 0, DATACLASS_FRAME_PICKLE)
        )
        server = AnalysisServer(
            socket_path=str(tmp_path / "a.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server.start()
        try:
            with AnalysisClient(socket_path=server.address) as client:
                with pytest.raises(ServiceError) as exc:
                    client.hello(session="s0042")
            assert "unsupported session snapshot" in str(exc.value)
            assert fetch_report(path, socket_path=server.address) == reference
        finally:
            server.shutdown(drain=True, timeout=10.0)

    @pytest.mark.parametrize("damage", CHECKPOINT_DAMAGE)
    def test_corrupt_checkpoint_is_an_error_frame(
        self, tmp_path, traces, damage
    ):
        """A damaged checkpoint file fails the resume with an ERROR
        frame naming it corrupt, and the server goes on serving fresh
        sessions."""
        from repro.api import Session
        from repro.service import Checkpoint

        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        analysed = Session("hwlc+dr")
        analysed.feed(data[: len(data) // 2])
        saved = CheckpointStore(tmp_path / "ck").save(
            Checkpoint(
                "s0042", "hwlc+dr", analysed.bytes_fed,
                analysed.events_seen, analysed.snapshot(),
            )
        )
        damaged, message = CHECKPOINT_DAMAGE[damage]
        saved.write_bytes(damaged(saved.read_bytes()))
        server = AnalysisServer(
            socket_path=str(tmp_path / "a.sock"),
            workers=1,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        server.start()
        try:
            with AnalysisClient(socket_path=server.address) as client:
                with pytest.raises(
                    ServiceError, match=f"corrupt checkpoint .*{message}"
                ):
                    client.hello(session="s0042")
            assert fetch_report(path, socket_path=server.address) == reference
        finally:
            server.shutdown(drain=True, timeout=10.0)


class TestPredictiveSessions:
    @pytest.mark.parametrize("case_id", ("T9", "T10"))
    def test_report_matches_offline_predictive_replay(
        self, unix_server, predictive_traces, case_id
    ):
        """A session opened as ``predictive`` runs the prediction pass
        at FINISH: its REPORT equals an offline predictive replay of
        the same trace byte for byte, predictions included."""
        path, reference = predictive_traces[case_id]
        assert b'"predicted-' in reference
        assert fetch_report(
            path, "predictive", socket_path=unix_server.address
        ) == reference


class TestBackpressure:
    def test_queue_bound_and_stalls(self, traces):
        """A slow consumer (throttled worker) must cap the per-session
        buffer at ``queue_blocks`` and surface the client's credit
        exhaustion as backpressure stalls."""
        path, reference = traces[("T2", "hwlc+dr")]
        bound = 3
        server = AnalysisServer(
            host="127.0.0.1", port=0, workers=1,
            queue_blocks=bound, throttle=0.01,
        )
        server.start()
        host, port = server.address
        try:
            with AnalysisClient(
                host=host, port=port, chunk_bytes=512
            ) as client:
                welcome = client.hello("hwlc+dr")
                assert welcome["credits"] == bound
                client.stream_file(path)
                assert client.finish() == reference
            high_water = _sample_values(
                server, "repro_service_queue_high_water"
            )
            stalls = _sample_values(
                server, "repro_service_backpressure_stalls_total"
            )
            assert high_water and max(high_water) <= bound
            assert stalls and stalls[0] >= 1
        finally:
            server.shutdown(drain=True, timeout=10.0)


class TestIdleTimeout:
    def test_backpressured_session_not_idle_closed(self, tmp_path, traces):
        """A credit-stalled but healthy client (slow worker draining a
        full queue) is mid-transfer, not idle: per-chunk drains count
        as activity and a session with work in flight is never reaped,
        even when one batch takes longer than ``idle_timeout``."""
        path, reference = traces[("T1", "hwlc+dr")]
        server = AnalysisServer(
            socket_path=str(tmp_path / "slow.sock"),
            workers=1,
            queue_blocks=2,
            throttle=0.08,  # 2-chunk batch = 0.16s > idle_timeout
            idle_timeout=0.15,
        )
        server.start()
        try:
            got = fetch_report(
                path, socket_path=server.address, chunk_bytes=4096
            )
            assert got == reference
            assert sum(
                _sample_values(server, "repro_service_idle_closed_total")
            ) == 0
        finally:
            server.shutdown(drain=True, timeout=10.0)

    def test_idle_session_checkpointed_and_resumable(self, tmp_path, traces):
        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        server = AnalysisServer(
            socket_path=str(tmp_path / "idle.sock"),
            workers=1,
            idle_timeout=0.15,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        server.start()
        try:
            client = AnalysisClient(socket_path=server.address)
            client.hello("hwlc+dr")
            session_id = client.session_id
            client.send(data[:8192])
            store = CheckpointStore(tmp_path / "ck")
            deadline = time.monotonic() + 10
            while not store.session_ids() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert store.session_ids() == [session_id]
            assert _sample_values(
                server, "repro_service_idle_closed_total"
            ) == [1]
            client.close()

            ckpt = store.load(session_id)
            got = fetch_report(
                path, socket_path=server.address, session=session_id
            )
            assert got == reference
            assert ckpt.offset <= len(data)
        finally:
            server.shutdown(drain=True, timeout=10.0)


class TestCliClient:
    def test_client_report_and_stat(self, unix_server, traces, tmp_path, capsys):
        from repro.cli import main

        path, reference = traces[("T3", "hwlc+dr")]
        out = tmp_path / "service-report.json"
        assert main([
            "client", "report", str(path), "hwlc+dr",
            "--socket", unix_server.address, "--report-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "reported locations" in printed
        assert out.read_bytes() == reference

        assert main(["client", "stat", "--socket", unix_server.address]) == 0
        printed = capsys.readouterr().out
        assert "repro_service_sessions_total" in printed

    def test_client_record_live_stream(self, unix_server, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "live-report.json"
        assert main([
            "client", "record", "T1", "hwlc+dr",
            "--socket", unix_server.address, "--report-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "streamed" in printed
        report = json.loads(out.read_bytes())
        assert report["warnings"]

    def test_server_error_frame_is_one_line(self, unix_server, tmp_path, capsys):
        """The server's ERROR frame ends ``client report`` with one
        ``error:`` line on stderr and exit status 2, as ``trace replay``
        ends on the same file."""
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        trace.write_bytes(b'{"type":"MemoryAccess"}\n')
        assert main([
            "client", "report", str(trace), "--socket", unix_server.address,
        ]) == 2
        assert capsys.readouterr().err == (
            "error: ValueError: not a binary trace (bad magic)\n"
        )

    def test_corrupt_checkpoint_resume_is_one_line(self, tmp_path, traces, capsys):
        from repro.cli import main

        path, _reference = traces[("T1", "hwlc+dr")]
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.mkdir()
        (ckpt_dir / "s0042.ckpt").write_bytes(b"abc")
        server = AnalysisServer(
            socket_path=str(tmp_path / "a.sock"),
            workers=1,
            checkpoint_dir=str(ckpt_dir),
        )
        server.start()
        try:
            assert main([
                "client", "report", str(path), "--session", "s0042",
                "--socket", server.address,
            ]) == 2
        finally:
            server.shutdown(drain=True, timeout=10.0)
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: corrupt checkpoint")
        assert err.count("\n") == 1

    def test_endpoint_validation(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["client", "stat"])  # neither --socket nor --tcp
        with pytest.raises(SystemExit):
            main(["serve"])  # neither endpoint flag

    def test_client_help(self, capsys):
        from repro.cli import main

        assert main(["client"]) == 2
        assert "record" in capsys.readouterr().out
