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
  unix socket, and a server ERROR frame ends the command with one
  ``error:`` line and exit status 2.

Most tests share the package's one-worker ``acceptor`` and measure
metrics as deltas over their own sessions.  Tests that need fresh ids,
other options or a crash start their own acceptor; the two that patch
a worker's internals drive a listener-less ``AnalysisServer`` in this
process through ``adopt``.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.runtime import codec
from repro.runtime.events import EVENT_TYPES, LockAcquire
from repro.runtime.trace import load_trace
from repro.service import (
    AnalysisClient,
    AnalysisServer,
    CheckpointStore,
    ServiceError,
    ShardedAnalysisServer,
    fetch_report,
    protocol,
)
from repro.service.client import DEFAULT_CHUNK_BYTES

from tests.service.conftest import (
    BAD_HELLOS,
    CASES,
    CONFIGS,
    adopt,
    adopted_report,
    metric_sum,
    raw_failing_session,
    raw_hello,
    wait_until,
)


def _own_acceptor(tmp_path, name: str = "own", **options) -> ShardedAnalysisServer:
    """A started one-worker acceptor of this test's own."""
    server = ShardedAnalysisServer(
        socket_path=str(tmp_path / f"{name}.sock"), workers=1, threads=1,
        **options,
    )
    server.start()
    return server


def _family(server, name):
    return server.stats_payload()["metrics"].get(name)


def _sample_values(server, name):
    family = _family(server, name)
    return [s["value"] for s in family["samples"]] if family else []


def _growth(server, run):
    """Run ``run()``; return a function giving how much a family's sum
    over ``server``'s samples grew meanwhile."""
    before = server.stats_payload()
    run()
    after = server.stats_payload()
    return lambda name: metric_sum(after, name) - metric_sum(before, name)


class TestRoundTrip:
    def test_report_byte_identical_over_unix_socket(self, acceptor, traces):
        path, reference = traces[("T1", "hwlc+dr")]
        got = fetch_report(path, "hwlc+dr", socket_path=acceptor.address)
        assert got == reference

    @pytest.mark.parametrize("config", CONFIGS)
    def test_concurrent_sessions_all_cases(self, acceptor, traces, config):
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
                    socket_path=acceptor.address,
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

    def test_session_metrics_populated(self, acceptor, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        grew = _growth(
            acceptor, lambda: fetch_report(path, socket_path=acceptor.address)
        )
        assert grew("repro_service_bytes_ingested_total") == path.stat().st_size
        assert grew("repro_service_reports_total") == 1
        assert grew("repro_service_sessions_total") == 1
        assert len(_sample_values(acceptor, "repro_service_sessions_total")) == 1

    def test_stats_frame_matches_registry(self, acceptor, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        fetch_report(path, socket_path=acceptor.address)
        with AnalysisClient(socket_path=acceptor.address) as client:
            snapshot = client.stats()
        names = set(snapshot["metrics"])
        assert {
            "repro_service_sessions_total",
            "repro_service_events_total",
            "repro_service_queue_high_water",
            "repro_service_backpressure_stalls_total",
        } <= names

    def test_finished_sessions_leave_no_series(self, acceptor, traces):
        """A released session's series fold into each family's
        unlabelled sample: the STAT body stops growing with the
        sessions ever served, and every sum over samples still counts
        what was streamed."""
        path, reference = traces[("T1", "hwlc+dr")]
        events = sum(1 for _ in load_trace(path))

        def samples():
            # The REPORT frame goes out just before the release.
            assert wait_until(lambda: not acceptor.sessions_payload())
            snapshot = acceptor.stats_payload()
            return sum(len(f["samples"]) for f in snapshot["metrics"].values())

        sessions = 6
        counts = []

        def serve():
            for _ in range(sessions):
                assert fetch_report(path, socket_path=acceptor.address) == reference
                counts.append(samples())

        grew = _growth(acceptor, serve)
        assert counts == [counts[0]] * sessions
        assert grew("repro_service_bytes_ingested_total") == (
            sessions * path.stat().st_size
        )
        assert grew("repro_service_events_total") == sessions * events
        assert _sample_values(acceptor, "repro_service_queue_depth") == []
        for sample in _family(acceptor, "repro_service_events_total")["samples"]:
            assert "session" not in sample["labels"]


class TestErrors:
    def test_unknown_config_rejected(self, acceptor):
        with AnalysisClient(socket_path=acceptor.address) as client:
            with pytest.raises(ServiceError) as exc:
                client.hello("helgrind++")
        assert "hwlc+dr" in str(exc.value)  # the error lists known names

    def test_resume_without_checkpoint_dir(self, tmp_path):
        server = _own_acceptor(tmp_path)
        try:
            with AnalysisClient(socket_path=server.address) as client:
                with pytest.raises(
                    ServiceError, match="server has no checkpoint directory"
                ):
                    client.hello(session="s0001")
        finally:
            server.shutdown(drain=True, timeout=30.0)

    @pytest.mark.parametrize(
        "checkpoints", [False, True], ids=["no-checkpoints", "checkpoints"]
    )
    def test_mistyped_hello_is_an_error_frame(
        self, request, tmp_path, traces, checkpoints
    ):
        """The acceptor answers each HELLO field with the wrong JSON
        type with an ERROR frame — its handshake thread, which hashes
        the session id, survives — and then serves a byte-identical
        report, with a checkpoint directory (the shared acceptor) and
        without one."""
        path, reference = traces[("T1", "hwlc+dr")]
        if checkpoints:
            server = request.getfixturevalue("acceptor")
        else:
            server = _own_acceptor(tmp_path)
        try:
            for name, (body, message) in BAD_HELLOS.items():
                answer = raw_hello(server.address, body)
                assert answer is not None, f"{name}: no ERROR frame"
                ftype, reply = answer
                assert ftype == protocol.ERROR, name
                assert message in reply["error"], name
            assert fetch_report(path, socket_path=server.address) == reference
        finally:
            if not checkpoints:
                server.shutdown(drain=True, timeout=30.0)

    def test_error_frame_closes_the_connection(self, acceptor, traces):
        """A session whose analysis fails gets its ERROR frame and then
        EOF, as the protocol says, not a connection left open until the
        client gives up; the server then serves the next client."""
        frames = raw_failing_session(acceptor.address)
        assert [ftype for ftype, _ in frames] == [protocol.WELCOME, protocol.ERROR]
        assert "bad magic" in frames[-1][1]["error"]
        path, reference = traces[("T1", "hwlc+dr")]
        assert fetch_report(path, socket_path=acceptor.address) == reference

    def test_data_before_hello(self, acceptor):
        with AnalysisClient(socket_path=acceptor.address) as client:
            with pytest.raises(ServiceError):
                client.send(b"xx")

    def test_corrupt_stream_fails_session_not_server(self, acceptor, traces):
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
        def stream_all():
            for payload, reason in corrupt:
                with AnalysisClient(socket_path=acceptor.address) as client:
                    client.hello("hwlc+dr")
                    client.send(payload)
                    with pytest.raises(ServiceError) as exc:
                        client.finish()
                assert reason in str(exc.value)

        grew = _growth(acceptor, stream_all)
        assert grew("repro_service_analysis_errors_total") == len(corrupt)
        # Both analysis threads must still be alive and serving.
        path, reference = traces[("T1", "hwlc+dr")]
        for _ in range(2):
            assert fetch_report(
                path, socket_path=acceptor.address
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
        store = CheckpointStore(ckpt_dir)

        server1 = _own_acceptor(
            tmp_path, "one", checkpoint_dir=str(ckpt_dir), checkpoint_every=300
        )
        try:
            with AnalysisClient(socket_path=server1.address) as client:
                client.hello("hwlc+dr")
                session_id = client.session_id
                # Stream roughly half the trace, then wait until the
                # periodic checkpoint cadence has fired at least once.
                for pos in range(0, len(data) // 2, 4096):
                    client.send(data[pos:pos + 4096])
                assert wait_until(lambda: store.session_ids() == [session_id])
                server1.shutdown(drain=False)  # the crash: workers killed
        finally:
            server1.shutdown(drain=False)

        ckpt = store.load(session_id)
        assert 0 < ckpt.offset < len(data)

        server2 = _own_acceptor(tmp_path, "two", checkpoint_dir=str(ckpt_dir))
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
            assert wait_until(lambda: store.session_ids() == [], 5)
        finally:
            server2.shutdown(drain=True, timeout=30.0)

    def test_fresh_ids_skip_checkpointed_sessions(self, tmp_path, traces):
        """After a restart, the acceptor's fresh session ids must not
        collide with a prior incarnation's resumable checkpoints — a
        collision would overwrite, then delete, the other client's
        checkpoint file."""
        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        ckpt_dir = tmp_path / "ckpt"
        store = CheckpointStore(ckpt_dir)
        server1 = _own_acceptor(
            tmp_path, "one", checkpoint_dir=str(ckpt_dir), checkpoint_every=1
        )
        try:
            with AnalysisClient(socket_path=server1.address) as client:
                client.hello("hwlc+dr")
                old_id = client.session_id
                client.send(data[:8192])
                assert wait_until(lambda: store.session_ids() == [old_id])
                server1.shutdown(drain=False)
        finally:
            server1.shutdown(drain=False)

        server2 = _own_acceptor(tmp_path, "two", checkpoint_dir=str(ckpt_dir))
        try:
            # A full fresh run (open → stream → finish, which deletes
            # *its own* checkpoint) must get a new id and leave the old
            # checkpoint untouched…
            with AnalysisClient(socket_path=server2.address) as fresh:
                fresh.hello("hwlc+dr")
                assert fresh.session_id != old_id
                fresh.stream_file(path)
                assert fresh.finish() == reference
            assert wait_until(lambda: not server2.sessions_payload())
            assert store.session_ids() == [old_id]
            # …and the old session must still resume to the same bytes.
            assert fetch_report(
                path, socket_path=server2.address, session=old_id
            ) == reference
        finally:
            server2.shutdown(drain=True, timeout=30.0)

    def test_concurrent_resume_single_winner(self, tmp_path, traces,
                                             monkeypatch):
        """Two HELLO{session: X} handed to one worker at once: exactly
        one may win; the loser gets 'already active' even though both
        arrive before the winner's checkpoint load completes."""
        from repro.api import Session
        from repro.service import Checkpoint

        path, reference = traces[("T2", "hwlc+dr")]
        analysed = Session("hwlc+dr")
        analysed.feed(path.read_bytes()[:8192])
        CheckpointStore(tmp_path / "ckpt").save(
            Checkpoint(
                "s0001", "hwlc+dr", analysed.bytes_fed,
                analysed.events_seen, analysed.snapshot(),
            )
        )
        real_load = CheckpointStore.load
        monkeypatch.setattr(
            CheckpointStore,
            "load",
            lambda self, sid: (time.sleep(0.4), real_load(self, sid))[1],
        )
        server = AnalysisServer(workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
        server.start()
        answers: list[tuple[int, dict]] = []

        def try_resume(delay: float) -> None:
            time.sleep(delay)
            with adopt(server, {"session": "s0001"}) as sock:
                ftype, payload = protocol.FrameReader(sock).read()
            answers.append((ftype, protocol.decode_json(payload)))

        threads = [
            threading.Thread(target=try_resume, args=(delay,))
            for delay in (0.0, 0.15)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        try:
            assert sorted(ftype for ftype, _ in answers) == [
                protocol.WELCOME, protocol.ERROR,
            ]
            (error,) = [body for ftype, body in answers if ftype == protocol.ERROR]
            assert "already active" in error["error"]
            # Wait out the winner's detach (async, on the worker pool),
            # then the session must resume cleanly from its checkpoint.
            assert wait_until(lambda: not server.sessions_payload(), 10)
            assert adopted_report(server, path, {"session": "s0001"}) == reference
        finally:
            server.shutdown(drain=True, timeout=10.0)

    def test_resume_active_session_rejected(self, acceptor):
        with AnalysisClient(socket_path=acceptor.address) as first:
            first.hello("hwlc+dr")
            with AnalysisClient(socket_path=acceptor.address) as second:
                with pytest.raises(ServiceError, match="already active"):
                    second.hello(session=first.session_id)

    def test_unloadable_checkpoint_is_an_error_frame(self, acceptor, traces):
        """A checkpoint whose snapshot no longer unpickles — a frame
        pickled before frames became tuples — fails the resume with an
        ERROR frame, and the server goes on serving fresh sessions."""
        from repro.service import Checkpoint
        from tests.conftest import DATACLASS_FRAME_PICKLE

        path, reference = traces[("T1", "hwlc+dr")]
        # Not an ``sNNNN`` id: the shared acceptor never assigns it.
        CheckpointStore(acceptor.checkpoint_dir).save(
            Checkpoint("x-unloadable", "hwlc+dr", 0, 0, DATACLASS_FRAME_PICKLE)
        )
        with AnalysisClient(socket_path=acceptor.address) as client:
            with pytest.raises(ServiceError) as exc:
                client.hello(session="x-unloadable")
        assert "unsupported session snapshot" in str(exc.value)
        assert fetch_report(path, socket_path=acceptor.address) == reference

    @pytest.mark.parametrize("damage", CHECKPOINT_DAMAGE)
    def test_corrupt_checkpoint_is_an_error_frame(
        self, acceptor, traces, damage
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
        session_id = f"x-{damage}"
        saved = CheckpointStore(acceptor.checkpoint_dir).save(
            Checkpoint(
                session_id, "hwlc+dr", analysed.bytes_fed,
                analysed.events_seen, analysed.snapshot(),
            )
        )
        damaged, message = CHECKPOINT_DAMAGE[damage]
        saved.write_bytes(damaged(saved.read_bytes()))
        with AnalysisClient(socket_path=acceptor.address) as client:
            with pytest.raises(
                ServiceError, match=f"corrupt checkpoint .*{message}"
            ):
                client.hello(session=session_id)
        assert fetch_report(path, socket_path=acceptor.address) == reference


class TestPredictiveSessions:
    @pytest.mark.parametrize("case_id", ("T9", "T10"))
    def test_report_matches_offline_predictive_replay(
        self, acceptor, predictive_traces, case_id
    ):
        """A session opened as ``predictive`` runs the prediction pass
        at FINISH: its REPORT equals an offline predictive replay of
        the same trace byte for byte, predictions included."""
        path, reference = predictive_traces[case_id]
        assert b'"predicted-' in reference
        assert fetch_report(
            path, "predictive", socket_path=acceptor.address
        ) == reference


class TestBackpressure:
    def test_queue_bound_and_stalls(self, traces):
        """A slow consumer (throttled worker) must cap the per-session
        buffer at ``queue_blocks`` and surface the client's credit
        exhaustion as backpressure stalls — over TCP, on a connection
        the acceptor handed to its worker."""
        path, reference = traces[("T2", "hwlc+dr")]
        bound = 3
        server = ShardedAnalysisServer(
            host="127.0.0.1", port=0, workers=1, threads=1,
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
        server = _own_acceptor(
            tmp_path, "slow",
            queue_blocks=2,
            throttle=0.08,  # 2-chunk batch = 0.16s > idle_timeout
            idle_timeout=0.15,
        )
        try:
            got = fetch_report(
                path, socket_path=server.address, chunk_bytes=4096
            )
            assert got == reference
            assert sum(
                _sample_values(server, "repro_service_idle_closed_total")
            ) == 0
        finally:
            server.shutdown(drain=True, timeout=30.0)

    def test_idle_session_checkpointed_and_resumable(self, tmp_path, traces):
        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        server = _own_acceptor(
            tmp_path, "idle",
            idle_timeout=0.15,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        try:
            client = AnalysisClient(socket_path=server.address)
            client.hello("hwlc+dr")
            session_id = client.session_id
            client.send(data[:8192])
            store = CheckpointStore(tmp_path / "ck")
            assert wait_until(lambda: store.session_ids() == [session_id], 10)
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
            server.shutdown(drain=True, timeout=30.0)


class TestCliClient:
    def test_client_report_and_stat(self, acceptor, traces, tmp_path, capsys):
        from repro.cli import main

        path, reference = traces[("T3", "hwlc+dr")]
        out = tmp_path / "service-report.json"
        assert main([
            "client", "report", str(path), "hwlc+dr",
            "--socket", acceptor.address, "--report-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "reported locations" in printed
        assert out.read_bytes() == reference

        assert main(["client", "stat", "--socket", acceptor.address]) == 0
        printed = capsys.readouterr().out
        assert "repro_service_sessions_total" in printed

    def test_client_record_live_stream(self, acceptor, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "live-report.json"
        assert main([
            "client", "record", "T1", "hwlc+dr",
            "--socket", acceptor.address, "--report-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "streamed" in printed
        report = json.loads(out.read_bytes())
        assert report["warnings"]

    def test_server_error_frame_is_one_line(self, acceptor, tmp_path, capsys):
        """The server's ERROR frame ends ``client report`` with one
        ``error:`` line on stderr and exit status 2, as ``trace replay``
        ends on the same file — also for a file longer than the client's
        credit window, whose first chunk fails while it still streams."""
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        line = b'{"type":"MemoryAccess"}\n'
        for lines in (1, 12 * DEFAULT_CHUNK_BYTES // len(line)):
            trace.write_bytes(line * lines)
            assert main([
                "client", "report", str(trace), "--socket", acceptor.address,
            ]) == 2, lines
            assert capsys.readouterr().err == (
                "error: ValueError: not a binary trace (bad magic)\n"
            ), lines

    def test_corrupt_checkpoint_resume_is_one_line(self, acceptor, traces, capsys):
        from repro.cli import main

        path, _reference = traces[("T1", "hwlc+dr")]
        # Not an ``sNNNN`` id: the shared acceptor never assigns it.
        (Path(acceptor.checkpoint_dir) / "x-cli.ckpt").write_bytes(b"abc")
        assert main([
            "client", "report", str(path), "--session", "x-cli",
            "--socket", acceptor.address,
        ]) == 2
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
