"""Integration tests for the sharded (multi-process) analysis service.

The contracts under test are the sharding PR's acceptance criteria:

* **routing** is consistent hashing: the same session id maps to the
  same worker slot in every process and run, and resizing the fleet
  remaps only ≈1/N of the id space;
* every sharded report is **byte-identical** to its offline (and
  in-process) twin, over both transports — each accepted connection,
  unix or TCP, is handed to its worker over SCM_RIGHTS — and under the
  ``predictive`` profile too;
* a worker killed with ``SIGKILL`` mid-session is **restarted by the
  supervisor** and the session resumes from its checkpoint on the
  replacement, report still byte-identical, over either transport;
* only the server assigns a fresh session's id — a HELLO naming a
  detached session's id cannot take over its checkpoint — no worker
  process listens on any socket, and a client's own ``trace`` id
  survives the acceptor;
* ``STAT`` merges every worker's metrics into one view, with
  ``--per-worker`` exposing the unmerged per-process snapshots; a STAT
  sent after HELLO reaches the worker, which answers it with ERROR;
* restarting ``repro serve`` on the same endpoint never races the old
  instance's drain (the listener is released *before* draining).

Worker processes are real subprocesses.  A test about routing starts
its own two-worker acceptor; the rest share the package's one-worker
``acceptor``.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.service import (
    AnalysisClient,
    CheckpointStore,
    HashRing,
    ServiceError,
    ShardedAnalysisServer,
    fetch_report,
    protocol,
)
from repro.service.client import DEFAULT_CHUNK_BYTES

from tests.service.conftest import (
    BAD_HELLOS,
    CASES,
    client_endpoint,
    connect,
    metric_sum as _metric_sum,
    raw_failing_session,
    raw_hello,
    wait_until as _wait_until,
)


class TestHashRing:
    def test_same_id_same_slot_across_instances(self):
        """The mapping must be a pure function of (id, N) — no per-
        process hash salt — or resumes would miss their checkpoints."""
        ids = [f"s{i:04d}" for i in range(500)]
        a, b = HashRing(4), HashRing(4)
        assert [a.slot(i) for i in ids] == [b.slot(i) for i in ids]

    def test_all_slots_reachable_and_roughly_balanced(self):
        ring = HashRing(4)
        counts = [0, 0, 0, 0]
        for i in range(2000):
            counts[ring.slot(f"s{i:04d}")] += 1
        assert all(c > 0 for c in counts)
        # Virtual nodes keep the shares near 1/N; allow generous slack.
        assert max(counts) < 2 * min(counts) + 200

    def test_resize_remaps_about_one_over_n(self):
        """Growing N→N+1 must move ≈1/(N+1) of ids, not reshuffle the
        world — that is the 'consistent' in consistent hashing."""
        ids = [f"s{i:04d}" for i in range(2000)]
        for n in (2, 4):
            before = HashRing(n)
            after = HashRing(n + 1)
            moved = sum(
                1 for i in ids if before.slot(i) != after.slot(i)
            ) / len(ids)
            ideal = 1 / (n + 1)
            assert moved <= 2.5 * ideal, (n, moved)
            assert moved >= 0.25 * ideal, (n, moved)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)


class TestShardedUnix:
    def test_mistyped_hello_is_an_error_frame(self, tmp_path, traces):
        """An acceptor routing among two workers answers each HELLO
        field with the wrong JSON type with an ERROR frame, before it
        hashes anything onto the ring — its handshake thread survives —
        and then serves a byte-identical report."""
        path, reference = traces[("T1", "hwlc+dr")]
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"), workers=2, threads=1
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
            server.shutdown(drain=True, timeout=30.0)

    def test_error_frame_closes_the_handed_over_connection(
        self, acceptor, tmp_path, traces
    ):
        """A worker's failed session ends with ERROR and then EOF on
        the connection the acceptor handed over — also for a client
        still streaming past its credit window, which must get the
        ERROR, not a broken pipe — and the service then serves a
        byte-identical report."""
        path, reference = traces[("T1", "hwlc+dr")]
        corrupt = tmp_path / "t.jsonl"
        line = b'{"type":"MemoryAccess"}\n'
        corrupt.write_bytes(line * (12 * DEFAULT_CHUNK_BYTES // len(line)))
        frames = raw_failing_session(acceptor.address)
        assert [ftype for ftype, _ in frames] == [
            protocol.WELCOME, protocol.ERROR,
        ]
        assert "bad magic" in frames[-1][1]["error"]
        with pytest.raises(ServiceError, match="bad magic"):
            fetch_report(corrupt, socket_path=acceptor.address)
        assert fetch_report(path, socket_path=acceptor.address) == reference

    def test_concurrent_sessions_byte_identical_and_merged_stats(
        self, tmp_path, traces
    ):
        """Three sessions land on two workers via SCM_RIGHTS handover;
        every report equals its offline twin, and the acceptor's STAT
        merge accounts for all of them."""
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"), workers=2, threads=1
        )
        server.start()
        try:
            results: dict[str, bytes] = {}
            errors: list[Exception] = []

            def one(case_id: str) -> None:
                try:
                    results[case_id] = fetch_report(
                        traces[(case_id, "hwlc+dr")][0],
                        "hwlc+dr",
                        socket_path=server.address,
                        chunk_bytes=1024,
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=one, args=(c,)) for c in CASES
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            for case_id in CASES:
                assert results[case_id] == traces[(case_id, "hwlc+dr")][1]

            merged = server.stats_payload()
            assert _metric_sum(merged, "repro_service_routed_sessions_total") == 3
            assert _metric_sum(merged, "repro_service_sessions_total") == 3
            assert _metric_sum(merged, "repro_service_reports_total") == 3
            assert _metric_sum(merged, "repro_service_workers") == 2

            per = server.stats_payload(per_worker=True)
            assert sorted(per["workers"]) == ["w0", "w1"]
            # The merge really is the sum of the parts.
            assert _metric_sum(per["merged"], "repro_service_sessions_total") == sum(
                _metric_sum(snap, "repro_service_sessions_total")
                for snap in per["workers"].values()
            )
        finally:
            server.shutdown(drain=True, timeout=30.0)

    def test_stats_over_the_wire_per_worker(self, tmp_path, traces):
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"), workers=2, threads=1
        )
        server.start()
        try:
            path, reference = traces[("T1", "hwlc+dr")]
            assert fetch_report(path, socket_path=server.address) == reference
            with AnalysisClient(socket_path=server.address) as client:
                merged = client.stats()
                per = client.stats(per_worker=True)
            assert _metric_sum(merged, "repro_service_sessions_total") == 1
            assert sorted(per["workers"]) == ["w0", "w1"]
            assert _metric_sum(per["merged"], "repro_service_sessions_total") == 1
        finally:
            server.shutdown(drain=True, timeout=30.0)

    def test_stat_after_hello_is_an_error(self, tmp_path, traces):
        """Only the acceptor answers STAT, before any HELLO: a STAT on
        a handed-over connection reaches the owning worker, which
        answers ERROR and closes, and the session detaches.  A STAT
        on a fresh connection still gets the merge of both workers."""
        path, reference = traces[("T1", "hwlc+dr")]
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"), workers=2, threads=1
        )
        server.start()
        try:
            for _ in range(4):
                assert fetch_report(path, socket_path=server.address) == reference
            for body in ({}, {"per_worker": True}):
                with connect(server.address, 10.0) as sock:
                    protocol.send_json(sock, protocol.HELLO, {"config": "hwlc+dr"})
                    protocol.send_json(sock, protocol.STAT, body)
                    reader = protocol.FrameReader(sock)
                    assert reader.read()[0] == protocol.WELCOME
                    ftype, payload = reader.read()
                    assert (ftype, protocol.decode_json(payload)) == (
                        protocol.ERROR, {"error": "unexpected STAT frame"},
                    )
                    assert reader.read() is None
            assert _wait_until(lambda: not server.sessions_payload())
            with AnalysisClient(socket_path=server.address) as client:
                merged = client.stats()
                per = client.stats(per_worker=True)
            assert _metric_sum(merged, "repro_service_sessions_total") == 6
            assert _metric_sum(merged, "repro_service_workers") == 2
            assert sorted(per["workers"]) == ["w0", "w1"]
            assert _metric_sum(per["merged"], "repro_service_sessions_total") == 6
        finally:
            server.shutdown(drain=True, timeout=30.0)

    def test_predictive_sessions_match_offline_predictive_replay(
        self, tmp_path, predictive_traces
    ):
        """T9 and T10 opened as ``predictive`` on two worker processes:
        each REPORT equals an offline predictive replay byte for byte,
        predictions included."""
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"), workers=2, threads=1
        )
        server.start()
        try:
            for case_id, (path, reference) in predictive_traces.items():
                assert b'"predicted-' in reference, case_id
                assert fetch_report(
                    path, "predictive", socket_path=server.address
                ) == reference, case_id
        finally:
            server.shutdown(drain=True, timeout=30.0)


class TestShardedTcp:
    def test_handover_roundtrip_byte_identical(self, traces):
        """TCP handover: the acceptor passes the accepted connection to
        the owning worker over SCM_RIGHTS, as it does a unix one, and
        the report is still byte-identical."""
        server = ShardedAnalysisServer(
            host="127.0.0.1", port=0, workers=2, threads=1
        )
        server.start()
        host, port = server.address
        try:
            path, reference = traces[("T2", "hwlc+dr")]
            with AnalysisClient(
                host=host, port=port, chunk_bytes=1024
            ) as client:
                client.hello("hwlc+dr")
                client.stream_file(path)
                assert client.finish() == reference
            merged = server.stats_payload()
            assert _metric_sum(
                merged, "repro_service_routed_sessions_total"
            ) == 1
        finally:
            server.shutdown(drain=True, timeout=30.0)


def _endpoint(transport: str, tmp_path) -> dict:
    """``ShardedAnalysisServer`` endpoint keywords for ``transport``."""
    if transport == "unix":
        return {"socket_path": str(tmp_path / "shard.sock")}
    return {"host": "127.0.0.1", "port": 0}


class TestWorkerFailover:
    @pytest.mark.parametrize("transport", ("unix", "tcp"))
    def test_sigkilled_worker_restarts_and_session_resumes(
        self, tmp_path, traces, transport
    ):
        """kill -9 a worker mid-session: the supervisor restarts the
        slot, the session re-routes to the replacement (same hash
        slot), restores from its checkpoint, and the final report is
        byte-identical to the uninterrupted run's."""
        path, reference = traces[("T2", "hwlc+dr")]
        data = path.read_bytes()
        server = ShardedAnalysisServer(
            **_endpoint(transport, tmp_path),
            workers=2,
            threads=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=1,
        )
        server.start()
        endpoint = client_endpoint(server.address)
        client = AnalysisClient(**endpoint, chunk_bytes=1024)
        try:
            client.hello("hwlc+dr")
            session_id = client.session_id
            slot = server.ring.slot(session_id)
            old_pid = server._slots[slot].proc.pid

            # Stream half the trace, give the worker a moment to
            # analyse and checkpoint it, then murder the worker.
            half = len(data) // 2
            pos = 0
            while pos < half:
                client.send(data[pos:pos + 1024])
                pos += 1024
            assert _wait_until(
                lambda: (tmp_path / "ckpt").exists()
                and any((tmp_path / "ckpt").iterdir())
            )
            os.kill(old_pid, signal.SIGKILL)
            client.close()

            # Supervisor notices and respawns the same slot.
            def restarted() -> bool:
                handle = server._slots[slot]
                return (
                    handle is not None
                    and not handle.dead
                    and handle.proc.pid != old_pid
                    and handle.proc.poll() is None
                )

            assert _wait_until(restarted), "supervisor never restarted slot"
            assert server._slots[slot].proc.pid != old_pid

            # Resume: routed by the same ring to the replacement, which
            # restores the checkpoint; report must match byte-for-byte.
            got = fetch_report(
                path, **endpoint, session=session_id, chunk_bytes=1024
            )
            assert got == reference
            merged = server.stats_payload()
            assert _metric_sum(
                merged, "repro_service_worker_restarts_total"
            ) >= 1
            assert _metric_sum(merged, "repro_service_sessions_resumed_total") == 1
        finally:
            client.close()
            server.shutdown(drain=True, timeout=30.0)


def _listening_inodes() -> set[int]:
    """Socket inodes of every listening TCP (v4 and v6) and unix
    socket in this network namespace, read from Linux ``/proc/net``."""
    inodes: set[int] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        if not os.path.exists(table):
            continue
        with open(table) as fh:
            next(fh)
            for line in fh:
                fields = line.split()
                if fields[3] == "0A":  # st: TCP_LISTEN
                    inodes.add(int(fields[9]))
    with open("/proc/net/unix") as fh:
        next(fh)
        for line in fh:
            fields = line.split()
            if int(fields[3], 16) & 0x10000:  # flags: __SO_ACCEPTCON
                inodes.add(int(fields[6]))
    return inodes


def _socket_inodes(pid: int) -> set[int]:
    """Inodes of the sockets process ``pid`` holds open."""
    inodes: set[int] = set()
    fd_dir = f"/proc/{pid}/fd"
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:
            continue  # closed since the listing
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


class TestSilentConnections:
    def test_a_connection_without_hello_is_closed_with_an_error(
        self, acceptor, traces, monkeypatch
    ):
        """A connection that never sends HELLO gets an ERROR naming the
        bound, then EOF, and its handshake thread ends; the workers'
        idle reaper would never see it.  A session afterwards reports
        what offline replay does."""
        monkeypatch.setattr(protocol, "HELLO_TIMEOUT_S", 0.3)
        path, reference = traces[("T1", "hwlc+dr")]

        def handlers() -> set:
            return {
                t for t in threading.enumerate()
                if t.name == "repro-shard-handshake"
            }

        before = handlers()
        silent = [connect(acceptor.address, 5.0) for _ in range(3)]
        try:
            for sock in silent:
                reader = protocol.FrameReader(sock)
                ftype, payload = reader.read()
                assert ftype == protocol.ERROR
                assert protocol.decode_json(payload) == {
                    "error": "no HELLO within 0.3 s"
                }
                assert reader.read() is None
        finally:
            for sock in silent:
                sock.close()
        assert _wait_until(lambda: not handlers() - before, timeout=5.0)
        assert fetch_report(path, socket_path=acceptor.address) == reference


class TestSessionIdentity:
    def test_hello_cannot_take_over_a_detached_session(self, acceptor, traces):
        """A HELLO carrying ``assign`` with a detached session's id gets
        a fresh id of the server's choosing: its FINISH leaves the
        owner's checkpoint alone, and the owner's resume still returns
        the byte-identical report."""
        server = acceptor
        endpoint = client_endpoint(server.address)
        store = CheckpointStore(server.checkpoint_dir)
        path, reference = traces[("T2", "hwlc+dr")]
        data = path.read_bytes()
        with AnalysisClient(**endpoint, chunk_bytes=1024) as owner:
            owner.hello("hwlc+dr")
            owner_id = owner.session_id
            for pos in range(0, len(data) // 2, 1024):
                owner.send(data[pos:pos + 1024])
        # The owner's detach checkpoints the session.
        assert _wait_until(lambda: not server.sessions_payload())
        assert owner_id in store.session_ids()

        with connect(server.address, 10.0) as sock:
            protocol.send_json(
                sock, protocol.HELLO, {"config": "hwlc+dr", "assign": owner_id}
            )
            reader = protocol.FrameReader(sock)
            ftype, payload = reader.read()
            assert ftype == protocol.WELCOME
            assert protocol.decode_json(payload)["session"] != owner_id
            protocol.send_frame(sock, protocol.FINISH)
            assert reader.read()[0] == protocol.REPORT
        assert _wait_until(lambda: not server.sessions_payload())
        assert owner_id in store.session_ids()
        assert fetch_report(path, **endpoint, session=owner_id) == reference

    def test_no_worker_listens(self):
        """Only the acceptor listens: a TCP service with N workers holds
        one listening socket, not N + 1."""
        if not os.path.exists("/proc/net/unix"):
            pytest.skip("reads Linux /proc")
        server = ShardedAnalysisServer(
            host="127.0.0.1", port=0, workers=2, threads=1
        )
        server.start()
        try:
            listening = _listening_inodes()
            assert os.fstat(server._listener.fileno()).st_ino in listening
            for handle in server._slots:
                held = _socket_inodes(handle.pid)
                assert held, f"w{handle.slot} holds no socket at all"
                assert not held & listening, f"w{handle.slot} listens"
        finally:
            server.shutdown(drain=True, timeout=30.0)

    def test_client_trace_id_survives_routing(self, acceptor):
        """A client's own ``trace`` id is the session's, fresh or
        resumed; only a session whose client sent none gets a minted
        one, which names the session."""
        address = acceptor.address
        ftype, welcome = raw_hello(
            address, {"config": "hwlc+dr", "trace": "client-trace-1"}
        )
        assert ftype == protocol.WELCOME
        assert welcome["trace"] == "client-trace-1"
        ftype, minted = raw_hello(address, {"config": "hwlc+dr"})
        assert ftype == protocol.WELCOME
        assert minted["trace"].startswith(minted["session"] + "-")
        # Both connections closed: each session detached to a
        # checkpoint, so both resume.
        assert _wait_until(lambda: not acceptor.sessions_payload())
        ftype, resumed = raw_hello(
            address, {"session": minted["session"], "trace": "client-trace-2"}
        )
        assert ftype == protocol.WELCOME, resumed
        assert resumed["trace"] == "client-trace-2"


class TestShutdownOrder:
    def test_endpoint_released_before_drain(self, tmp_path, traces):
        """``shutdown(drain=True)`` must close *and unlink* the unix
        endpoint before draining sessions, so a restarted server can
        bind the same path immediately — and the old instance's drain
        must not unlink the new instance's socket out from under it
        afterwards."""
        path, reference = traces[("T1", "hwlc+dr")]
        data = path.read_bytes()
        sock_path = str(tmp_path / "same.sock")
        # Each chunk the old worker analyses takes half a second, so
        # with two chunks queued its drain is still running when the
        # new acceptor binds, however loaded the host is.
        old = ShardedAnalysisServer(
            socket_path=sock_path, workers=1, threads=1,
            queue_blocks=2, throttle=0.5,
        )
        old.start()
        client = AnalysisClient(socket_path=sock_path)
        drainer = threading.Thread(
            target=lambda: old.shutdown(drain=True, timeout=30.0)
        )
        new = None
        try:
            client.hello("hwlc+dr")
            client.send(data[:2048])
            client.send(data[2048:4096])

            def second_chunk_queued() -> bool:
                (entry,) = old.sessions_payload()
                return entry["bytes"] == 2048 and entry["queue_depth"] == 1

            assert _wait_until(second_chunk_queued, 10)
            drainer.start()
            # The path frees up while the old server is still draining.
            assert _wait_until(lambda: not os.path.exists(sock_path), 10)
            new = ShardedAnalysisServer(
                socket_path=sock_path, workers=1, threads=1
            )
            assert drainer.is_alive(), "drain finished too fast to test the race"
            new.start()
            drainer.join(timeout=30)
            assert not drainer.is_alive()
            # The old drain must not have unlinked the new socket.
            assert os.path.exists(sock_path)
            assert fetch_report(path, socket_path=sock_path) == reference
        finally:
            client.close()
            if drainer.is_alive():
                drainer.join(timeout=30)
            old.shutdown(drain=True, timeout=30.0)
            if new is not None:
                new.shutdown(drain=True, timeout=30.0)

    def test_sharded_shutdown_releases_endpoint_first(self, tmp_path):
        """The sharded acceptor honours the same contract: its unix
        path is gone as soon as shutdown begins, before workers are
        drained, so back-to-back restarts never race."""
        sock_path = str(tmp_path / "shard.sock")
        server = ShardedAnalysisServer(
            socket_path=sock_path, workers=1, threads=1
        )
        server.start()
        assert os.path.exists(sock_path)
        server.shutdown(drain=True, timeout=30.0)
        assert not os.path.exists(sock_path)
        # And a new instance binds the path cleanly.
        again = ShardedAnalysisServer(
            socket_path=sock_path, workers=1, threads=1
        )
        again.start()
        try:
            assert os.path.exists(sock_path)
        finally:
            again.shutdown(drain=True, timeout=30.0)


class TestCli:
    def test_client_stat_per_worker(self, tmp_path, traces, capsys):
        from repro.cli import main

        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"), workers=2, threads=1
        )
        server.start()
        try:
            path, reference = traces[("T1", "hwlc+dr")]
            assert fetch_report(path, socket_path=server.address) == reference
            assert main([
                "client", "stat", "--socket", server.address, "--per-worker",
            ]) == 0
            printed = capsys.readouterr().out
            assert "-- w0 --" in printed
            assert "-- w1 --" in printed
            assert "-- merged --" in printed
            assert "repro_service_sessions_total" in printed

            assert main([
                "client", "stat", "--socket", server.address,
                "--per-worker", "--json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert sorted(payload["workers"]) == ["w0", "w1"]
        finally:
            server.shutdown(drain=True, timeout=30.0)

    def test_stats_per_worker_local_shape(self, capsys):
        """`repro stats --per-worker` on a local one-process run prints
        the lone w0 section next to the merged view (shape parity with
        `repro client stat --per-worker`)."""
        from repro.cli import main

        assert main(["stats", "T1", "--per-worker"]) == 0
        printed = capsys.readouterr().out
        assert "-- w0 (pid" in printed
        assert "-- merged --" in printed
