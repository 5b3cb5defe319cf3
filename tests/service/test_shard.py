"""Integration tests for the sharded (multi-process) analysis service.

The contracts under test are the sharding PR's acceptance criteria:

* **routing** is consistent hashing: the same session id maps to the
  same worker slot in every process and run, and resizing the fleet
  remaps only ≈1/N of the id space;
* every sharded report is **byte-identical** to its offline (and
  in-process) twin, over both transports — unix sockets with
  SCM_RIGHTS connection handover and TCP with per-worker REDIRECT —
  and under the ``predictive`` profile too;
* a worker killed with ``SIGKILL`` mid-session is **restarted by the
  supervisor** and the session resumes from its checkpoint on the
  replacement, report still byte-identical;
* ``STAT`` merges every worker's metrics into one view, with
  ``--per-worker`` exposing the unmerged per-process snapshots;
* restarting ``repro serve`` on the same endpoint never races the old
  instance's drain (the listener is released *before* draining).

Worker processes are real subprocesses; tests that spawn them are
kept few and each owns its server's lifecycle.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.service import (
    AnalysisClient,
    AnalysisServer,
    HashRing,
    ShardedAnalysisServer,
    fetch_report,
    protocol,
)

from tests.service.conftest import BAD_HELLOS, CASES, raw_hello


def _metric_sum(snapshot: dict, name: str) -> float:
    family = snapshot.get("metrics", {}).get(name)
    return sum(s["value"] for s in family["samples"]) if family else 0.0


def _wait_until(cond, timeout: float = 15.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(interval)
    return cond()


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
        """The acceptor answers each HELLO field with the wrong JSON
        type with an ERROR frame — its handshake thread, which hashes
        the session id, survives — and the service then serves a
        byte-identical report."""
        path, reference = traces[("T1", "hwlc+dr")]
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"), workers=1, threads=1
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
    def test_redirect_roundtrip_byte_identical(self, traces):
        """TCP handover: the acceptor answers HELLO with REDIRECT to
        the owning worker's port; the client follows it transparently
        and the report is still byte-identical."""
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
                welcome = client.hello("hwlc+dr")
                assert client.redirected_to is not None
                assert client.redirected_to[1] != port  # a worker's port
                session_id = welcome["session"]
                # The redirect sent us to the slot the ring owns.
                slot = server.ring.slot(session_id)
                assert client.redirected_to[1] == server._slots[slot].port
                client.stream_file(path)
                assert client.finish() == reference
            merged = server.stats_payload()
            assert _metric_sum(merged, "repro_service_redirects_total") == 1
        finally:
            server.shutdown(drain=True, timeout=30.0)


class TestWorkerFailover:
    def test_sigkilled_worker_restarts_and_session_resumes(
        self, tmp_path, traces
    ):
        """kill -9 a worker mid-session: the supervisor restarts the
        slot, the session re-routes to the replacement (same hash
        slot), restores from its checkpoint, and the final report is
        byte-identical to the uninterrupted run's."""
        path, reference = traces[("T2", "hwlc+dr")]
        data = path.read_bytes()
        server = ShardedAnalysisServer(
            socket_path=str(tmp_path / "shard.sock"),
            workers=2,
            threads=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=1,
        )
        server.start()
        client = AnalysisClient(socket_path=server.address, chunk_bytes=1024)
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
                path,
                socket_path=server.address,
                session=session_id,
                chunk_bytes=1024,
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


class TestShutdownOrder:
    def test_endpoint_released_before_drain(self, tmp_path, traces):
        """Satellite regression: ``shutdown(drain=True)`` must close
        *and unlink* the unix endpoint before draining sessions, so a
        restarted server can bind the same path immediately — and the
        old instance's drain must not unlink the new instance's socket
        out from under it afterwards."""
        path, reference = traces[("T1", "hwlc+dr")]
        sock_path = str(tmp_path / "same.sock")
        old = AnalysisServer(socket_path=sock_path, workers=1, queue_blocks=2)
        old.start()
        client = AnalysisClient(socket_path=sock_path, chunk_bytes=2048)
        client.hello("hwlc+dr")
        # The old server analyses the trace's last chunk only once the
        # new server has bound, so its drain is still running then
        # however loaded the host is.
        session = old._sessions[client.session_id]
        size = path.stat().st_size
        bound = threading.Event()
        feed = session.api.feed

        def held_feed(data: bytes) -> int:
            if session.api.bytes_fed + len(data) == size:
                bound.wait(30)
            return feed(data)

        session.api.feed = held_feed
        client.stream_file(path)

        drainer = threading.Thread(
            target=lambda: old.shutdown(drain=True, timeout=30.0)
        )
        drainer.start()
        try:
            # The path frees up while the old server is still draining.
            assert _wait_until(lambda: not os.path.exists(sock_path), 10)
            assert drainer.is_alive(), "drain finished too fast to test the race"

            new = AnalysisServer(socket_path=sock_path, workers=1)
            new.start()
            bound.set()
            try:
                drainer.join(timeout=30)
                assert not drainer.is_alive()
                # The old drain must not have unlinked the new socket.
                assert os.path.exists(sock_path)
                got = fetch_report(path, socket_path=sock_path)
                assert got == reference
            finally:
                new.shutdown(drain=True, timeout=10.0)
        finally:
            bound.set()
            client.close()
            drainer.join(timeout=30)

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
