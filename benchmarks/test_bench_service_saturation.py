"""Service saturation — aggregate ingest throughput vs `--workers`.

The sharding PR's claim: per-session lock-set analysis is
shared-nothing, so routing sessions to worker *processes* scales
aggregate events/s with cores, where one process's thread pool tops
out near one core no matter how many clients connect.

The measurement streams M concurrent sessions (T1–T3, each twice)
into the service and divides the total decoded event count by the
wall-clock of the slowest session, for the sharded server at
``--workers`` 1, 2 and 4, each worker with two analysis threads.  The
base is ``--workers 1``: one worker process behind the acceptor, the
smallest shape ``repro serve`` runs.

Every report is asserted byte-identical to its offline twin before
any number is recorded — a fast wrong answer is not a result.
Results land in ``BENCH_service.json`` at the repo root.

On a single-core host (our CI container: ``cpu_count == 1``) worker
processes merely time-slice the one core, so the expected speedup is
≈1× and the sharded rows only verify correctness + overhead; the
scaling bars (≥1.5× at ≥4 CPUs, ≥1.1× at 2–3 CPUs) apply to
multi-core hosts and are asserted only there.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path

import pytest

from conftest import report

from repro.api.profiles import profile
from repro.detectors import HelgrindDetector
from repro.runtime import codec
from repro.runtime.trace import TraceRecorder, replay_trace
from repro.service import ShardedAnalysisServer, fetch_report

REPO_ROOT = Path(__file__).resolve().parents[1]
CASES = ("T1", "T2", "T3")
CONFIG = "hwlc+dr"
#: Sessions per measurement — more sessions than workers, so every
#: worker has queued work at each fleet size.
SESSIONS_PER_RUN = 2  # each case this many times → 6 concurrent sessions
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def service_traces(tmp_path_factory):
    """``{case: (path, reference_bytes, events)}`` for T1–T3."""
    from repro.experiments.harness import run_proxy_case
    from repro.sip.workload import evaluation_cases

    root = tmp_path_factory.mktemp("saturation-traces")
    by_id = {c.case_id: c for c in evaluation_cases()}
    out = {}
    for case_id in CASES:
        path = root / f"{case_id}.rptr"
        with TraceRecorder(path, format="binary") as recorder:
            run_proxy_case(by_id[case_id], CONFIG, seed=42,
                           extra_hooks=(recorder,))
        det = HelgrindDetector(profile(CONFIG).config())
        replay_trace(path, det)
        reference = json.dumps(det.report.to_dict(), indent=2).encode()
        events = codec.trace_stats(path)["events"]
        out[case_id] = (path, reference, events)
    return out


def _drive(server_address, service_traces) -> float:
    """Stream every session concurrently; returns the wall-clock of
    the whole batch.  Raises if any report differs from its twin."""
    errors: list[Exception] = []

    def one(case_id: str) -> None:
        path, reference, _ = service_traces[case_id]
        try:
            got = fetch_report(
                path, CONFIG, socket_path=server_address, chunk_bytes=4096
            )
            if got != reference:
                raise AssertionError(f"{case_id}: report differs from offline")
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=one, args=(case_id,))
        for case_id in CASES
        for _ in range(SESSIONS_PER_RUN)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return wall


def _measure(make_server, service_traces, tmp_path, rounds: int = 2) -> dict:
    """Best-of-``rounds`` events/s for one server shape."""
    total_events = SESSIONS_PER_RUN * sum(
        events for _, _, events in service_traces.values()
    )
    best = float("inf")
    for attempt in range(rounds):
        sock = tmp_path / f"bench-{attempt}.sock"
        server = make_server(str(sock))
        server.start()
        try:
            best = min(best, _drive(server.address, service_traces))
        finally:
            server.shutdown(drain=True, timeout=60.0)
    return {
        "events": total_events,
        "wall_seconds": round(best, 4),
        "events_per_sec": int(total_events / best),
    }


def test_bench_service_saturation(benchmark, service_traces, tmp_path):
    results: dict = {}

    def sweep() -> dict:
        for n in WORKER_COUNTS:
            results[f"workers_{n}"] = _measure(
                lambda sock, n=n: ShardedAnalysisServer(
                    socket_path=sock, workers=n, threads=2
                ),
                service_traces, tmp_path,
            )
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    base = results["workers_1"]["events_per_sec"]
    speedups = {
        f"workers_{n}": round(results[f"workers_{n}"]["events_per_sec"] / base, 2)
        for n in WORKER_COUNTS
    }
    cpus = os.cpu_count() or 1
    one_core_note = (
        "single-core host: worker processes time-slice one core, so "
        "throughput ~= --workers 1 at every fleet size (verified "
        "byte-identical, not faster here); the scaling bars apply to "
        "multi-core hosts"
    )
    payload = {
        "snapshot": "service sharding PR — saturation throughput vs --workers",
        "environment": {
            "python": platform.python_version(),
            "cpu_count": cpus,
            "note": one_core_note if cpus == 1 else
            "multi-core host: speedup_workers_2 is the acceptance number",
        },
        "methodology": (
            f"{SESSIONS_PER_RUN * len(CASES)} concurrent sessions "
            f"(T1-T3 x{SESSIONS_PER_RUN}, hwlc+dr, 4 KiB chunks) streamed "
            "over a unix socket; aggregate decoded events / batch "
            "wall-clock, best of 2 fresh-server rounds per shape; every "
            "report asserted byte-identical to offline replay first"
        ),
        "results": results,
        "speedup_vs_workers_1": speedups,
    }
    (REPO_ROOT / "BENCH_service.json").write_text(
        json.dumps(payload, indent=1) + "\n", encoding="utf-8"
    )

    lines = [
        "Service saturation (events/s, aggregate over "
        f"{SESSIONS_PER_RUN * len(CASES)} sessions):",
    ]
    for n in WORKER_COUNTS:
        lines.append(
            f"  --workers {n}:     "
            f"{results[f'workers_{n}']['events_per_sec']}"
            f"  ({speedups[f'workers_{n}']}x)"
        )
    lines.append(f"  (cpu_count={cpus}; BENCH_service.json updated)")
    report("\n".join(lines))

    # Correctness always; scaling only where the cores exist.
    if cpus >= 4:
        assert speedups["workers_2"] >= 1.5, speedups
    elif cpus >= 2:
        assert speedups["workers_2"] >= 1.1, speedups
