"""Contract checks for ``BENCHMARK.json`` and the harness that measures it.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/matrix/test_contract.py

The spec checks are instant; the workload checks run every workload
for a one-second window in both modes (a few minutes on two cores)
and assert that every declared metric is printed with its unit
and that no item failed.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Per-layer metric -> (layer, end-to-end metric it should move, workloads
#: where it should move it).  The layer is a module under ``repro`` or
#: ``loadgen`` (the benchmark's own generator).  ``None`` marks a metric
#: that no end-to-end metric of this benchmark measures: sharded replay
#: (only the traced run times it), the finding count (which must repeat
#: exactly) and the generator's own input preparation.
LAYER_MAP = {
    "runtime.vm.self_share": ("runtime.vm", "events_per_s", ["live_sip"]),
    "runtime.vm.events": ("runtime.vm", "events_per_s", ["live_sip"]),
    "runtime.vm.switches": ("runtime.vm", "events_per_s", ["live_sip"]),
    "runtime.addrspace.block_cache_hit_ratio": (
        "runtime.addrspace", "events_per_s", ["live_sip"]),
    "runtime.addrspace.block_cache_lookups": (
        "runtime.addrspace", "events_per_s", ["live_sip"]),
    "runtime.codec.self_share": (
        "runtime.codec", "events_per_s", ["replay_sip", "replay_pages"]),
    "runtime.codec.blocks_decoded": ("runtime.codec", "events_per_s", ["replay_sip"]),
    "runtime.codec.rows_per_block": ("runtime.codec", "events_per_s", ["replay_sip"]),
    "runtime.codec.blocks_skipped_type": (
        "runtime.codec", "events_per_s", ["replay_sip", "replay_pages"]),
    "detectors.handler_share": (
        "detectors", "events_per_s", ["live_sip", "replay_sip"]),
    "detectors.handler_calls": (
        "detectors", "events_per_s", ["live_sip", "replay_sip"]),
    "detectors.bulk_share": ("detectors", "events_per_s", ["replay_pages"]),
    "detectors.bulk_calls": ("detectors", "events_per_s", ["replay_pages"]),
    "detectors.bulk_row_ratio": ("detectors", "events_per_s", ["replay_pages"]),
    "detectors.finalize_share": ("detectors", "latency_mean_ms", ["live_sip"]),
    "detectors.analysis_multiple": ("detectors", "events_per_s", ["live_sip"]),
    "detectors.memo_hit_ratio": (
        "detectors", "events_per_s", ["replay_pages", "live_sip"]),
    "detectors.memo_evictions": (
        "detectors", "events_per_s", ["replay_pages", "live_sip"]),
    "detectors.elided_ratio": (
        "detectors", "events_per_s", ["replay_pages", "live_sip"]),
    "detectors.lockset_intersect_hit_ratio": (
        "detectors", "events_per_s", ["replay_pages", "live_sip"]),
    "detectors.tracked_words": (
        "detectors", "peak_rss_mb", ["replay_pages", "replay_sip"]),
    "detectors.segments": ("detectors", "peak_rss_mb", ["replay_sip", "live_sip"]),
    "detectors.findings": ("detectors", None, WORKLOADS),
    "detectors.parallel.shards2_events_per_s": (
        "detectors.parallel", None, ["replay_pages", "replay_sip"]),
    "detectors.parallel.speedup": (
        "detectors.parallel", None, ["replay_pages", "replay_sip"]),
    "detectors.parallel.max_shard_share": (
        "detectors.parallel", None, ["replay_pages", "replay_sip"]),
    "detectors.parallel.blocks_skipped_shard_ratio": (
        "detectors.parallel", None, ["replay_pages", "replay_sip"]),
    "detectors.parallel.mixed_blocks": (
        "detectors.parallel", None, ["replay_pages", "replay_sip"]),
    "detectors.parallel.cpu_per_wall": (
        "detectors.parallel", None, ["replay_pages", "replay_sip"]),
    "service.hello_share": ("service", "latency_mean_ms", ["serve_open"]),
    "service.stream_share": ("service", "latency_mean_ms", ["serve_open"]),
    "service.finish_share": ("service", "latency_mean_ms", ["serve_open"]),
    "service.credit_waits_per_session": ("service", "latency_mean_ms", ["serve_open"]),
    "service.credit_wait_share": ("service", "latency_mean_ms", ["serve_open"]),
    "service.backpressure_stalls_per_session": (
        "service", "latency_mean_ms", ["serve_open"]),
    "service.queue_high_water": ("service", "latency_mean_ms", ["serve_open"]),
    "service.worker_event_share_max": ("service", "events_per_s", ["serve_open"]),
    "service.analysis_errors": ("service", "latency_mean_ms", ["serve_open"]),
    "service.worker_restarts": ("service", "latency_mean_ms", ["serve_open"]),
    "service.sustainable_rate": ("service", "events_per_s", ["serve_open"]),
    "loadgen.lag_p90_ms": ("loadgen", "latency_mean_ms", ["serve_open"]),
    "loadgen.backlog_max": ("loadgen", "latency_mean_ms", ["serve_open"]),
    "loadgen.prepare_s": ("loadgen", None, WORKLOADS),
}


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC_PATH.stat().st_size <= 64 * 1024
    command = SPEC["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert all(not a.startswith("/") and ".." not in a for a in command)
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_names_units_and_bounds():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
        names.append(metric["name"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_per_layer_metric_names_its_layer_metric_and_workloads():
    assert set(LAYER_MAP) == set(PER_LAYER)
    for name, (layer, moves, workloads) in LAYER_MAP.items():
        assert name.startswith(layer + "."), name
        if layer != "loadgen":
            assert importlib.util.find_spec(f"repro.{layer}") is not None, layer
        assert moves is None or moves in END_TO_END, name
        assert workloads and set(workloads) <= set(WORKLOADS), name


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/matrix/bench_matrix.py", "--workload",
         workload, "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_fails_nothing(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(declared)
    for name, metric in declared.items():
        assert result["metrics"][name]["unit"] == metric["unit"]
        printed = [line for line in lines if line.startswith(f"{workload}  {name}  ")]
        assert len(printed) == 1 and printed[0].split()[3] == metric["unit"], name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
