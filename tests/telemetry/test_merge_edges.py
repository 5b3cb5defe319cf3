"""merge_snapshots edge cases the live admin endpoint exercises.

``GET /metrics`` merges the acceptor's registry with whatever each
worker answers over the control pipe *at that instant* — which means
the merge must cope with shapes the batch harness never produces:
per-session labeled histogram families, gauges whose merge modes
disagree about restarts, a worker that just respawned and reports a
nearly-empty registry, and a worker that dropped out of the scrape
entirely.
"""

from __future__ import annotations

from repro.telemetry import MetricsRegistry, merge_snapshots
from repro.telemetry.schema import validate_snapshot


def _sample(snapshot: dict, name: str, **labels):
    for s in snapshot["metrics"][name]["samples"]:
        if (s.get("labels") or {}) == labels:
            return s
    raise AssertionError(f"no {name} sample with labels {labels}")


def _worker(sessions: dict[str, int], active: int) -> dict:
    """A worker-shaped registry: labeled histograms + both gauge modes."""
    reg = MetricsRegistry()
    for sid, events in sessions.items():
        h = reg.histogram(
            "repro_service_batch_events",
            {"session": sid},
            buckets=(10, 100),
        )
        h.observe(events)
    reg.gauge("repro_service_sessions_active", merge="sum").set(active)
    reg.gauge("repro_service_queue_high_water", merge="max").set(
        max(sessions.values(), default=0)
    )
    reg.counter("repro_service_events_total").inc(sum(sessions.values()))
    return reg.snapshot()


class TestLabeledHistograms:
    def test_distinct_sessions_keep_their_samples(self):
        merged = merge_snapshots(
            [_worker({"s0001": 5}, 1), _worker({"s0002": 500}, 1)]
        )
        fam = merged["metrics"]["repro_service_batch_events"]
        assert fam["type"] == "histogram"
        labels = sorted(s["labels"]["session"] for s in fam["samples"])
        assert labels == ["s0001", "s0002"]
        validate_snapshot(merged)

    def test_same_label_histograms_add(self):
        # One session's counts split across two snapshots (e.g. before
        # and after a handover) fold into one sample.
        merged = merge_snapshots(
            [_worker({"s0001": 5}, 1), _worker({"s0001": 500}, 1)]
        )
        s = _sample(merged, "repro_service_batch_events", session="s0001")
        assert s["count"] == 2
        assert s["sum"] == 505.0
        assert s["counts"] == [1, 0, 1]  # le=10, le=100, +Inf


class TestGaugeModesUnderRestart:
    def test_sum_gauges_add_across_workers(self):
        merged = merge_snapshots([_worker({}, 3), _worker({}, 2)])
        s = _sample(merged, "repro_service_sessions_active")
        assert s["value"] == 5.0
        assert s["merge"] == "sum"

    def test_restarted_worker_resets_its_contribution(self):
        # Mid-scrape restart: the replacement answers with zeros.  A
        # sum gauge must reflect only what the *current* processes
        # report — no ghost of the dead worker's last value.
        merged = merge_snapshots([_worker({}, 3), _worker({}, 0)])
        assert _sample(merged, "repro_service_sessions_active")["value"] == 3.0

    def test_max_gauge_takes_peak_across_workers(self):
        merged = merge_snapshots(
            [_worker({"s0001": 5}, 1), _worker({"s0002": 500}, 1)]
        )
        s = _sample(merged, "repro_service_queue_high_water")
        assert s["value"] == 500.0

    def test_merge_mode_survives_the_merge(self):
        # Merging a merged snapshot again (the acceptor's own snapshot
        # is itself an input next round) must preserve gauge modes.
        once = merge_snapshots([_worker({}, 2), _worker({}, 1)])
        twice = merge_snapshots([once, _worker({}, 4)])
        assert _sample(twice, "repro_service_sessions_active")["value"] == 7.0


class TestEmptyWorker:
    def test_just_spawned_worker_contributes_nothing(self):
        # A replacement worker a moment after spawn: version header,
        # no families yet.  The merge must accept it untouched.
        empty = {"version": 1, "metrics": {}}
        busy = _worker({"s0001": 5}, 1)
        merged = merge_snapshots([busy, empty])
        assert merged == merge_snapshots([busy])
        validate_snapshot(merged)

    def test_all_empty_is_valid(self):
        merged = merge_snapshots(
            [{"version": 1, "metrics": {}}, {"version": 1, "metrics": {}}]
        )
        assert merged["metrics"] == {}
        validate_snapshot(merged)

    def test_dropped_out_worker_is_just_absent(self):
        # The acceptor's stats round trip skips a worker that died
        # mid-scrape; the
        # merge of the survivors is still schema-valid and coherent.
        merged = merge_snapshots([_worker({"s0001": 7}, 1)])
        assert _sample(merged, "repro_service_sessions_active")["value"] == 1.0
        validate_snapshot(merged)
