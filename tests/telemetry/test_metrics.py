"""Unit tests for the metrics model (counters, gauges, histograms)."""

from __future__ import annotations

import pytest

from repro.telemetry.exporters import to_json
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0

    def test_merge_sums(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a._merge(b._sample())
        assert a.value == 7


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge()
        g.set(10)
        g.inc(-3)
        assert g.value == 7

    def test_unknown_merge_mode_rejected(self):
        with pytest.raises(ValueError):
            Gauge(merge_mode="average")

    @pytest.mark.parametrize(
        "mode,expected", [("max", 9), ("sum", 13), ("last", 4)]
    )
    def test_merge_modes(self, mode, expected):
        g = Gauge(merge_mode=mode)
        g.set(9)
        other = Gauge(merge_mode=mode)
        other.set(4)
        g._merge(other._sample())
        assert g.value == expected

    def test_sample_carries_merge_mode(self):
        # The merge mode must survive the snapshot round-trip so a
        # registry reconstructed purely from worker snapshots merges
        # with the declared semantics, not the default.
        g = Gauge(merge_mode="sum")
        assert g._sample()["merge"] == "sum"


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram(buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 4.0, 100.0):
            h.observe(v)
        # counts: (..1.0], (1.0..2.0], (2.0..5.0], +Inf
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(107.0)

    def test_cumulative_form(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        cum = h.cumulative()
        assert cum == [(1.0, 1), (2.0, 2), (float("inf"), 3)]

    def test_bounds_sorted_regardless_of_input(self):
        h = Histogram(buckets=(5.0, 1.0, 2.0))
        assert h.bounds == (1.0, 2.0, 5.0)

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_merge_adds_bucketwise(self):
        a = Histogram(buckets=(1.0, 2.0))
        b = Histogram(buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(10.0)
        a._merge(b._sample())
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.sum == pytest.approx(12.0)

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram(buckets=(1.0, 2.0))
        b = Histogram(buckets=(1.0, 3.0))
        with pytest.raises(ValueError):
            a._merge(b._sample())


class TestRegistry:
    def test_upsert_returns_same_child(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", {"k": "a"})
        c2 = reg.counter("x_total", {"k": "a"})
        assert c1 is c2
        c3 = reg.counter("x_total", {"k": "b"})
        assert c3 is not c1

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", {"a": "1", "b": "2"})
        c2 = reg.counter("x_total", {"b": "2", "a": "1"})
        assert c1 is c2

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    @pytest.mark.parametrize("bad", ["", "9lives", "has space", "has-dash"])
    def test_invalid_names_rejected(self, bad):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter(bad)

    def test_value_reader(self):
        reg = MetricsRegistry()
        assert reg.value("missing_total") == 0.0
        reg.counter("x_total", {"k": "a"}).inc(7)
        assert reg.value("x_total", {"k": "a"}) == 7
        assert reg.value("x_total", {"k": "zzz"}) == 0.0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", help="a counter").inc(1)
        reg.gauge("g").set(5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["version"] == SNAPSHOT_VERSION
        assert set(snap["metrics"]) == {"c_total", "g", "h"}
        assert snap["metrics"]["c_total"]["help"] == "a counter"
        assert snap["metrics"]["h"]["samples"][0]["counts"] == [1, 0]

    def test_snapshot_determinism_byte_equal(self):
        # Equal logical state reached through different insertion orders
        # must serialise to equal bytes — the parallel harness depends
        # on determinism for reproducible artifact files.
        def build(order):
            reg = MetricsRegistry()
            for kind in order:
                reg.counter("e_total", {"kind": kind}).inc({"a": 1, "b": 2}[kind])
            reg.gauge("size").set(3)
            return reg

        a = build(["a", "b"])
        b = build(["b", "a"])
        assert to_json(a.snapshot()) == to_json(b.snapshot())

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_remove_drops_only_that_child(self):
        reg = MetricsRegistry()
        reg.counter("x_total", {"k": "a"}).inc(2)
        reg.counter("x_total", {"k": "b"}).inc(3)
        assert reg.remove("x_total", {"k": "a"}).value == 2
        assert reg.remove("x_total", {"k": "a"}) is None
        assert reg.remove("missing_total", {"k": "a"}) is None
        samples = reg.snapshot()["metrics"]["x_total"]["samples"]
        assert [s["labels"] for s in samples] == [{"k": "b"}]

    def test_fold_keeps_each_family_total(self):
        reg = MetricsRegistry()
        for sid, n in (("s1", 4), ("s2", 6)):
            reg.counter("e_total", {"session": sid}).inc(n)
            reg.gauge("high", {"session": sid}).set(n)
            reg.histogram("h", {"session": sid}, buckets=(5.0,)).observe(n)
        for sid in ("s1", "s2"):
            for name in ("e_total", "high", "h"):
                reg.fold(name, {"session": sid})
        metrics = reg.snapshot()["metrics"]
        (events,) = metrics["e_total"]["samples"]
        (high,) = metrics["high"]["samples"]
        (hist,) = metrics["h"]["samples"]
        assert events == {"labels": {}, "value": 10}
        assert high["labels"] == {} and high["value"] == 6
        assert hist["counts"] == [1, 1] and hist["sum"] == 10


class TestMergeSnapshot:
    def _worker(self, n):
        reg = MetricsRegistry()
        reg.counter("events_total", {"kind": "load"}).inc(10 * n)
        reg.gauge("table_size").set(100 + n)  # merge=max default
        reg.gauge("work_done", merge="sum").set(n)
        reg.histogram("lat", buckets=(1.0, 2.0)).observe(float(n))
        return reg.snapshot()

    def test_merge_counters_sum(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(self._worker(1))
        parent.merge_snapshot(self._worker(2))
        assert parent.value("events_total", {"kind": "load"}) == 30

    def test_merge_gauges_honor_sample_merge_mode(self):
        # The parent registry never declared these gauges — their merge
        # semantics must come from the snapshot samples themselves.
        parent = MetricsRegistry()
        parent.merge_snapshot(self._worker(1))
        parent.merge_snapshot(self._worker(2))
        assert parent.value("table_size") == 102  # max
        assert parent.value("work_done") == 3  # sum

    def test_merge_histograms(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(self._worker(1))  # observe 1.0
        parent.merge_snapshot(self._worker(2))  # observe 2.0
        h = parent.get("lat")
        assert h.count == 2
        assert h.counts == [1, 1, 0]

    def test_merge_is_commutative_for_these_semantics(self):
        ab = MetricsRegistry()
        ab.merge_snapshot(self._worker(1))
        ab.merge_snapshot(self._worker(2))
        ba = MetricsRegistry()
        ba.merge_snapshot(self._worker(2))
        ba.merge_snapshot(self._worker(1))
        assert to_json(ab.snapshot()) == to_json(ba.snapshot())

    def test_merge_into_populated_registry(self):
        parent = MetricsRegistry()
        parent.counter("events_total", {"kind": "load"}).inc(5)
        parent.merge_snapshot(self._worker(1))
        assert parent.value("events_total", {"kind": "load"}) == 15

    def test_version_mismatch_rejected(self):
        parent = MetricsRegistry()
        snap = self._worker(1)
        snap["version"] = 999
        with pytest.raises(ValueError, match="version"):
            parent.merge_snapshot(snap)

    def test_unknown_type_rejected(self):
        parent = MetricsRegistry()
        snap = {
            "version": SNAPSHOT_VERSION,
            "metrics": {
                "x": {"type": "summary", "help": "", "samples": [{"labels": {}}]}
            },
        }
        with pytest.raises(ValueError, match="unknown metric type"):
            parent.merge_snapshot(snap)
