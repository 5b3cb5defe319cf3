"""The metrics model: counters, gauges, histograms, and their registry.

The paper's evaluation is *measurement* — warning counts per
configuration (Figure 6), state distributions (Figure 5), slowdown
factors (§4.5) — and PR 1's fast path added several caches whose
effectiveness was previously invisible (the interned
:class:`~repro.detectors.lockset.LocksetTable`, the VM's per-type route
cache, the address-space block-lookup cache, ExeContext-style stack
interning).  This module gives all of them one vocabulary:

* :class:`Counter` — a monotonically increasing total (events seen,
  cache hits, warnings raised).  Merging sums.
* :class:`Gauge` — a point-in-time value (table sizes, tracked shadow
  words).  Merging takes the maximum by default (the natural semantics
  when combining per-worker snapshots of process-local tables), but a
  gauge can opt into ``sum`` or ``last``.
* :class:`Histogram` — bucketed observations with ``sum`` and ``count``
  (per-batch detector latencies).  Merging adds bucket-wise.

A :class:`MetricsRegistry` holds metric *families* addressed by name +
label set, exactly like the Prometheus data model, and produces a plain-
``dict`` :meth:`~MetricsRegistry.snapshot` that is

* **deterministic** — families and samples are emitted in sorted order,
  so equal states serialise to equal JSON bytes,
* **serialisable** — only builtins, so it crosses process boundaries
  (the parallel Figure-6 harness pickles worker snapshots back to the
  parent), and
* **mergeable** — :meth:`~MetricsRegistry.merge_snapshot` folds a
  snapshot from another registry (typically another process) into this
  one.

Nothing in this module is wired to the runtime; the weaving lives in
:mod:`repro.telemetry.probe`.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "SNAPSHOT_VERSION",
    "merge_snapshots",
]

#: Version tag stamped into every snapshot (bump on breaking layout
#: changes; the schema validator checks it).
SNAPSHOT_VERSION = 1

#: Default histogram buckets, in seconds — spans per-event handler
#: batches (microseconds) up to whole experiment phases (seconds).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0,
)


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing float/int total."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def _sample(self) -> dict:
        return {"value": self.value}

    def _merge(self, sample: dict) -> None:
        self.value += sample["value"]


class Gauge:
    """A point-in-time value with selectable merge semantics."""

    __slots__ = ("value", "merge_mode")

    kind = "gauge"

    def __init__(self, merge_mode: str = "max") -> None:
        if merge_mode not in ("max", "sum", "last"):
            raise ValueError(f"unknown gauge merge mode {merge_mode!r}")
        self.value = 0.0
        self.merge_mode = merge_mode

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def _sample(self) -> dict:
        # The merge mode travels with the sample so that a registry
        # reconstructed from snapshots (the parallel-harness parent)
        # merges worker gauges with the semantics the instrumentation
        # site declared, not the default.
        return {"value": self.value, "merge": self.merge_mode}

    def _merge(self, sample: dict) -> None:
        other = sample["value"]
        if self.merge_mode == "sum":
            self.value += other
        elif self.merge_mode == "last":
            self.value = other
        else:
            self.value = max(self.value, other)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists.  ``observe`` is O(log buckets) (bisect into the sorted
    bounds); the exported form stores *per-bucket* counts and the
    exporter re-accumulates into the cumulative ``le`` form, which keeps
    merging trivial (bucket-wise addition).
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        #: counts[i] observations fell in (bounds[i-1], bounds[i]];
        #: counts[-1] is the +Inf overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ``le=inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def _sample(self) -> dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def _merge(self, sample: dict) -> None:
        if list(self.bounds) != list(sample["buckets"]):
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        for i, n in enumerate(sample["counts"]):
            self.counts[i] += n
        self.sum += sample["sum"]
        self.count += sample["count"]


class _Family:
    """One metric family: a name, help text, and per-label-set children."""

    __slots__ = ("name", "help", "kind", "children", "_factory")

    def __init__(self, name: str, help_text: str, kind: str, factory) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.children: dict[tuple, object] = {}
        self._factory = factory

    def child(self, labels: dict[str, str] | None):
        key = _label_key(labels)
        metric = self.children.get(key)
        if metric is None:
            metric = self._factory()
            self.children[key] = metric
        return metric


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


class MetricsRegistry:
    """A process-local collection of metric families.

    All accessors are *upsert* style — ``registry.counter(name)`` returns
    the existing child or creates it — so instrumentation sites never
    need registration boilerplate.  Families are type-stable: asking for
    an existing name with a different kind raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def counter(
        self, name: str, labels: dict[str, str] | None = None, help: str = ""
    ) -> Counter:
        return self._get(name, "counter", labels, help, Counter)

    def gauge(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        help: str = "",
        merge: str = "max",
    ) -> Gauge:
        return self._get(name, "gauge", labels, help, lambda: Gauge(merge))

    def histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(name, "histogram", labels, help, lambda: Histogram(buckets))

    def _get(self, name, kind, labels, help_text, factory):
        family = self._families.get(name)
        if family is None:
            if not name or not set(name) <= _NAME_OK or name[0].isdigit():
                raise ValueError(f"invalid metric name {name!r}")
            family = _Family(name, help_text, kind, factory)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {kind}"
            )
        return family.child(labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def families(self) -> list[str]:
        return sorted(self._families)

    def get(self, name: str, labels: dict[str, str] | None = None):
        """The child metric, or ``None`` if name/labels were never used."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))

    def value(self, name: str, labels: dict[str, str] | None = None) -> float:
        """Convenience: the scalar value of a counter/gauge (0.0 if absent)."""
        metric = self.get(name, labels)
        if metric is None:
            return 0.0
        return metric.value  # type: ignore[union-attr]

    def remove(self, name: str, labels: dict[str, str]):
        """Drop the child at ``labels``; return it, or ``None`` if absent."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.pop(_label_key(labels), None)

    def fold(self, name: str, labels: dict[str, str]) -> None:
        """Merge the child at ``labels`` into the family's unlabelled
        child, then drop it, so the family's total over its samples
        keeps its value: counters and histograms add, gauges follow
        their merge mode."""
        metric = self.remove(name, labels)
        if metric is not None:
            self._families[name].child(None)._merge(metric._sample())

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic plain-dict view of every family and sample."""
        metrics: dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for key in sorted(family.children):
                metric = family.children[key]
                sample = {"labels": dict(key)}
                sample.update(metric._sample())  # type: ignore[attr-defined]
                samples.append(sample)
            metrics[name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return {"version": SNAPSHOT_VERSION, "metrics": metrics}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (from any process) into this registry.

        Counters and histograms add; gauges follow their merge mode,
        which each gauge sample carries with it (``"merge"`` key; a
        gauge created *by* the merge adopts the incoming sample's mode).
        """
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"cannot merge snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        for name, family_data in snapshot["metrics"].items():
            kind = family_data["type"]
            for sample in family_data["samples"]:
                labels = sample.get("labels") or None
                if kind == "counter":
                    self.counter(name, labels, family_data.get("help", ""))._merge(
                        sample
                    )
                elif kind == "gauge":
                    self.gauge(
                        name,
                        labels,
                        family_data.get("help", ""),
                        merge=sample.get("merge", "max"),
                    )._merge(sample)
                elif kind == "histogram":
                    metric = self.histogram(
                        name,
                        labels,
                        family_data.get("help", ""),
                        buckets=tuple(sample["buckets"]),
                    )
                    metric._merge(sample)
                else:
                    raise ValueError(f"unknown metric type {kind!r} in snapshot")


def merge_snapshots(snapshots) -> dict:
    """Fold any number of :meth:`MetricsRegistry.snapshot` dicts into
    one merged snapshot.

    The aggregation every multi-process consumer needs — the parallel
    figure6 harness, and the sharded analysis service's acceptor
    answering ``repro client stat`` with one view over N worker
    processes.  Counters and histograms add; gauges follow the merge
    mode stamped on each sample.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()
