"""Intra-trace parallel analysis: address-space sharded replay.

The analysis tier multiplies runtime ~2.5-3x over raw recording (§4.5),
and a big recorded session is otherwise analysed strictly
single-threaded.  This module splits one RPTR trace across N worker
processes *by shadow page* and merges the results deterministically —
the merged report is **byte-identical** to a sequential replay's.

Why the partition is sound
--------------------------
The lock-set machine keys every per-word shadow state by page
(``addr >> 10`` — :mod:`repro.detectors.lockset`); a word's analysis
outcome depends on

* its own access history, **in order** — preserved, because a page's
  every access lands in exactly one shard (``page % num_shards``) and
  each shard sees its accesses in original trace order;
* the accessing threads' held lock-sets — rebuilt identically in every
  shard from the replicated ``LockAcquire``/``LockRelease`` skeleton;
* the segment graph (happens-before) — rebuilt identically from the
  replicated thread-lifecycle / queue / semaphore / condvar skeleton;
* the allocator block table (report "Address" lines) and benign-race /
  destructor annotations — replicated ``MemAlloc``/``MemFree`` /
  ``ClientRequest`` events.

So each shard computes, for every access it owns, the *exact* outcome
the sequential replay would have computed — including ``once_per_word``
suppression, which is per-word and therefore page-local.  Lock-set
*ids* differ across shards (each process interns its own
:data:`~repro.detectors.lockset.LOCKSETS` table) but warnings render
lock *names*, so report text is id-independent.

The deterministic merge
-----------------------
A helgrind warning originates from exactly one ``MemoryAccess`` event,
every event has a unique step, and a sequential
:class:`~repro.detectors.report.Report` lists warnings in
first-occurrence order — i.e. ascending step.  The merge therefore:
groups shard warnings by ``location_key``, keeps the minimum-step
warning per key, sums per-key occurrence counts and the suppressed
tally, and sorts by step.  That reconstructs the sequential report
exactly, whatever order the shards finished in.  (The merge assumes
warnings come from the partitioned access events — true for every
helgrind configuration; a detector that warned from *skeleton* events
would be double-counted and must not be sharded.)

Telemetry snapshots merge through the proven
:func:`repro.telemetry.metrics.merge_snapshots`, and shadow pages merge
through :meth:`~repro.detectors.lockset.LocksetMachine.merge_pages`
(disjoint by construction; lockset ids remapped on the way in).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime import codec
from repro.runtime.events import EVENT_TYPES, MemoryAccess

__all__ = [
    "PAGE_BITS",
    "shard_of_addr",
    "partition_stats",
    "merge_reports",
    "ShardOutcome",
    "ShardedReplayResult",
    "replay_trace_sharded",
]

#: Shard partition granularity — must match the lock-set machine's
#: shadow-page size so a word's whole history stays in one shard.
PAGE_BITS = codec.DEFAULT_PAGE_BITS

_ACCESS_IDX = EVENT_TYPES.index(MemoryAccess)


def shard_of_addr(
    addr: int, num_shards: int, *, page_bits: int = PAGE_BITS
) -> int:
    """The shard that owns ``addr`` — every address maps to exactly one."""
    return (addr >> page_bits) % num_shards


def partition_stats(index: dict[int, int], num_shards: int) -> dict:
    """Summarise a block index: how skippable is this trace?

    ``pure`` blocks touch one shard (every other worker seeks past them
    undecoded); ``mixed`` blocks straddle shards and are decoded by
    each toucher with the per-row page filter.
    """
    pure = sum(1 for m in index.values() if m and not (m & (m - 1)))
    return {
        "access_blocks": len(index),
        "pure_blocks": pure,
        "mixed_blocks": len(index) - pure,
        "num_shards": num_shards,
    }


def merge_reports(parts):
    """Fold per-shard :class:`~repro.detectors.report.Report` objects
    into the report a sequential replay would have produced.

    Order-independent: min-step warning per location, summed occurrence
    counts, summed suppression tally, final ordering by step (unique
    per warning — one warning per event, one step per event).

    Predicted findings (the predictive tier's ``finalize`` post-pass)
    are partitioned out and re-appended *after* every live warning,
    sorted by ``(step, kind, message)`` — the exact order
    :meth:`PredictiveDetector.finalize` emits them sequentially.
    Address-sharded race predictions are disjoint across shards (each
    shard records only its own pages' accesses) and deadlock
    predictions come from shard 0 alone (``predict_deadlocks``), so no
    cross-shard dedup beyond the location key is needed.
    """
    from repro.detectors.report import Report, WarningKind

    predicted_kinds = (WarningKind.PREDICTED_RACE, WarningKind.PREDICTED_DEADLOCK)
    best: dict[tuple, object] = {}
    occurrences: dict[tuple, int] = {}
    predicted: dict[tuple, object] = {}
    suppressed = 0
    for part in parts:
        suppressed += part.suppressed_count
        for warning in part.warnings:
            key = warning.location_key
            if warning.kind in predicted_kinds:
                held = predicted.get(key)
                if held is None or warning.step < held.step:
                    predicted[key] = warning
                continue
            occurrences[key] = occurrences.get(key, 0) + part.occurrences.get(
                key, 1
            )
            held = best.get(key)
            if held is None or warning.step < held.step:
                best[key] = warning
    merged = Report()
    merged.suppressed_count = suppressed
    for warning in sorted(best.values(), key=lambda w: w.step):
        key = warning.location_key
        merged.warnings.append(warning)
        merged._by_location[key] = warning
        merged.occurrences[key] = occurrences[key]
    for warning in sorted(
        predicted.values(), key=lambda w: (w.step, w.kind, w.message)
    ):
        merged.add(warning)
    return merged


def _page_filtered(fn, shard: int, num_shards: int, page_bits: int):
    """Wrap a ``MemoryAccess`` handler so only owned pages reach it."""

    def filtered(event, vm, _fn=fn, _s=shard, _n=num_shards, _b=page_bits):
        if (event.addr >> _b) % _n == _s:
            _fn(event, vm)

    return filtered


def _analyze_shard(payload: tuple) -> dict:
    """One worker's whole job (module-level: picklable for the pool).

    Builds a fresh detector + replay VM, derives its skip set from the
    page-aware block index, replays its shard of the trace, and returns
    only plain picklable state: the report dict, block accounting, a
    telemetry snapshot, the segment-graph signature, and (optionally)
    the dumped shadow pages.
    """
    (
        path, config_name, shard, num_shards, page_bits, collect_shadow,
        transition_cache,
    ) = payload

    import dataclasses

    from repro.api.profiles import profile
    from repro.runtime.trace import ReplayVM, build_handler_table
    from repro.telemetry.metrics import MetricsRegistry

    data = Path(path).read_bytes()
    prof = profile(config_name)
    cfg = prof.config()
    if transition_cache is not None:
        cfg = dataclasses.replace(cfg, transition_cache=transition_cache)
    detector = prof.detector(cfg)
    if hasattr(detector, "predict_deadlocks"):
        # Deadlock prediction consumes only the replicated sync/lifecycle
        # skeleton, so every shard would predict the identical cycles —
        # leave it on for shard 0 alone.
        detector.predict_deadlocks = shard == 0
    vm = ReplayVM()
    table = build_handler_table((vm, detector), vm)

    skip: set[int] | None = None
    mixed = 0
    if num_shards > 1:
        index = codec.build_block_index(data, num_shards, page_bits=page_bits)
        bit = 1 << shard
        skip = {off for off, mask in index.items() if not mask & bit}
        mixed = sum(
            1 for mask in index.values() if mask & bit and mask != bit
        )
        # Decoded access blocks can carry foreign rows only when some
        # block straddles shards; pure blocks need no per-row filter.
        if mixed:
            table[_ACCESS_IDX] = tuple(
                _page_filtered(fn, shard, num_shards, page_bits)
                for fn in table[_ACCESS_IDX]
            )

    stats = codec.ReplayStats()
    events = codec.replay_blocks(data, table, vm, skip_blocks=skip, stats=stats)
    detector.finalize()

    registry = MetricsRegistry()
    labels = {"shard": str(shard)}
    registry.counter(
        "repro_trace_blocks_decoded_total", labels,
        help="Event blocks decoded by this replay shard",
    ).inc(stats.blocks_decoded)
    registry.counter(
        "repro_trace_blocks_skipped_type_total", labels,
        help="Blocks skipped undecoded: no handler for the event type",
    ).inc(stats.blocks_skipped_type)
    registry.counter(
        "repro_trace_blocks_skipped_shard_total", labels,
        help="Blocks skipped undecoded: pages owned by other shards",
    ).inc(stats.blocks_skipped_shard)
    registry.gauge(
        "repro_trace_shard_warnings", labels,
        help="Distinct warning locations found by this shard",
    ).set(detector.report.location_count)

    shadow = None
    if collect_shadow:
        shadow = detector.machine.dump_pages()
        # Replicated MemAlloc/MemFree range-resets materialise pages in
        # *every* shard; only the owner's copy carries access-driven
        # state, and the owner saw those same resets — so ship owned
        # pages only, keeping the merge's disjointness invariant.
        shadow["pages"] = {
            pi: page
            for pi, page in shadow["pages"].items()
            if pi % num_shards == shard
        }

    return {
        "shard": shard,
        "events": events,
        "report": detector.report.to_dict(),
        "stats": {**stats.as_dict(), "mixed_blocks_decoded": mixed},
        "snapshot": registry.snapshot(),
        "segment_signature": detector.segments.signature(),
        "shadow": shadow,
    }


@dataclass
class ShardOutcome:
    """One shard's contribution, post-merge bookkeeping view."""

    shard: int
    events: int
    warnings: int
    stats: dict
    segment_signature: tuple


@dataclass
class ShardedReplayResult:
    """What :func:`replay_trace_sharded` hands back.

    ``report`` is the merged (sequential-identical) report; ``machine``
    is a fresh :class:`~repro.detectors.lockset.LocksetMachine` holding
    the union of every shard's shadow pages when ``collect_shadow`` was
    requested (``None`` otherwise).
    """

    report: object
    events: int
    num_shards: int
    shards: list[ShardOutcome] = field(default_factory=list)
    snapshot: dict | None = None
    machine: object | None = None

    @property
    def skeleton_consistent(self) -> bool:
        """Did every shard derive the same happens-before context?"""
        signatures = {s.segment_signature for s in self.shards}
        return len(signatures) <= 1


def replay_trace_sharded(
    path,
    config: str = "hwlc+dr",
    *,
    shards: int,
    max_workers: int | None = None,
    page_bits: int = PAGE_BITS,
    collect_shadow: bool = False,
    transition_cache: bool | None = None,
) -> ShardedReplayResult:
    """Analyse a binary trace across ``shards`` worker processes.

    ``config`` is a named analysis profile
    (:mod:`repro.api.profiles` — ``original`` / ``hwlc`` / ``hwlc+dr``
    / ``predictive`` / ...); workers rebuild detector and configuration
    by name, so nothing unpicklable crosses the process boundary.  ``transition_cache``
    forces the memoized transition cache on/off in every worker
    (``None`` follows each worker process's default — forked workers
    inherit :func:`~repro.detectors.lockset.set_transition_cache_default`,
    spawned ones reset to on).  ``shards=1`` runs the
    identical code path in-process (no pool, no filter, no skip set) —
    handy as the degenerate case the byte-identity gate compares
    against.  Workers are plain forked processes reassembled in shard
    order, so the result is deterministic whatever order they finish.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    from repro.api.profiles import profile
    from repro.detectors.helgrind import HelgrindDetector

    if not isinstance(profile(config).detector(), HelgrindDetector):
        raise ValueError(
            f"profile {config!r} cannot be sharded: its detector keeps no "
            "lock-set shadow pages to partition"
        )
    path = Path(path)
    if not codec.is_binary_trace(path):
        raise ValueError(
            f"{path} is not a binary RPTR trace; sharded replay needs the "
            "block-structured codec (record with -o trace.rptr)"
        )

    payloads = [
        (
            str(path), config, shard, shards, page_bits, collect_shadow,
            transition_cache,
        )
        for shard in range(shards)
    ]
    if shards == 1:
        parts = [_analyze_shard(payloads[0])]
    else:
        workers = max_workers or min(shards, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_analyze_shard, payloads))

    from repro.detectors.report import Report
    from repro.telemetry.metrics import merge_snapshots

    report = merge_reports(Report.from_dict(p["report"]) for p in parts)
    result = ShardedReplayResult(
        report=report,
        events=parts[0]["events"],
        num_shards=shards,
        shards=[
            ShardOutcome(
                shard=p["shard"],
                events=p["events"],
                warnings=len(p["report"]["warnings"]),
                stats=p["stats"],
                segment_signature=p["segment_signature"],
            )
            for p in parts
        ],
        snapshot=merge_snapshots(p["snapshot"] for p in parts),
    )
    if collect_shadow:
        from repro.detectors.lockset import LocksetMachine
        from repro.detectors.segments import SegmentGraph

        machine = LocksetMachine(SegmentGraph())
        for p in parts:
            machine.merge_pages(p["shadow"])
        result.machine = machine
    return result
