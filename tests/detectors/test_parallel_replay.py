"""Sharded (intra-trace parallel) replay: byte-identity and merge laws.

The tentpole contract of :mod:`repro.detectors.parallel` is brutal on
purpose: an N-process page-sharded replay must reproduce the sequential
report **byte-for-byte** — same warnings, same order, same occurrence
counts, same suppression tally, same JSON serialisation.  These tests
pin that down from four sides:

* **byte-identity** — T1–T3 under all three paper configurations,
  replayed with 2 and 3 shards, equal the sequential reference bytes;
  the merged shadow state equals the sequential machine's, and every
  shard derived the same happens-before skeleton;
* **the partition is a true partition** (hypothesis) — for arbitrary
  multi-page access mixes and shard counts, every access reaches
  exactly one shard's handler and no access is lost to block skipping,
  with the block-index masks agreeing with :func:`shard_of_addr`;
* **the merge is order-independent** (hypothesis) — folding per-shard
  reports in any permutation yields identical bytes;
* **skip telemetry splits correctly** — ``blocks_skipped_shard``
  (foreign pages) and ``blocks_skipped_type`` (no subscriber) count
  disjoint block populations and ``events_skipped`` accounts for the
  rows inside shard-skipped blocks.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.profiles import profile
from repro.detectors import HelgrindDetector
from repro.detectors.parallel import (
    PAGE_BITS,
    _analyze_shard,
    merge_reports,
    partition_stats,
    replay_trace_sharded,
    shard_of_addr,
)
from repro.detectors.report import Report
from repro.runtime import codec
from repro.runtime.codec import TraceWriter
from repro.runtime.events import (
    EVENT_TYPES,
    AccessKind,
    LockAcquire,
    LockMode,
    MemoryAccess,
)
from repro.runtime.trace import replay_trace

CASES = ("T1", "T2", "T3")
CONFIGS = ("original", "hwlc", "hwlc+dr")

_ACCESS_IDX = EVENT_TYPES.index(MemoryAccess)
_LOCK_IDX = EVENT_TYPES.index(LockAcquire)
_PAGE = 1 << PAGE_BITS


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """T1–T3 recorded under each paper configuration, plus the offline
    sequential reference bytes: ``{(case, config): (path, bytes)}``."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import evaluation_cases

    root = tmp_path_factory.mktemp("parallel-traces")
    by_id = {c.case_id: c for c in evaluation_cases()}
    out = {}
    for case_id in CASES:
        for config in CONFIGS:
            path = root / f"{case_id}-{config.replace('+', '_')}.rptr"
            with TraceRecorder(path, format="binary") as recorder:
                run_proxy_case(by_id[case_id], config, seed=42,
                               extra_hooks=(recorder,))
            det = HelgrindDetector(profile(config).config())
            replay_trace(path, det)
            reference = json.dumps(det.report.to_dict(), indent=2).encode()
            out[(case_id, config)] = (path, reference)
    return out


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), indent=2).encode()


# ----------------------------------------------------------------------
# Byte-identity against the sequential replay
# ----------------------------------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("case_id", CASES)
    def test_two_shards_byte_identical(self, traces, case_id, config):
        path, reference = traces[(case_id, config)]
        result = replay_trace_sharded(path, config, shards=2)
        assert _report_bytes(result.report) == reference
        assert result.skeleton_consistent
        assert result.num_shards == 2 and len(result.shards) == 2

    def test_three_shards_and_shadow_merge(self, traces):
        """Beyond the report: the union of per-shard shadow pages must
        equal the sequential machine's state, page for page."""
        path, reference = traces[("T1", "hwlc+dr")]
        seq = HelgrindDetector(profile("hwlc+dr").config())
        replay_trace(path, seq)

        result = replay_trace_sharded(
            path, "hwlc+dr", shards=3, collect_shadow=True
        )
        assert _report_bytes(result.report) == reference
        assert result.skeleton_consistent
        assert (
            result.machine.state_distribution()
            == seq.machine.state_distribution()
        )

    def test_foreign_blocks_actually_skipped(self, traces):
        """Sharding must show up in the block accounting — at least one
        shard skips at least one foreign access block undecoded."""
        path, _ = traces[("T2", "hwlc+dr")]
        result = replay_trace_sharded(path, "hwlc+dr", shards=2)
        skipped = sum(
            s.stats["blocks_skipped_shard"] for s in result.shards
        )
        assert skipped > 0
        # Every shard still counted the whole event stream.
        assert len({s.events for s in result.shards}) == 1

    def test_shards_one_matches_sequential(self, traces):
        path, reference = traces[("T3", "original")]
        result = replay_trace_sharded(path, "original", shards=1)
        assert _report_bytes(result.report) == reference

    def test_rejects_bad_inputs(self, tmp_path, traces):
        with pytest.raises(ValueError, match="shards"):
            replay_trace_sharded(traces[("T1", "hwlc")][0], "hwlc", shards=0)
        text = tmp_path / "t.jsonl"
        text.write_text("{}\n")
        with pytest.raises(ValueError, match="binary RPTR"):
            replay_trace_sharded(text, "hwlc", shards=2)


# ----------------------------------------------------------------------
# Property: the page partition is a true partition
# ----------------------------------------------------------------------


def _write_trace(events, block_rows):
    buf = io.BytesIO()
    writer = TraceWriter(buf, block_rows=block_rows)
    for event in events:
        writer.write(event)
    writer.close()
    return buf.getvalue()


@st.composite
def _mixed_events(draw):
    """A step-ordered mix of multi-page accesses and lock traffic."""
    n = draw(st.integers(min_value=1, max_value=60))
    events = []
    for step in range(n):
        if draw(st.integers(0, 4)) == 0:
            events.append(
                LockAcquire(step, draw(st.integers(0, 3)), 7,
                            LockMode.WRITE, False)
            )
        else:
            addr = draw(st.integers(0, 7)) * _PAGE + draw(
                st.integers(0, _PAGE - 1)
            )
            events.append(
                MemoryAccess(step, draw(st.integers(0, 3)), addr,
                             AccessKind.READ, False, -1)
            )
    return events


@given(
    events=_mixed_events(),
    num_shards=st.integers(min_value=1, max_value=4),
    block_rows=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_property_partition_covers_every_access_once(
    events, num_shards, block_rows
):
    """Replaying every shard (skip set + page filter, exactly as the
    workers do) observes each access exactly once across the union,
    and each access lands in the shard :func:`shard_of_addr` names."""
    data = _write_trace(events, block_rows)
    index = codec.build_block_index(data, num_shards)
    accesses = [e for e in events if isinstance(e, MemoryAccess)]

    seen: list[tuple[int, int, int]] = []  # (shard, step, addr)
    for shard in range(num_shards):
        bit = 1 << shard
        skip = {off for off, mask in index.items() if not mask & bit}

        def handler(event, vm, _shard=shard):
            if (event.addr >> PAGE_BITS) % num_shards == _shard:
                seen.append((_shard, event.step, event.addr))

        table: list[tuple] = [() for _ in EVENT_TYPES]
        table[_ACCESS_IDX] = (handler,)
        count = codec.replay_blocks(data, table, None, skip_blocks=skip)
        assert count == len(events)

    # Exactly-once coverage, owned by the shard the address maps to.
    assert sorted((s, a) for _, s, a in seen) == sorted(
        (e.step, e.addr) for e in accesses
    )
    for shard, _, addr in seen:
        assert shard == shard_of_addr(addr, num_shards)

    # The index masks agree with shard_of_addr and the stats add up.
    full = (1 << num_shards) - 1
    for mask in index.values():
        assert 0 < mask <= full
    stats = partition_stats(index, num_shards)
    assert stats["access_blocks"] == len(index)
    assert stats["pure_blocks"] + stats["mixed_blocks"] == len(index)
    if num_shards == 1:
        assert stats["mixed_blocks"] == 0


# ----------------------------------------------------------------------
# Property: the merge is order-independent
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_parts(traces):
    """Three per-shard reports from a real worker-side analysis (run
    inline — ``_analyze_shard`` is the exact function the pool maps)."""
    path, reference = traces[("T2", "hwlc+dr")]
    parts = [
        _analyze_shard((str(path), "hwlc+dr", shard, 3, PAGE_BITS, False))
        for shard in range(3)
    ]
    return [Report.from_dict(p["report"]) for p in parts], reference


@given(perm=st.permutations(list(range(3))))
@settings(max_examples=6, deadline=None)
def test_property_merge_is_order_independent(shard_parts, perm):
    parts, reference = shard_parts
    merged = merge_reports(parts[i] for i in perm)
    assert _report_bytes(merged) == reference


def test_merge_sums_occurrences_and_suppressions(shard_parts):
    parts, _ = shard_parts
    merged = merge_reports(parts)
    assert merged.dynamic_count == sum(p.dynamic_count for p in parts)
    assert merged.suppressed_count == sum(
        p.suppressed_count for p in parts
    )
    # Warnings come back in ascending step order — the sequential
    # first-occurrence order.
    steps = [w.step for w in merged.warnings]
    assert steps == sorted(steps)


# ----------------------------------------------------------------------
# Skip telemetry: shard skips vs type skips
# ----------------------------------------------------------------------


def test_skip_counters_split_cleanly():
    """Foreign-page blocks and no-subscriber blocks are tallied apart,
    and ``events_skipped`` counts only the former's rows."""
    events = (
        [MemoryAccess(i, 0, 0x10 + i, AccessKind.READ, False, -1)
         for i in range(4)]          # page 0 → shard 0: 2 blocks
        + [LockAcquire(4, 0, 7, LockMode.WRITE, False),
           LockAcquire(5, 1, 8, LockMode.WRITE, False)]  # 1 lock block
        + [MemoryAccess(6 + i, 0, _PAGE + i, AccessKind.READ, False, -1)
           for i in range(4)]        # page 1 → shard 1: 2 blocks
    )
    data = _write_trace(events, block_rows=2)
    index = codec.build_block_index(data, 2)
    assert len(index) == 4  # only access blocks are indexed

    skip = {off for off, mask in index.items() if not mask & 1}  # shard 0
    assert len(skip) == 2

    seen = []
    table: list[tuple] = [() for _ in EVENT_TYPES]
    table[_ACCESS_IDX] = ((lambda e, vm: seen.append(e.addr)),)

    stats = codec.ReplayStats()
    count = codec.replay_blocks(
        data, table, None, skip_blocks=skip, stats=stats
    )
    assert count == len(events)
    assert seen == [0x10, 0x11, 0x12, 0x13]
    assert stats.blocks_decoded == 2
    assert stats.blocks_skipped_shard == 2
    assert stats.blocks_skipped_type == 1
    # Rows inside skipped blocks of either kind: 4 foreign + 2 lock.
    assert stats.events_skipped == 6
    assert stats.as_dict() == {
        "events": len(events),
        "blocks_decoded": 2,
        "blocks_skipped_type": 1,
        "blocks_skipped_shard": 2,
        "events_skipped": 6,
    }


def test_stats_without_skip_set_counts_type_skips():
    """The sequential path (no skip set) keeps the old semantics:
    undecoded blocks are all type-skips, never shard-skips."""
    events = [
        MemoryAccess(0, 0, 0x10, AccessKind.READ, False, -1),
        LockAcquire(1, 0, 7, LockMode.WRITE, False),
    ]
    data = _write_trace(events, block_rows=TraceWriter.DEFAULT_BLOCK_ROWS)
    table: list[tuple] = [() for _ in EVENT_TYPES]
    table[_ACCESS_IDX] = ((lambda e, vm: None),)
    stats = codec.ReplayStats()
    codec.replay_blocks(data, table, None, stats=stats)
    assert stats.blocks_decoded == 1
    assert stats.blocks_skipped_type == 1
    assert stats.blocks_skipped_shard == 0
    assert stats.events_skipped == 1  # the undecoded lock row


# ----------------------------------------------------------------------
# CLI: --shards produces the same --report-out bytes
# ----------------------------------------------------------------------


def test_cli_sharded_report_matches_sequential(traces, tmp_path, capsys):
    from repro.cli import main

    path, reference = traces[("T1", "hwlc+dr")]
    seq_out = tmp_path / "seq.json"
    shard_out = tmp_path / "shard.json"
    assert main(["trace", "replay", str(path), "hwlc+dr",
                 "--report-out", str(seq_out)]) == 0
    assert main(["trace", "replay", str(path), "hwlc+dr", "--shards", "2",
                 "--report-out", str(shard_out)]) == 0
    out = capsys.readouterr().out
    assert "across 2 shards" in out
    assert "skipped (foreign pages)" in out
    assert seq_out.read_bytes() == shard_out.read_bytes()
    assert seq_out.read_bytes() == reference


def test_cli_stat_prints_page_histogram(traces, capsys):
    from repro.cli import main

    path, _ = traces[("T1", "hwlc+dr")]
    assert main(["trace", "stat", str(path)]) == 0
    out = capsys.readouterr().out
    assert "distinct shadow pages" in out
    assert "skew" in out
    assert "page 0x" in out
