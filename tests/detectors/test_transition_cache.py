"""The memoized transition cache and batched replay must be *invisible*
in every report (docs/PERFORMANCE.md layer 6).

Four angles:

* **byte-identity, live path** — T1–T3 under all three paper
  configurations produce byte-identical reports with the cache forced
  on and forced off;
* **byte-identity, batched replay** — replaying the recorded traces
  with the cache on routes whole ``MemoryAccess`` blocks through
  :meth:`HelgrindDetector.bulk_access`; the report must equal both the
  cache-off per-event replay and the live report, byte for byte — even
  with the memo capacity crushed to force evictions mid-replay;
* **counters** — memo hits/misses/evictions tally where expected and
  stay zero when disabled;
* **gates** — the default (on) and the per-config ``False`` reference
  path, the ``bulk_access_ready`` static gate, and the pickling rule
  (memo values embed process-local lockset ids, so checkpoints ship it
  empty).
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.api.profiles import profile
from repro.detectors import HelgrindDetector
from repro.detectors.helgrind import HelgrindConfig
from repro.detectors.lockset import LocksetMachine
from repro.detectors.segments import SegmentGraph
from repro.runtime.trace import replay_trace

CASES = ("T1", "T2", "T3")
CONFIGS = ("original", "hwlc", "hwlc+dr")


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), indent=2).encode()


def _config(name: str, cache: bool) -> HelgrindConfig:
    return dataclasses.replace(profile(name).config(), transition_cache=cache)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """T1–T3 recorded under each configuration with the cache *off*
    (the uncached live run is the ground truth), as
    ``{(case, config): (trace path, live report bytes)}``."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import evaluation_cases

    root = tmp_path_factory.mktemp("cache-traces")
    by_id = {c.case_id: c for c in evaluation_cases()}
    out = {}
    for case_id in CASES:
        for config in CONFIGS:
            path = root / f"{case_id}-{config.replace('+', '_')}.rptr"
            det = HelgrindDetector(_config(config, cache=False))
            with TraceRecorder(path, format="binary") as recorder:
                run_proxy_case(by_id[case_id], config, seed=42,
                               detector=det, extra_hooks=(recorder,))
            out[(case_id, config)] = (path, _report_bytes(det.report))
    return out


# ----------------------------------------------------------------------
# Byte-identity: live path, cache on vs off
# ----------------------------------------------------------------------


class TestLiveByteIdentity:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("case_id", CASES)
    def test_cached_live_run_matches_uncached(self, traces, case_id, config):
        from repro.experiments.harness import run_proxy_case
        from repro.sip.workload import evaluation_cases

        _, reference = traces[(case_id, config)]
        case = next(c for c in evaluation_cases() if c.case_id == case_id)
        det = HelgrindDetector(_config(config, cache=True))
        run_proxy_case(case, config, seed=42, detector=det)
        assert _report_bytes(det.report) == reference
        stats = det.machine.transition_cache_stats()
        assert stats["hits"] > 0  # the memo actually carried load


# ----------------------------------------------------------------------
# Byte-identity: batched block replay, cache on vs off vs live
# ----------------------------------------------------------------------


class TestReplayByteIdentity:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("case_id", CASES)
    def test_bulk_replay_matches_uncached_and_live(
        self, traces, case_id, config
    ):
        path, reference = traces[(case_id, config)]

        cached = HelgrindDetector(_config(config, cache=True))
        assert cached.bulk_access_ready()  # blocks go through bulk_access
        replay_trace(path, cached)
        assert _report_bytes(cached.report) == reference

        uncached = HelgrindDetector(_config(config, cache=False))
        assert not uncached.bulk_access_ready()
        replay_trace(path, uncached)
        assert _report_bytes(uncached.report) == reference

        # Elision and batching must not change the access accounting.
        assert cached._access_checks == uncached._access_checks

    def test_bulk_replay_survives_forced_evictions(
        self, traces, monkeypatch
    ):
        """A capacity-crushed memo evicts mid-replay and still reproduces
        the reference bytes (eviction is a pure cache event)."""
        from repro.detectors import lockset

        monkeypatch.setattr(lockset, "_MEMO_CAP", 4)
        path, reference = traces[("T2", "hwlc+dr")]
        det = HelgrindDetector(_config("hwlc+dr", cache=True))
        replay_trace(path, det)
        assert _report_bytes(det.report) == reference
        assert det.machine.transition_cache_stats()["evictions"] > 0


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------


#: ``(access_checks, rows elided, memo hits, memo misses)`` of a cached
#: replay of each recorded trace at seed 42.  They feed
#: ``detectors.elided_ratio`` and ``detectors.memo_hit_ratio``, so a
#: faster pump must reproduce them exactly, not just keep them positive.
COUNTERS = {
    ("T1", "original"): (3248, 34, 1842, 19),
    ("T1", "hwlc"): (3248, 34, 1844, 17),
    ("T1", "hwlc+dr"): (3239, 46, 1765, 17),
    ("T2", "original"): (2372, 34, 1216, 15),
    ("T2", "hwlc"): (2372, 34, 1217, 14),
    ("T2", "hwlc+dr"): (2363, 48, 1129, 14),
    ("T3", "original"): (1442, 19, 697, 19),
    ("T3", "hwlc"): (1442, 19, 699, 17),
    ("T3", "hwlc+dr"): (1442, 28, 666, 17),
}


class TestCounters:
    def test_memo_counters_tally(self, traces):
        tallies = {}
        for key in COUNTERS:
            det = HelgrindDetector(_config(key[1], cache=True))
            replay_trace(traces[key][0], det)
            stats = det.machine.transition_cache_stats()
            tallies[key] = (
                det.access_checks, det._elided, stats["hits"], stats["misses"]
            )
            assert stats["size"] == len(det.machine._memo)
            assert stats["evictions"] == 0  # default cap is far above T1–T3
        assert tallies == COUNTERS

    def test_disabled_machine_reports_zeros(self, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        det = HelgrindDetector(_config("hwlc+dr", cache=False))
        replay_trace(path, det)
        assert det.machine.transition_cache_stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
        }
        assert det._elided == 0


# ----------------------------------------------------------------------
# Gates: defaults, overrides, bulk readiness, pickling
# ----------------------------------------------------------------------


class TestGates:
    def test_config_override_beats_default(self):
        # Ships enabled: a machine or a profile's config caches unless
        # told not to.
        assert LocksetMachine(SegmentGraph())._memo is not None
        det = HelgrindDetector(profile("hwlc+dr").config())
        assert det.machine._memo is not None
        assert det.bulk_access_ready()
        assert LocksetMachine(SegmentGraph(), transition_cache=False)._memo is None
        det = HelgrindDetector(_config("hwlc+dr", cache=False))
        assert det.machine._memo is None
        assert not det.bulk_access_ready()

    def test_bulk_ready_requires_exact_shape(self):
        # Access history keeps per-access side effects the bulk loop
        # does not model; the no-states ablation skips access_check's
        # fast path entirely; subclasses may override handlers.
        hist = HelgrindDetector(
            dataclasses.replace(
                profile("hwlc+dr").config(),
                access_history=True, transition_cache=True,
            )
        )
        assert not hist.bulk_access_ready()
        raw = HelgrindDetector(
            dataclasses.replace(
                profile("raw-eraser").config(), transition_cache=True
            )
        )
        assert not raw.bulk_access_ready()

        class Sub(HelgrindDetector):
            pass

        assert not Sub(_config("hwlc+dr", cache=True)).bulk_access_ready()

    def test_codec_bulk_resolution(self):
        """Only a sole bound MemoryAccess subscriber with an opted-in
        owner resolves to a bulk consumer; everything else is None."""
        from repro.runtime import codec

        det = HelgrindDetector(_config("hwlc+dr", cache=True))
        fn = det._on_access
        idx = codec._ACCESS_TYPE_IDX
        assert codec._bulk_for(idx, (fn,)) == det.bulk_access
        assert codec._bulk_for(idx, (fn, fn)) is None  # several handlers
        assert codec._bulk_for(idx + 1, (fn,)) is None  # wrong type
        assert codec._bulk_for(idx, (lambda e, vm: None,)) is None  # closure
        off = HelgrindDetector(_config("hwlc+dr", cache=False))
        assert codec._bulk_for(idx, (off._on_access,)) is None

    def test_pickle_ships_an_empty_memo(self, traces):
        path, _ = traces[("T1", "hwlc+dr")]
        det = HelgrindDetector(_config("hwlc+dr", cache=True))
        replay_trace(path, det)
        assert det.machine._memo  # non-empty before the round-trip
        clone = pickle.loads(pickle.dumps(det.machine))
        assert clone._memo == {}  # enabled but emptied: values embed
        assert clone.transition_cache  # process-local lockset ids
