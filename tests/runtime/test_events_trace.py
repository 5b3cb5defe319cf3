"""Tests for the event model and trace record/replay."""

from __future__ import annotations

from repro.runtime.codec import MAGIC
from repro.runtime.events import AccessKind, Frame, MemoryAccess
from repro.runtime.trace import TraceRecorder, load_trace, replay
from tests.conftest import record_trace, run_program


class TestEventModel:
    def test_site_is_innermost_frame(self):
        stack = (Frame("inner", "a.cpp", 1), Frame("outer", "a.cpp", 2))
        e = MemoryAccess(0, 0, stack=stack, addr=1)
        assert e.site.function == "inner"

    def test_site_none_for_empty_stack(self):
        e = MemoryAccess(0, 0, addr=1)
        assert e.site is None

    def test_is_write(self):
        r = MemoryAccess(0, 0, addr=1, kind=AccessKind.READ)
        w = MemoryAccess(0, 0, addr=1, kind=AccessKind.WRITE)
        assert not r.is_write
        assert w.is_write

    def test_frame_str(self):
        assert str(Frame("f", "x.cpp", 3)) == "f (x.cpp:3)"

    def test_events_are_immutable(self):
        import dataclasses

        import pytest

        e = MemoryAccess(0, 0, addr=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.addr = 2  # type: ignore[misc]


class TestFrame:
    """Frames are tuples: stacks hash and compare in C, with the hash,
    text and pickle of the frame they replaced."""

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(Frame("f", "x.cpp", 3)) == hash(("f", "x.cpp", 3))
        assert hash(Frame("g")) == hash(("g", "<guest>", 0))

    def test_str_and_repr(self):
        frame = Frame("f", "x.cpp", 3)
        assert str(frame) == "f (x.cpp:3)"
        assert repr(frame) == "Frame(function='f', file='x.cpp', line=3)"

    def test_pickle_round_trip(self):
        import pickle

        frame = Frame("f", "x.cpp", 3)
        back = pickle.loads(pickle.dumps(frame))
        assert back == frame
        assert type(back) is Frame

    def test_live_and_decoded_stacks_intern_to_one_object(self, tmp_path):
        from repro.experiments.harness import run_proxy_case
        from repro.runtime import codec
        from repro.sip.workload import evaluation_cases

        case = next(c for c in evaluation_cases() if c.case_id == "T1")
        path = tmp_path / "t1.rptr"
        live = TraceRecorder()
        with TraceRecorder(path, format="binary") as recorder:
            run_proxy_case(case, "hwlc+dr", seed=42, extra_hooks=(live, recorder))
        decoded = list(codec.events_from_bytes(path.read_bytes()))
        assert len(decoded) == len(live.events)
        assert any(event.stack for event in live.events)
        for got, want in zip(decoded, live.events):
            assert got.stack is want.stack


def _sample_program(api):
    addr = api.malloc(2, tag="x")
    api.store(addr, 0)
    m = api.mutex()

    def worker(a):
        a.lock(m)
        a.store(addr, a.load(addr) + 1)
        a.unlock(m)

    t = api.spawn(worker)
    api.lock(m)
    api.store(addr, api.load(addr) + 1)
    api.unlock(m)
    api.join(t)


class TestTraceRecorder:
    def test_records_every_event(self):
        events, vm = record_trace(_sample_program)
        assert len(events) == vm.stats.total_events

    def test_file_spill_and_reload(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            run_program(_sample_program, detectors=(recorder,))
        loaded = load_trace(path)
        assert list(loaded) == recorder.events
        # The suffix picks nothing: every recorded file is RPTR.
        assert path.read_bytes().startswith(MAGIC)

    def test_estimated_bytes_scales(self):
        recorder = TraceRecorder()
        run_program(_sample_program, detectors=(recorder,))
        assert recorder.estimated_bytes > len(recorder) > 0

    def test_estimated_bytes_is_the_rptr_size(self, tmp_path):
        path = tmp_path / "trace.rptr"
        in_memory = TraceRecorder()
        with TraceRecorder(path) as spilled:
            run_program(_sample_program, detectors=(in_memory, spilled))
        size = path.stat().st_size
        assert in_memory.estimated_bytes == spilled.estimated_bytes == size

    def test_rptr_is_the_only_format(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="unknown trace format"):
            TraceRecorder(tmp_path / "trace.jsonl", format="jsonl")
        assert not (tmp_path / "trace.jsonl").exists()

    def test_empty_recorder(self):
        recorder = TraceRecorder()
        assert len(recorder) == 0
        assert recorder.estimated_bytes == 0


class TestReplay:
    def test_replay_feeds_all_events(self):
        events, _ = record_trace(_sample_program)

        class Counter:
            n = 0

            def handle(self, event, vm):
                self.n += 1

        counter = Counter()
        replay(events, counter)
        assert counter.n == len(events)

    def test_replay_matches_online_for_stateless_count(self):
        """A detector sees the same stream online and offline."""

        class Collector:
            def __init__(self):
                self.kinds = []

            def handle(self, event, vm):
                self.kinds.append(type(event).__name__)

        online = Collector()
        recorder = TraceRecorder()
        run_program(_sample_program, detectors=(online, recorder))
        offline = Collector()
        replay(recorder.events, offline)
        assert online.kinds == offline.kinds
