"""StreamDecoder: incremental RPTR v1 decoding and byte accounting.

The streaming analysis service feeds the decoder arbitrary network
chunks — record boundaries land anywhere.  These tests pin the three
properties the service relies on:

* **chunking is invisible** — any partition of a trace's bytes (one
  feed, random chunks, near-byte-at-a-time) decodes exactly the same
  events and tables as the batch reader;
* **byte accounting is exact** — for every tier-1 case T1–T8, the
  writer's ``bytes_written``, the file size, and the decoder's
  ``bytes_consumed`` after a full feed are all equal, and nothing is
  left pending;
* **mid-stream pickling works** — a decoder pickled between chunks
  resumes on the remaining bytes with identical totals (the service's
  checkpoint/resume path);
* **hostile headers fail fast** — a record declaring more than
  ``MAX_RECORD_BYTES`` is rejected on its header, before the decoder
  buffers its body, while the writer's largest block still streams;
  an unknown block type or flags byte, or a reference to an undefined
  string or frame, is a typed ``ValueError``, not an ``IndexError``;
* **set-up is per process, state is per decoder** — the decode
  templates compile once per process, yet every bound decoder and
  every ``replay_blocks`` call decodes into its own flyweights.
"""

from __future__ import annotations

import io
import pickle
import random

import pytest

from repro.runtime import codec
from repro.runtime.codec import StreamDecoder, TraceWriter, trace_stats
from repro.runtime.events import EVENT_TYPES, MemAlloc

CASE_IDS = [f"T{i}" for i in range(1, 9)]


@pytest.fixture(scope="module")
def recorded_traces(tmp_path_factory):
    """Record every tier-1 case once: ``{case_id: (path, recorder_stats)}``."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import evaluation_cases

    root = tmp_path_factory.mktemp("traces")
    cases = {c.case_id: c for c in evaluation_cases()}
    out = {}
    for case_id in CASE_IDS:
        path = root / f"{case_id}.rptr"
        with TraceRecorder(path, format="binary") as recorder:
            run_proxy_case(cases[case_id], "hwlc+dr", seed=42,
                           extra_hooks=(recorder,))
        out[case_id] = (path, recorder.bytes_written, len(recorder))
    return out


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_bytes_accounting_matches_writer(recorded_traces, case_id):
    """writer.bytes_written == file size == decoder.bytes_consumed."""
    path, bytes_written, events_written = recorded_traces[case_id]
    assert path.stat().st_size == bytes_written

    stats = trace_stats(path)
    assert stats["file_bytes"] == bytes_written
    assert stats["events"] == events_written

    decoder = StreamDecoder()
    decoder.feed(path.read_bytes())
    assert decoder.bytes_fed == bytes_written
    assert decoder.bytes_consumed == bytes_written
    assert decoder.pending_bytes == 0
    assert decoder.events_decoded == events_written


def test_random_chunk_feed_equals_batch(recorded_traces):
    data = recorded_traces["T1"][0].read_bytes()
    reference = StreamDecoder()
    reference.feed(data)

    rng = random.Random(7)
    decoder = StreamDecoder()
    pos = 0
    while pos < len(data):
        n = rng.randint(1, 4096)
        decoder.feed(data[pos:pos + n])
        pos += n
    assert decoder.events_decoded == reference.events_decoded
    assert decoder.blocks_decoded == reference.blocks_decoded
    assert decoder.bytes_consumed == len(data)
    assert decoder.pending_bytes == 0
    assert decoder.table_sizes() == reference.table_sizes()


def test_tiny_chunks_tolerate_any_record_boundary(recorded_traces):
    """Prime-sized chunks guarantee every record straddles a feed."""
    data = recorded_traces["T2"][0].read_bytes()
    stats = trace_stats(recorded_traces["T2"][0])
    decoder = StreamDecoder()
    for pos in range(0, len(data), 13):
        decoder.feed(data[pos:pos + 13])
    assert decoder.events_decoded == stats["events"]
    assert decoder.bytes_consumed == len(data)
    assert decoder.pending_bytes == 0


def test_partial_magic_and_header_stay_pending():
    decoder = StreamDecoder()
    decoder.feed(codec.MAGIC[:3])
    assert decoder.events_decoded == 0
    assert decoder.bytes_consumed == 0
    decoder.feed(codec.MAGIC[3:])
    assert decoder.bytes_consumed == len(codec.MAGIC)
    assert decoder.pending_bytes == 0


def test_bad_magic_raises():
    decoder = StreamDecoder()
    with pytest.raises(ValueError):
        decoder.feed(b"NOPE\x01xxxx")


def test_mid_stream_pickle_resumes_identically(recorded_traces):
    data = recorded_traces["T3"][0].read_bytes()
    whole = StreamDecoder()
    whole.feed(data)

    first = StreamDecoder()
    cut = len(data) // 2 + 3  # deliberately mid-record
    first.feed(data[:cut])
    resumed = pickle.loads(pickle.dumps(first))
    assert resumed.bytes_fed == first.bytes_fed
    resumed.feed(data[cut:])

    assert resumed.events_decoded == whole.events_decoded
    assert resumed.blocks_decoded == whole.blocks_decoded
    assert resumed.bytes_consumed == whole.bytes_consumed == len(data)
    assert resumed.table_sizes() == whole.table_sizes()


def test_bytes_fed_is_the_resume_offset(recorded_traces):
    """``bytes_fed`` (consumed + pending) is where a resuming client
    must seek its source — feeding exactly from there loses nothing."""
    data = recorded_traces["T1"][0].read_bytes()
    stats = trace_stats(recorded_traces["T1"][0])
    decoder = StreamDecoder()
    cut = 10_000
    decoder.feed(data[:cut])
    assert decoder.bytes_fed == cut
    assert decoder.bytes_fed == decoder.bytes_consumed + decoder.pending_bytes
    decoder.feed(data[decoder.bytes_fed:])
    assert decoder.events_decoded == stats["events"]


def _varint(n: int) -> bytes:
    buf = bytearray()
    codec._write_varint(buf, n)
    return bytes(buf)


@pytest.mark.parametrize(
    "header",
    [
        bytes([codec._TAG_STRING]) + _varint(2**40),
        bytes([codec._TAG_STACK]) + _varint(2**40),
        bytes([codec._TAG_BLOCK, 0, 0]) + _varint(2**50),
        bytes([codec._TAG_STRING]) + b"\x80" * 11,
    ],
    ids=["string", "stack", "block", "endless-varint"],
)
def test_oversized_record_rejected_on_its_header(header):
    """An unbounded decoder would buffer every later chunk while it
    waits for the declared body, re-copying the pending bytes on each
    feed, so one client could grow a worker's memory without limit."""
    decoder = StreamDecoder()
    with pytest.raises(ValueError, match="corrupt trace"):
        decoder.feed(codec.MAGIC + header)
    assert decoder.pending_bytes <= len(header)


@pytest.mark.parametrize(
    "record",
    [
        bytes([codec._TAG_BLOCK, len(EVENT_TYPES), 0]) + _varint(1),
        bytes([codec._TAG_BLOCK, 0, 0xFF]) + _varint(1),
        bytes([codec._TAG_FRAME]) + _varint(0) + _varint(0) + _varint(7),
        bytes([codec._TAG_STACK]) + _varint(1) + _varint(0),
    ],
    ids=["unknown-type", "unknown-flags", "undefined-string", "undefined-frame"],
)
def test_undefined_reference_is_a_typed_error(record):
    """A header naming something the stream never defined fails the
    session with a ``ValueError`` a server can report, not an
    ``IndexError`` from inside the decoder."""
    decoder = StreamDecoder()
    with pytest.raises(ValueError, match="corrupt trace"):
        decoder.feed(codec.MAGIC + record)


def test_largest_writer_block_streams_under_the_limit():
    """A full default block of the widest rows (64-bit fields, explicit
    steps) stays well inside ``MAX_RECORD_BYTES``."""
    rows = TraceWriter.DEFAULT_BLOCK_ROWS
    buf = io.BytesIO()
    writer = TraceWriter(buf)
    for i in range(rows):
        writer.write(MemAlloc(2 * i, 1, 2**40 + i, 2**33, i, "blob"))
    writer.close()
    data = buf.getvalue()
    assert 4 * len(data) < codec.MAX_RECORD_BYTES
    decoder = StreamDecoder()
    for pos in range(0, len(data), 4096):
        decoder.feed(data[pos:pos + 4096])
    assert decoder.events_decoded == rows
    assert decoder.pending_bytes == 0


def _recording_table(seen: dict) -> list[tuple]:
    """One subscriber per event type that keeps the object it was given."""
    def record(event, vm):
        seen.setdefault(type(event).__name__, set()).add(event)

    return [(record,) for _ in EVENT_TYPES]


def test_decode_templates_compile_once_per_process(recorded_traces, monkeypatch):
    """Sessions after the first one, and every ``replay_blocks`` call,
    reuse the compiled templates; only the flyweights are per decoder."""
    from repro.api import Session
    from repro.api.profiles import profile
    from repro.runtime.trace import replay_trace

    Session("hwlc+dr")  # the first session in a process may pay the compile
    compiled = []
    real = codec._compile_templates

    def counting(cls):
        compiled.append(cls)
        return real(cls)

    monkeypatch.setattr(codec, "_compile_templates", counting)
    path = recorded_traces["T1"][0]
    data = path.read_bytes()
    for _ in range(3):
        Session("hwlc+dr").feed(data)
        replay_trace(path, profile("hwlc+dr").detector())
    assert compiled == []

    # Decoder-private flyweights: no object reaches two decoders' handlers.
    by_decoder = []
    for _ in range(2):
        seen: dict = {}
        decoder = StreamDecoder()
        decoder.bind(_recording_table(seen))
        decoder.feed(data)
        by_decoder.append(seen)
    replayed: dict = {}
    codec.replay_blocks(data, _recording_table(replayed), None)
    by_decoder.append(replayed)
    first, second, third = by_decoder
    assert first.keys() == second.keys() == third.keys()
    for name in first:
        assert first[name].isdisjoint(second[name]), name
        assert third[name].isdisjoint(first[name] | second[name]), name
