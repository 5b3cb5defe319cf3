"""Hostile RPTR input: every reader accepts and rejects the same bytes.

Replay, streaming, sharding and the tooling views all read through one
record walker and one row decoder, so these properties hold for each
reader in :data:`READERS`:

* **corrupt records are typed errors** — an unknown tag, event type or
  flags byte, a frame or stack naming an undefined string or frame, a
  4 GiB string, an endless varint and a bad magic raise ``ValueError``,
  whether the record stands alone or follows a whole trace, and
  ``load_trace`` and ``replay_trace`` reject a JSON-lines file as a bad
  magic;
* **corrupt rows are typed errors** — a row naming an undefined stack
  or string, or carrying an out-of-range enum, raises
  ``ValueError("corrupt trace: row i of a <Type> block …")``, while an
  ``IndexError`` a handler raises on intact rows stays an
  ``IndexError``;
* **mutated traces never crash a reader** — truncating, flipping,
  setting, inserting and deleting bytes of a recorded trace leaves each
  reader returning or raising ``ValueError``, nothing else;
* **a truncated file replays like a truncated stream** — for any cut,
  ``replay_trace`` of the prefix file and a ``Session`` fed the prefix in
  random chunks count the same events and produce the same report;
* **the writer cannot produce what the readers reject** — ``block_rows``
  is bounded by ``TraceWriter.DEFAULT_BLOCK_ROWS``.
"""

from __future__ import annotations

import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.api.profiles import profile
from repro.runtime import codec
from repro.runtime.codec import StreamDecoder, TraceWriter
from repro.runtime.events import EVENT_TYPES, LockAcquire, MemAlloc, MemoryAccess
from repro.runtime.trace import load_trace, replay_trace


@pytest.fixture(scope="module")
def t1() -> bytes:
    """The T1 evaluation case recorded under hwlc+dr."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import evaluation_cases

    case = next(c for c in evaluation_cases() if c.case_id == "T1")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t1.rptr"
        with TraceRecorder(path, format="binary") as recorder:
            run_proxy_case(case, "hwlc+dr", seed=42, extra_hooks=(recorder,))
        return path.read_bytes()


# ----------------------------------------------------------------------
# The readers
# ----------------------------------------------------------------------


def _touch(event, vm) -> None:
    event.stack  # a handler reads the decoded row


def _table(subscribers: int) -> list[tuple]:
    return [(_touch,) * subscribers for _ in EVENT_TYPES]


def _read_blocks(data: bytes) -> None:
    for _type, _stacks, _strings, s, block, _base in codec.read_blocks(data):
        for _row in s.iter_unpack(block):
            pass


def _stream(chunk: int):
    def feed(data: bytes) -> None:
        decoder = StreamDecoder()
        decoder.bind(_table(1))
        for pos in range(0, len(data), chunk):
            decoder.feed(data[pos:pos + chunk])

    return feed


def _trace_stats(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.rptr"
        path.write_bytes(data)
        codec.trace_stats(path)


READERS = {
    "read_blocks": _read_blocks,
    "read_events": lambda data: list(codec.read_events(data)),
    "events_from_bytes": lambda data: list(codec.events_from_bytes(data)),
    "replay_blocks-1": lambda data: codec.replay_blocks(data, _table(1), None),
    "replay_blocks-2": lambda data: codec.replay_blocks(data, _table(2), None),
    "build_block_index": lambda data: codec.build_block_index(data, 2),
    "page_histogram": codec.page_histogram,
    "trace_stats": _trace_stats,
    "StreamDecoder": _stream(1 << 30),
    "StreamDecoder-chunked": _stream(997),
}


def _varint(n: int) -> bytes:
    buf = bytearray()
    codec._write_varint(buf, n)
    return bytes(buf)


# ----------------------------------------------------------------------
# Corrupt records
# ----------------------------------------------------------------------

#: One corrupt record each; ids far past anything T1 defines, so they
#: stay undefined after a whole trace too.
CORRUPT_RECORDS = {
    "unknown-tag": bytes([9]),
    "unknown-type": bytes([codec._TAG_BLOCK, len(EVENT_TYPES), 0]) + _varint(1),
    "unknown-flags": bytes([codec._TAG_BLOCK, 0, 0xFF]) + _varint(1),
    "frame-undefined-string": bytes([codec._TAG_FRAME])
    + _varint(10**6) + _varint(0) + _varint(7),
    "stack-undefined-frame": bytes([codec._TAG_STACK]) + _varint(1) + _varint(10**6),
    "4GiB-string": bytes([codec._TAG_STRING]) + _varint(4 << 30),
    "endless-varint": bytes([codec._TAG_STRING]) + b"\x80" * 16,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("after_trace", [False, True], ids=["alone", "after-T1"])
@pytest.mark.parametrize("record", CORRUPT_RECORDS)
def test_corrupt_record_is_a_typed_error(t1, reader, after_trace, record):
    data = (t1 if after_trace else codec.MAGIC) + CORRUPT_RECORDS[record]
    with pytest.raises(ValueError, match="corrupt trace"):
        READERS[reader](data)


#: The file readers, given a path.
FILE_READERS = {
    "load_trace": lambda path: list(load_trace(path)),
    "replay_trace": lambda path: replay_trace(
        path, profile("hwlc+dr").detector()
    ),
}


@pytest.mark.parametrize("reader", [*READERS, *FILE_READERS])
def test_bad_magic_is_a_typed_error(t1, tmp_path, reader):
    """The byte readers get an RPTR image with a bad magic; the file
    readers get a JSON-lines trace, which is not RPTR either."""
    with pytest.raises(ValueError, match="bad magic"):
        if reader in READERS:
            READERS[reader](b"RPTX\x01" + t1[len(codec.MAGIC):])
        else:
            path = tmp_path / "trace.jsonl"
            path.write_text('{"type":"MemoryAccess","step":0,"tid":0}\n')
            FILE_READERS[reader](path)


# ----------------------------------------------------------------------
# Corrupt rows
# ----------------------------------------------------------------------


def _one_block(cls, *rows: tuple) -> bytes:
    """A trace defining one empty stack (id 0), then a SEQ_STEP block of
    ``cls`` with ``rows`` (each ``(tid, stack, *fields)``, raw ids)."""
    idx = EVENT_TYPES.index(cls)
    seq = codec._FLAG_SEQ_STEP
    s = codec._ROW_STRUCTS[idx][seq]
    header = bytes([codec._TAG_STACK, 0, codec._TAG_BLOCK, idx, seq, len(rows), 0])
    return codec.MAGIC + header + b"".join(s.pack(*row) for row in rows)


#: ``(trace, expected message)``; LockAcquire rows are
#: ``(tid, stack, lock_id, mode, contended)``, MemoryAccess rows
#: ``(tid, stack, addr, kind, bus_locked, block_id)``.
BAD_ROWS = {
    "undefined-stack": (
        _one_block(LockAcquire, (0, 0, 7, 0, 0), (0, 99, 7, 0, 0)),
        "row 1 of a LockAcquire block",
    ),
    "mode-7": (_one_block(LockAcquire, (0, 0, 7, 7, 0)), "row 0 of a LockAcquire block"),
    "undefined-string": (
        _one_block(MemAlloc, (0, 0, 64, 8, 1, 5)),  # tag names string 5
        "row 0 of a MemAlloc block",
    ),
    "kind-2": (
        _one_block(MemoryAccess, (0, 0, 64, 0, 0, -1), (0, 0, 64, 2, 0, -1)),
        "row 1 of a MemoryAccess block",
    ),
    "bus-2": (
        _one_block(MemoryAccess, (0, 0, 64, 0, 0, -1), (0, 0, 64, 0, 2, -1)),
        "row 1 of a MemoryAccess block",
    ),
    # The second row writes the word the first made the thread's own.
    "access-undefined-stack": (
        _one_block(MemoryAccess, (0, 0, 64, 0, 0, -1), (0, 99, 64, 1, 0, -1)),
        "row 1 of a MemoryAccess block",
    ),
    # The second row repeats the first, so the bulk pump would elide it.
    "repeat-undefined-stack": (
        _one_block(MemoryAccess, (0, 0, 64, 0, 0, -1), (0, 99, 64, 0, 0, -1)),
        "row 1 of a MemoryAccess block",
    ),
}

#: Every reader that decodes rows (the block views hand rows out raw).
ROW_READERS = [
    "events_from_bytes", "replay_blocks-1", "replay_blocks-2",
    "StreamDecoder", "StreamDecoder-chunked",
]


@pytest.mark.parametrize("reader", ROW_READERS)
@pytest.mark.parametrize("row", BAD_ROWS)
def test_corrupt_row_is_a_typed_error(reader, row):
    data, message = BAD_ROWS[row]
    with pytest.raises(ValueError, match=f"corrupt trace: {message}"):
        READERS[reader](data)


@pytest.mark.parametrize("row", [
    "undefined-stack", "mode-7", "kind-2", "bus-2",
    "access-undefined-stack", "repeat-undefined-stack",
])
def test_corrupt_row_fails_a_session(row):
    data, message = BAD_ROWS[row]
    with pytest.raises(ValueError, match=f"corrupt trace: {message}"):
        Session("hwlc+dr").feed(data)


@pytest.mark.parametrize("subscribers", [1, 2])
def test_handler_index_error_stays_an_index_error(t1, subscribers):
    """Intact rows are re-decoded, found sound, and the handler's own
    error propagates unchanged."""

    def buggy(event, vm):
        raise IndexError("handler bug")

    with pytest.raises(IndexError, match="handler bug"):
        codec.replay_blocks(t1, [(buggy,) * subscribers] * len(EVENT_TYPES), None)


# ----------------------------------------------------------------------
# Mutation fuzzing
# ----------------------------------------------------------------------

_AT = st.integers(min_value=0, max_value=1 << 24)
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("truncate"), _AT, st.none()),
        st.tuples(st.just("flip"), _AT, st.integers(0, 7)),
        st.tuples(st.just("set"), _AT, st.integers(0, 255)),
        st.tuples(st.just("insert"), _AT, st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("delete"), _AT, st.integers(1, 8)),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for op, at, arg in mutations:
        if not buf:
            break
        i = at % len(buf)
        if op == "truncate":
            del buf[i:]
        elif op == "flip":
            buf[i] ^= 1 << arg
        elif op == "set":
            buf[i] = arg
        elif op == "insert":
            buf[i:i] = arg
        else:
            del buf[i:i + arg]
    return bytes(buf)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutations=_MUTATIONS)
def test_mutated_trace_returns_or_raises_value_error(t1, mutations):
    data = _mutate(t1, mutations)
    for name, reader in READERS.items():
        try:
            reader(data)
        except ValueError:
            pass
        except Exception as exc:  # pragma: no cover - the failure report
            raise AssertionError(f"{name} raised {exc!r}") from exc


# ----------------------------------------------------------------------
# Truncation: a file prefix replays like a stream prefix
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncated_file_replays_like_a_truncated_stream(t1, data):
    """Cuts start after the magic: a shorter file is not an RPTR trace
    at all, and ``replay_trace`` rejects it as a bad magic."""
    cut = data.draw(st.integers(len(codec.MAGIC), len(t1)), label="cut")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    prefix = t1[:cut]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prefix.rptr"
        path.write_bytes(prefix)
        detector = profile("hwlc+dr").detector()
        count = replay_trace(path, detector)
    detector.finalize()

    session = Session("hwlc+dr")
    rng = random.Random(seed)
    pos = 0
    while pos < len(prefix):
        step = rng.randint(1, 4096)
        session.feed(prefix[pos:pos + step])
        pos += step
    session.finalize()
    assert session.events_seen == count
    assert session.report.to_json() == detector.report.to_json()


# ----------------------------------------------------------------------
# The writer stays inside the readers' limits
# ----------------------------------------------------------------------


@pytest.mark.parametrize("block_rows", [None, 0, TraceWriter.DEFAULT_BLOCK_ROWS + 1])
def test_writer_rejects_block_rows_outside_the_limit(block_rows):
    with pytest.raises(ValueError, match="block_rows"):
        TraceWriter(io.BytesIO(), block_rows=block_rows)
