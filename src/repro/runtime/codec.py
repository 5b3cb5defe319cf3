"""Binary trace codec — the compact offline tier of §4.5.

The paper's offline-vs-on-the-fly discussion warns that *"offline
techniques suffer from their need for large amount of data"*; the
JSON-lines trace the recorder originally spilled repeats every frame of
every call stack, every field name and every enum string once per
event.  This codec removes the redundancy the same way the in-memory
layer already does — by interning — and stores what remains as
fixed-width binary rows:

Format (``RPTR`` version 1)
---------------------------
A trace file is the 5-byte magic ``b"RPTR\\x01"`` followed by tagged
records.  Each record starts with a one-byte tag:

``0`` — **string definition**: varint byte length + UTF-8 bytes.
    Strings are interned; the n-th definition gets id ``n``.
``1`` — **frame definition**: varint function-string id, varint
    file-string id, varint line.  Frames get sequential ids.
``2`` — **stack definition**: varint frame count + that many varint
    frame ids (innermost first).  Stacks get sequential ids.
``3`` — **event block**: one byte event-type index (into
    :data:`repro.runtime.events.EVENT_TYPES`), one flags byte, varint
    row count, ``[varint base step]``, then ``count`` fixed-width
    little-endian rows (:mod:`struct`).  A row is
    ``[step:u32,] tid:i32, stack:u32`` followed by the type's own
    fields; strings and enums appear as table ids, so a row is pure
    numbers.  Flag bit 0 (*SEQ_STEP*): the rows' steps are consecutive
    — the per-row step column is dropped and reconstructed from the
    header's base step (the VM numbers events 0,1,2,…, so in practice
    every block qualifies).  Flag bit 1 (*NARROW*): the type's 64-bit
    fields (addresses, sizes) all fit in 32 bits for this block and are
    stored as u32.

All varints are unsigned LEB128.  Definitions always precede the first
row that references them.  Consecutive events of the same type coalesce
into one block, so the dominant ``MemoryAccess`` runs amortise the
block header to well under a byte per event — and decoding a block is
one :func:`struct.iter_unpack` call (C speed), which is what lets
replay-from-disk keep up with replay-from-memory.

The write path (:class:`TraceWriter`) is streaming — events go out as
encoded blocks, nothing is retained — and counts exact bytes written.
There is one read path, :class:`StreamDecoder`'s record walker: it
checks every record header and stops before the first incomplete
record.  :func:`replay_blocks` is a decoder run over a whole image;
:func:`read_blocks`, :func:`events_from_bytes` (real frozen events),
:func:`build_block_index` and :func:`page_histogram` iterate the same
walker.  So every reader rejects a corrupt trace with
``ValueError("corrupt trace: …")`` and reads a truncated one up to its
last complete record.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import fields as dc_fields
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.runtime.events import (
    AccessKind,
    BarrierWait,
    ClientRequest,
    CondSignal,
    CondWait,
    EVENT_TYPES,
    Event,
    Frame,
    LockAcquire,
    LockMode,
    LockRelease,
    MemAlloc,
    MemFree,
    MemoryAccess,
    QueueGet,
    QueuePut,
    SemPost,
    SemWait,
    ThreadCreate,
    ThreadFinish,
    ThreadJoin,
    intern_frame,
    intern_stack,
)

__all__ = [
    "MAGIC",
    "TraceWriter",
    "StreamDecoder",
    "ReplayStats",
    "read_blocks",
    "read_events",
    "events_from_bytes",
    "replay_blocks",
    "build_block_index",
    "page_histogram",
    "is_binary_trace",
    "trace_stats",
]

#: File magic + format version byte.
MAGIC = b"RPTR\x01"

# Record tags.
_TAG_STRING = 0
_TAG_FRAME = 1
_TAG_STACK = 2
_TAG_BLOCK = 3

#: Field codes: struct letter + how the value is (de)coded.
#: ``i``/``q`` plain ints, ``B`` bool, ``kind``/``mode`` enum index,
#: ``str`` string-table id.
_KINDS = (AccessKind.READ, AccessKind.WRITE)
_KIND_INDEX = {k: i for i, k in enumerate(_KINDS)}
_MODES = (LockMode.EXCLUSIVE, LockMode.READ, LockMode.WRITE)
_MODE_INDEX = {m: i for i, m in enumerate(_MODES)}
_BOOLS = (False, True)

#: Per-type extra fields (beyond step/tid/stack), in *dataclass field
#: order* — decoding passes them positionally to the constructor.
_SPECS: dict[type, tuple[tuple[str, str], ...]] = {
    MemoryAccess: (
        ("addr", "q"), ("kind", "kind"), ("bus_locked", "B"), ("block_id", "i"),
    ),
    MemAlloc: (("addr", "q"), ("size", "q"), ("block_id", "i"), ("tag", "str")),
    MemFree: (("addr", "q"), ("size", "q"), ("block_id", "i")),
    LockAcquire: (("lock_id", "i"), ("mode", "mode"), ("contended", "B")),
    LockRelease: (("lock_id", "i"), ("mode", "mode")),
    ThreadCreate: (("child_tid", "i"),),
    ThreadFinish: (),
    ThreadJoin: (("joined_tid", "i"),),
    CondWait: (("cond_id", "i"), ("mutex_id", "i"), ("phase", "str")),
    CondSignal: (("cond_id", "i"), ("broadcast", "B")),
    SemPost: (("sem_id", "i"),),
    SemWait: (("sem_id", "i"),),
    BarrierWait: (("barrier_id", "i"), ("generation", "i"), ("phase", "str")),
    QueuePut: (("queue_id", "i"), ("msg_id", "i")),
    QueueGet: (("queue_id", "i"), ("msg_id", "i")),
    ClientRequest: (("request", "str"), ("addr", "q"), ("size", "q")),
}

_STRUCT_LETTER = {"i": "i", "q": "q", "B": "B", "kind": "B", "mode": "B", "str": "I"}

# Block flags.
_FLAG_SEQ_STEP = 1  #: per-row step column elided (header carries base)
_FLAG_NARROW = 2  #: 64-bit fields stored as u32 for this block
_FLAGS_MAX = _FLAG_SEQ_STEP | _FLAG_NARROW


def _row_struct(cls, *, seq: bool, narrow: bool) -> struct.Struct:
    letters = "".join(
        ("I" if narrow and code == "q" else _STRUCT_LETTER[code])
        for _, code in _SPECS[cls]
    )
    return struct.Struct("<" + ("" if seq else "I") + "iI" + letters)


#: Per-type row-struct variants indexed ``[type_idx][flags]`` — the
#: common prefix is ``[step:u32,] tid:i32, stack:u32``.
_ROW_STRUCTS: tuple[tuple[struct.Struct, ...], ...] = tuple(
    tuple(
        _row_struct(cls, seq=bool(f & _FLAG_SEQ_STEP), narrow=bool(f & _FLAG_NARROW))
        for f in range(4)
    )
    for cls in EVENT_TYPES
)

#: Positions (in the full ``(step, tid, stack, *fields)`` row tuple) of
#: each type's 64-bit fields — the writer checks these for NARROW.
_Q_POSITIONS: tuple[tuple[int, ...], ...] = tuple(
    tuple(i for i, (_, code) in enumerate(_SPECS[cls], start=3) if code == "q")
    for cls in EVENT_TYPES
)

_TYPE_INDEX: dict[type, int] = {cls: i for i, cls in enumerate(EVENT_TYPES)}

# Sanity: specs must list every field, in declaration order.
for _cls, _spec in _SPECS.items():
    _declared = tuple(
        f.name for f in dc_fields(_cls) if f.name not in ("step", "tid", "stack")
    )
    assert _declared == tuple(name for name, _ in _spec), _cls


def _write_varint(buf: bytearray, n: int) -> None:
    """Append unsigned LEB128."""
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


class TraceWriter:
    """Streaming binary trace encoder with interned string/frame/stack
    tables and an exact :attr:`bytes_written` counter.

    Consecutive events of one type accumulate into a pending block that
    is flushed when the type changes (or on :meth:`close`); table
    definitions triggered while encoding a block are emitted *before*
    it, so a reader never sees a forward reference.

    ``block_rows`` caps how many rows one block may hold: a long
    same-type run (the dominant ``MemoryAccess`` stretches) is split
    into multiple consecutive blocks of that size.  The cap bounds the
    writer's pending buffer and — more importantly — sets the
    granularity of the page-aware block index
    (:func:`build_block_index`): sharded replay can only skip *whole*
    blocks, so smaller blocks mean a shard worker seeks past more
    foreign data undecoded.  The header overhead stays amortised to
    well under a byte per event at the default size.  That is also the
    largest cap, so every block stays under the readers'
    :data:`MAX_RECORD_BYTES` and the writer cannot produce a trace they
    reject.
    """

    #: Default and largest block cap — large enough that the ~6-byte
    #: block header is noise, small enough that single-page access runs
    #: produce single-shard blocks.
    DEFAULT_BLOCK_ROWS = 4096

    def __init__(self, fh: BinaryIO, *, block_rows: int = DEFAULT_BLOCK_ROWS) -> None:
        if block_rows not in range(1, self.DEFAULT_BLOCK_ROWS + 1):
            raise ValueError(f"block_rows must be in 1..{self.DEFAULT_BLOCK_ROWS}")
        self._block_rows = block_rows
        self._fh = fh
        self._strings: dict[str, int] = {}
        self._frames: dict[Frame, int] = {}
        self._stacks: dict[tuple, int] = {}
        #: Definition records produced while encoding the pending block.
        self._defs = bytearray()
        #: Pending same-type rows (value tuples) and their type index.
        self._rows: list[tuple] = []
        self._row_type = -1
        self.events_written = 0
        self.bytes_written = 0
        fh.write(MAGIC)
        self.bytes_written += len(MAGIC)

    # -- interning (emits definition records on first sight) ----------

    def _string_id(self, s: str) -> int:
        sid = self._strings.get(s)
        if sid is None:
            sid = len(self._strings)
            self._strings[s] = sid
            raw = s.encode("utf-8")
            defs = self._defs
            defs.append(_TAG_STRING)
            _write_varint(defs, len(raw))
            defs += raw
        return sid

    def _frame_id(self, frame: Frame) -> int:
        fid = self._frames.get(frame)
        if fid is None:
            func = self._string_id(frame.function)
            file = self._string_id(frame.file)
            fid = len(self._frames)
            self._frames[frame] = fid
            defs = self._defs
            defs.append(_TAG_FRAME)
            _write_varint(defs, func)
            _write_varint(defs, file)
            _write_varint(defs, frame.line)
        return fid

    def _stack_id(self, stack: tuple) -> int:
        sid = self._stacks.get(stack)
        if sid is None:
            frame_ids = [self._frame_id(f) for f in stack]
            sid = len(self._stacks)
            self._stacks[stack] = sid
            defs = self._defs
            defs.append(_TAG_STACK)
            _write_varint(defs, len(frame_ids))
            for fid in frame_ids:
                _write_varint(defs, fid)
        return sid

    # -- encoding ------------------------------------------------------

    def write(self, event: Event) -> None:
        """Encode one event (buffered until the block flushes)."""
        cls = type(event)
        idx = _TYPE_INDEX[cls]
        if idx != self._row_type:
            if self._rows:
                self._flush_block()
            self._row_type = idx
        row = [event.step, event.tid, self._stack_id(event.stack)]
        for name, code in _SPECS[cls]:
            value = getattr(event, name)
            if code == "str":
                value = self._string_id(value)
            elif code == "kind":
                value = _KIND_INDEX[value]
            elif code == "mode":
                value = _MODE_INDEX[value]
            row.append(value)
        self._rows.append(tuple(row))
        self.events_written += 1
        if len(self._rows) >= self._block_rows:
            self._flush_block()

    def _flush_block(self) -> None:
        rows = self._rows
        idx = self._row_type
        base = rows[0][0]
        flags = 0
        if all(row[0] == base + i for i, row in enumerate(rows)):
            flags |= _FLAG_SEQ_STEP
        q_positions = _Q_POSITIONS[idx]
        if q_positions and all(
            0 <= row[p] < 0x1_0000_0000 for row in rows for p in q_positions
        ):
            flags |= _FLAG_NARROW
        header = bytearray()
        if self._defs:
            header += self._defs
            self._defs = bytearray()
        header.append(_TAG_BLOCK)
        header.append(idx)
        header.append(flags)
        _write_varint(header, len(rows))
        pack = _ROW_STRUCTS[idx][flags].pack
        if flags & _FLAG_SEQ_STEP:
            _write_varint(header, base)
            body = b"".join(pack(*row[1:]) for row in rows)
        else:
            body = b"".join(pack(*row) for row in rows)
        self._fh.write(header)
        self._fh.write(body)
        self.bytes_written += len(header) + len(body)
        self._rows = []

    def flush(self) -> None:
        """Flush the pending block (and any pending definitions)."""
        if self._rows:
            self._flush_block()
        elif self._defs:
            self._fh.write(self._defs)
            self.bytes_written += len(self._defs)
            self._defs = bytearray()

    def close(self) -> None:
        """Flush; the caller owns (and closes) the file object."""
        self.flush()

    def table_sizes(self) -> dict[str, int]:
        """Interning-table populations (``repro trace stat`` input)."""
        return {
            "strings": len(self._strings),
            "frames": len(self._frames),
            "stacks": len(self._stacks),
        }


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def is_binary_trace(path) -> bool:
    """True if the file starts with the :data:`MAGIC` bytes."""
    with open(path, "rb") as fh:
        return fh.read(len(MAGIC)) == MAGIC


def _check_magic(data) -> None:
    if not data.startswith(MAGIC):
        raise ValueError("not a binary trace (bad magic)")


def _walk(data: bytes) -> tuple["StreamDecoder", Iterator[tuple]]:
    """A fresh decoder and its record walker over a whole trace image."""
    _check_magic(data)
    decoder = StreamDecoder()
    return decoder, decoder._records(data, len(MAGIC), len(data))


def read_blocks(data: bytes) -> Iterator[tuple]:
    """Block-level generator over an in-memory trace image.

    Yields ``(type_idx, stacks, strings, row_struct, block, base_step)``
    per event block; ``stacks`` / ``strings`` are the decoder's live
    interning tables (``stacks[i]`` is a canonical interned
    ``CallStack``), ``block`` is a zero-copy memoryview, and the
    consumer runs ``row_struct.iter_unpack`` over it — one C call per
    block, not per event.  ``base_step`` is the SEQ_STEP base (row ``i``
    has step ``base_step + i`` and no step column) or ``None`` when the
    rows carry their own steps.  Consumers can also *skip* whole blocks
    whose type nobody subscribes to without decoding a single row.
    """
    decoder, records = _walk(data)
    view = memoryview(data)
    stacks, strings = decoder._stacks, decoder._strings
    for _at, type_idx, s, base, start, n in records:
        yield type_idx, stacks, strings, s, view[start:start + s.size * n], base


def read_events(data: bytes) -> Iterator[tuple]:
    """Row generator: yields ``(event_class, stacks, strings, row)``.

    ``row`` is the full tuple ``(step, tid, stack_id, *fields)`` —
    string and enum fields still table ids; SEQ_STEP blocks have their
    steps reconstituted here.  Consumers that want real events use
    :func:`events_from_bytes`.
    """
    for type_idx, stacks, strings, s, block, base in read_blocks(data):
        cls = EVENT_TYPES[type_idx]
        rows = s.iter_unpack(block)
        if base is not None:
            rows = ((step, *row) for step, row in enumerate(rows, base))
        for row in rows:
            yield cls, stacks, strings, row


#: Per-type getter of a filled flyweight's positional constructor
#: arguments — ``stack`` is keyword-only on the frozen classes.
_EVENT_ARGS = tuple(
    attrgetter("step", "tid", *(name for name, _ in _SPECS[cls]))
    for cls in EVENT_TYPES
)


def _fill_rows(type_idx: int, s: struct.Struct, block, base, stacks, strings):
    """One block's rows, each decoded by the type's fill function into a
    flyweight fresh for the block — the row loop behind
    :func:`events_from_bytes` and :func:`_check_rows`."""
    fly_class, fill, seq_fill = _templates()[type_idx][:3]
    fly = fly_class()
    if base is None:
        for row in s.iter_unpack(block):
            yield fill(fly, stacks, strings, row)
    else:
        for step, row in enumerate(s.iter_unpack(block), base):
            yield seq_fill(fly, stacks, strings, row, step)


def _check_rows(type_idx: int, s: struct.Struct, block, base, stacks, strings) -> None:
    """Re-decode a block whose decode raised ``IndexError``, and raise a
    typed error at the first row that names an undefined stack or string
    or carries an out-of-range enum.  Returns when every row decodes —
    the error came from a handler, and the caller re-raises it."""
    rows = _fill_rows(type_idx, s, block, base, stacks, strings)
    decoded = 0
    try:
        for decoded, _ in enumerate(rows, 1):
            pass
    except IndexError:
        raise ValueError(
            f"corrupt trace: row {decoded} of a {EVENT_TYPES[type_idx].__name__} "
            "block names an undefined stack or string, or an out-of-range enum"
        ) from None


def events_from_bytes(data: bytes) -> Iterator[Event]:
    """Generator of real frozen events (canonical interned stacks),
    each built from a flyweight filled by the same generated fill
    function replay uses — so a corrupt row fails here as it does there.
    """
    for type_idx, stacks, strings, s, block, base in read_blocks(data):
        cls, args = EVENT_TYPES[type_idx], _EVENT_ARGS[type_idx]
        try:
            for fly in _fill_rows(type_idx, s, block, base, stacks, strings):
                yield cls(*args(fly), stack=fly.stack)
        except IndexError:
            _check_rows(type_idx, s, block, base, stacks, strings)
            raise


# ----------------------------------------------------------------------
# Flyweight decoding (the allocation-free replay fast path)
# ----------------------------------------------------------------------


def _flyweight_class(cls) -> type:
    """A mutable twin of a frozen event class.

    Same attribute names (plus the ``is_write`` / ``site`` conveniences
    detectors use), but one instance is *reused* for every event of the
    type — replay allocates zero event objects.  Handlers must treat it
    as borrowed for the duration of the call; all of ours copy out the
    scalar fields and the (immutable, canonical) stack tuple.
    """
    names = tuple(f.name for f in dc_fields(cls))
    ns: dict = {
        "__slots__": names,
        "site": property(lambda self: self.stack[0] if self.stack else None),
    }
    if cls is MemoryAccess:
        ns["is_write"] = property(lambda self: self.kind is AccessKind.WRITE)
    return type("Replay" + cls.__name__, (), ns)


_FILL_EXPR = {
    "i": "row[{i}]",
    "q": "row[{i}]",
    "B": "_BOOLS[row[{i}]]",
    "str": "strings[row[{i}]]",
    "kind": "_KINDS[row[{i}]]",
    "mode": "_MODES[row[{i}]]",
}


def _codegen(lines: list[str]):
    """Compile one generated ``def _f(...)`` and return the function."""
    ns = {"_BOOLS": _BOOLS, "_KINDS": _KINDS, "_MODES": _MODES}
    exec("\n".join(lines), ns)  # noqa: S102 - static template, no user input
    return ns["_f"]


def _make_filler(cls, *, seq: bool):
    """Code-generate ``fill(fly, stacks, strings, row) -> fly``.

    Direct attribute assignments (no setattr loop) keep the per-event
    decode cost at a handful of stores — the same trick namedtuple uses
    for its generated ``__new__``.  The ``seq`` variant decodes SEQ_STEP
    rows, which carry no step column: it takes the reconstructed step as
    a fifth argument, so no ``(step, *row)`` tuple is rebuilt per event.
    """
    if seq:
        lines = ["def _f(fly, stacks, strings, row, step):", "    fly.step = step"]
    else:
        lines = ["def _f(fly, stacks, strings, row):", "    fly.step = row[0]"]
    first = 0 if seq else 1
    lines.append(f"    fly.tid = row[{first}]")
    lines.append(f"    fly.stack = stacks[row[{first + 1}]]")
    for i, (name, code) in enumerate(_SPECS[cls], start=first + 2):
        lines.append(f"    fly.{name} = " + _FILL_EXPR[code].format(i=i))
    lines.append("    return fly")
    return _codegen(lines)


def _make_block_loop(cls, *, seq: bool):
    """Code-generate one fused single-handler block loop.

    ``loop(fly, block, s, stacks, strings, fn, vm, base)`` iterates one
    event block with ``s.iter_unpack`` and calls ``fn(fly, vm)`` per
    row.  Plain-int fields are unpacked *directly into flyweight
    attributes in the for-statement target* — Python allows attribute
    references as unpack targets — so the hot loop has no per-row
    function call, no row tuple, and no subscript chain.  Only
    table-indexed fields (stack, strings, enums, bools) take one temp +
    one indexed store each, so a byte out of a table's range raises
    ``IndexError`` here as it does in the fill functions.  The ``seq``
    variant decodes SEQ_STEP blocks: rows have no step column,
    ``fly.step`` comes from a local counter seeded with the block's
    base step.
    """
    targets = [] if seq else ["fly.step"]
    targets += ["fly.tid", "_s"]
    body = ["        fly.stack = stacks[_s]"]
    if seq:
        body.insert(0, "        fly.step = step")
        body.insert(1, "        step += 1")
    for name, code in _SPECS[cls]:
        if code in ("i", "q"):
            targets.append(f"fly.{name}")
        else:
            targets.append(f"_{name}")
            table = {
                "B": "_BOOLS", "kind": "_KINDS", "mode": "_MODES", "str": "strings",
            }[code]
            body.append(f"        fly.{name} = {table}[_{name}]")
    target = ", ".join(targets)
    return _codegen([
        "def _f(fly, block, s, stacks, strings, fn, vm, base):",
        *(["    step = base"] if seq else []),
        f"    for {target} in s.iter_unpack(block):",
        *body,
        "        fn(fly, vm)",
    ])


def _compile_templates(cls) -> tuple:
    """Code-generate one event type's decode templates.

    Returns ``(flyweight class, fill, seq fill, loop, seq loop)``.  The
    functions take the flyweight to populate as their first argument and
    keep nothing between calls, so one compiled set serves every decoder
    in the process, on any thread.
    """
    return (
        _flyweight_class(cls),
        _make_filler(cls, seq=False),
        _make_filler(cls, seq=True),
        _make_block_loop(cls, seq=False),
        _make_block_loop(cls, seq=True),
    )


@functools.cache
def _templates() -> tuple[tuple, ...]:
    """Every type's :func:`_compile_templates`, indexed like
    :data:`EVENT_TYPES`: compiled on first use, then shared by every
    decoder in the process.  The 64 ``exec`` calls cost milliseconds —
    more than a whole small served session — so they must not run per
    decoder.  Two threads racing the first call may both compile; either
    result serves, since the templates hold no state."""
    return tuple(_compile_templates(cls) for cls in EVENT_TYPES)


def _dispatch_table(handler_table) -> list[tuple]:
    """The per-type dispatch table of :func:`replay_blocks` and
    :meth:`StreamDecoder.bind` — one entry per :data:`EVENT_TYPES` index,
    so a block costs a single list index::

        (struct variants, single handler or None, handlers, flyweight,
         fill, seq fill, loop, seq loop, bulk consumer or None)

    Every call stamps fresh flyweight instances (one per type, shared by
    that entry's fills and loops), so two tables never share mutable
    state and concurrent decoders stay isolated; the compiled functions
    come from the process-wide :func:`_templates`.
    """
    return [
        (
            _ROW_STRUCTS[i],
            fns[0] if len(fns) == 1 else None,
            tuple(fns),
            fly_class(),
            fill,
            seq_fill,
            loop,
            seq_loop,
            _bulk_for(i, fns),
        )
        for i, (fns, (fly_class, fill, seq_fill, loop, seq_loop)) in enumerate(
            zip(handler_table, _templates())
        )
    ]


class ReplayStats:
    """Per-replay block accounting for :func:`replay_blocks`.

    Splits the skipped-undecoded tally by *why* the block was skipped:

    ``blocks_skipped_type``
        no handler subscribes to the block's event type (the classic
        fast path — e.g. ``BarrierWait`` under every helgrind config);
    ``blocks_skipped_shard``
        the caller's ``skip_blocks`` set named the block — sharded
        replay seeking past blocks whose pages belong to other shards.

    ``events_skipped`` counts the rows inside skipped blocks (of either
    kind); they still count toward the replay's event total, ``events``.
    """

    __slots__ = (
        "events",
        "blocks_decoded",
        "blocks_skipped_type",
        "blocks_skipped_shard",
        "events_skipped",
    )

    def __init__(self) -> None:
        self.events = 0
        self.blocks_decoded = 0
        self.blocks_skipped_type = 0
        self.blocks_skipped_shard = 0
        self.events_skipped = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def _bulk_for(type_idx: int, fns) -> "object | None":
    """Resolve a batched block consumer for one dispatch entry.

    Only the sole-subscriber ``MemoryAccess`` shape qualifies: the
    handler must be a bound method (closures from telemetry wrappers or
    shard page filters have no ``__self__`` and fall through), and its
    owner must publish ``bulk_access_ready()`` and opt in.  Everything
    else returns ``None`` and the per-event loops run unchanged.
    """
    if type_idx != _ACCESS_TYPE_IDX or len(fns) != 1:
        return None
    owner = getattr(fns[0], "__self__", None)
    if owner is None:
        return None
    ready = getattr(owner, "bulk_access_ready", None)
    if ready is None or not ready():
        return None
    return owner.bulk_access



def replay_blocks(
    data: bytes,
    handler_table,
    vm,
    *,
    skip_blocks: frozenset | set | None = None,
    stats: ReplayStats | None = None,
) -> int:
    """The replay-from-binary hot loop; returns the event count.

    A :class:`StreamDecoder` bound to ``handler_table`` and run once
    over the whole image — the same record walker and dispatch step a
    streamed session uses, so a file and a stream of the same bytes
    decode, dispatch and fail identically, and a truncated file replays
    up to its last complete record.  ``handler_table[type_idx]`` is a
    tuple of handler callables (empty → the block is skipped without
    decoding a row); one subscriber takes the fused codegen loop,
    several share a flyweight per row.

    ``skip_blocks`` is a set of block record offsets (the tag byte's
    offset, as reported by :func:`build_block_index`) to seek past
    undecoded — the sharded-replay fast path.  Skipped rows still count
    toward the returned event total, so every shard reports the same
    trace length.  ``stats`` (a :class:`ReplayStats`) receives the
    total and block accounting when given; the default path pays none.
    """
    _check_magic(data)
    decoder = StreamDecoder()
    decoder.bind(handler_table, vm)
    events = decoder._run(data, len(MAGIC), skip_blocks, stats)
    if stats is not None:
        stats.events = events
    return events


# ----------------------------------------------------------------------
# Page-aware block index (the sharded-replay seek table)
# ----------------------------------------------------------------------

#: Shadow-page size must agree with the lock-set machine's
#: (:mod:`repro.detectors.lockset` uses 2**10-word pages); the shard
#: partition keys on the same pages so every word's whole access
#: history lands in exactly one shard.
DEFAULT_PAGE_BITS = 10

#: ``MemoryAccess`` is the partitioned event type; everything else is
#: skeleton, replicated to every shard.
_ACCESS_TYPE_IDX = _TYPE_INDEX[MemoryAccess]


def _access_rows(data: bytes) -> Iterator[tuple]:
    """Per ``MemoryAccess`` block: ``(record offset, row iterator, addr
    column)`` — the walk behind the block index and page histogram."""
    view = memoryview(data)
    for record_at, type_idx, s, base, start, n in _walk(data)[1]:
        if type_idx == _ACCESS_TYPE_IDX:
            rows = s.iter_unpack(view[start:start + s.size * n])
            yield record_at, rows, 2 if base is not None else 3


def build_block_index(
    data: bytes,
    num_shards: int,
    *,
    page_bits: int = DEFAULT_PAGE_BITS,
) -> dict[int, int]:
    """Map each ``MemoryAccess`` block to the set of shards it touches.

    One pass over the trace image: for every access block, the ``addr``
    column is scanned and each row's shard — ``(addr >> page_bits) %
    num_shards`` — is OR-ed into a bitmask.  Returns ``{block record
    offset: shard bitmask}`` where the offset is that of the block's
    tag byte, the same coordinate :func:`replay_blocks` checks its
    ``skip_blocks`` set against.  A shard worker derives its skip set
    as every block whose mask misses its bit, and needs a per-row page
    filter only for *mixed* blocks (mask with more than one bit).

    Non-access blocks are not indexed — they are skeleton (sync, lock,
    thread-lifecycle, allocation) and every shard must replay them.
    The scan early-exits a block once its mask saturates.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    index: dict[int, int] = {}
    full_mask = (1 << num_shards) - 1
    for record_at, rows, addr_col in _access_rows(data):
        mask = 0
        for row in rows:
            mask |= 1 << ((row[addr_col] >> page_bits) % num_shards)
            if mask == full_mask:
                break
        index[record_at] = mask
    return index


def page_histogram(
    data: bytes,
    *,
    page_bits: int = DEFAULT_PAGE_BITS,
    top: int = 10,
) -> dict:
    """Events-per-shadow-page distribution of a trace's memory accesses.

    The shard-balance predictor behind ``repro trace stat``: accesses
    partition across shards by page, so a trace whose accesses pile
    onto one page cannot parallelise.  Returns::

        {"accesses": int,           # MemoryAccess rows in the trace
         "pages": int,              # distinct shadow pages touched
         "top": [(page, count)],    # hottest pages, descending
         "skew": float}             # hottest page / mean page load

    ``skew`` is 1.0 for a perfectly uniform trace and approaches
    ``pages`` as everything collapses onto one page; 0.0 when there
    are no accesses at all.
    """
    counts: dict[int, int] = {}
    for _at, rows, addr_col in _access_rows(data):
        for row in rows:
            page = row[addr_col] >> page_bits
            counts[page] = counts.get(page, 0) + 1
    accesses = sum(counts.values())
    pages = len(counts)
    hottest = max(counts.values()) if counts else 0
    mean = accesses / pages if pages else 0.0
    return {
        "accesses": accesses,
        "pages": pages,
        "top": sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top],
        "skew": (hottest / mean) if mean else 0.0,
    }


# ----------------------------------------------------------------------
# The one RPTR reader (streaming, resumable, checked)
# ----------------------------------------------------------------------


#: Largest record any reader accepts, in declared bytes: a STRING's
#: length, a STACK's frame count (every frame id takes at least one
#: byte) or a BLOCK's rows × row size.  The writer's largest record is a
#: full block — at most 4096 rows of at most 36 B, 144 KiB — so anything
#: bigger is corrupt.  Rejecting it on the header bounds the bytes
#: :class:`StreamDecoder` ever holds pending.
MAX_RECORD_BYTES = 1 << 20


def _try_varint(data: bytes, pos: int, end: int) -> tuple[int, int] | None:
    """Read unsigned LEB128 at ``pos``; ``None`` if it runs off ``end``.

    A varint wider than 64 bits is corrupt (and, unchecked, would keep
    the decoder buffering continuation bytes forever)."""
    result = 0
    shift = 0
    while pos < end:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift >= 64:
            raise ValueError("corrupt trace: varint longer than 64 bits")
    return None


def _try_varints(data: bytes, pos: int, end: int, count: int):
    """Read ``count`` varints at ``pos`` → ``(values, next pos)``;
    ``None`` if they run off ``end``."""
    values = []
    for _ in range(count):
        r = _try_varint(data, pos, end)
        if r is None:
            return None
        value, pos = r
        values.append(value)
    return values, pos


def _oversized(what: str) -> ValueError:
    return ValueError(
        f"corrupt trace: {what} exceeds the {MAX_RECORD_BYTES}-byte record limit"
    )


#: The dispatch table of a never-bound decoder: no single handler
#: (``[1]``) and no handlers (``[2]``), so every block is skipped.
_UNBOUND = ((None, None, ()),) * len(EVENT_TYPES)


class StreamDecoder:
    """Incremental, resumable RPTR v1 decoder tolerant of partial reads —
    the one reader of the format.

    A network ingest path gets the byte stream in arbitrary chunks — a
    record (or even a varint inside one) can straddle any boundary.
    :meth:`feed` buffers input and decodes every *complete* record,
    leaving the trailing fragment buffered for the next chunk, so the
    chunking of the transport never changes what the detectors see.
    :func:`replay_blocks` is a decoder run once over a whole image, and
    the other whole-image readers iterate the same record walker, so
    every reader applies the same checks.

    Dispatch is one step for every caller — fused codegen loops for
    single-subscriber types, shared flyweights for multi-subscriber
    ones, undecoded skipping for types nobody wants — with the
    process-wide compiled templates but *private* flyweight instances,
    so any number of decoders can run on concurrent threads (one per
    analysis session) without sharing mutable state.

    Input comes from outside the process, so the walker checks every
    record on its header (:meth:`_records`): a record over
    :data:`MAX_RECORD_BYTES` fails as soon as its header arrives, and
    the pending fragment never grows past one legal record.  A row
    naming an undefined stack or string, or carrying an out-of-range
    enum, fails the block that holds it.

    The decoder is picklable mid-stream: its interning tables, counters
    and buffered fragment travel; the unpicklable dispatch table and
    bound handlers are rebuilt by calling :meth:`bind` again after
    unpickling.  This is what lets the analysis service checkpoint a
    session and resume it in a fresh process — the client continues
    streaming from :attr:`bytes_fed` and the decode picks up exactly
    where it left off.

    Byte accounting is exact and two-level: :attr:`bytes_fed` counts
    everything ever passed to :meth:`feed`; :attr:`bytes_consumed`
    counts complete decoded records (including the magic).  At any
    moment ``bytes_fed == bytes_consumed + pending_bytes``, and after a
    whole trace has been fed, both equal the
    :attr:`TraceWriter.bytes_written` of the writer that produced it.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._magic_seen = False
        self._strings: list[str] = []
        self._frames: list[Frame] = []
        self._stacks: list[tuple] = []
        #: Bytes ever fed, and bytes of fully-decoded records.
        self.bytes_fed = 0
        self.bytes_consumed = 0
        self.events_decoded = 0
        self.blocks_decoded = 0
        self._dispatch = _UNBOUND
        self._vm = None
        #: Where the last walk stopped: the end of its last complete record.
        self._walked = 0

    # -- handler wiring ------------------------------------------------

    def bind(self, handler_table, vm=None) -> None:
        """Attach per-type handlers (the shape ``replay_trace`` builds:
        one tuple of callables per :data:`EVENT_TYPES` index).

        Stamps a private set of flyweights over the decode templates,
        which compile once per process (the first bind pays a few
        milliseconds; later ones tens of microseconds).  Must be called
        again after unpickling.  A decoder that is never bound still
        decodes (and counts) records; it just dispatches to nobody,
        which is what pure accounting consumers (``trace stat``-style)
        want.
        """
        self._dispatch = _dispatch_table(handler_table)
        self._vm = vm

    # -- pickling (checkpoint support) ---------------------------------

    def __getstate__(self) -> dict:
        return {
            "buf": bytes(self._buf),
            "magic_seen": self._magic_seen,
            "strings": list(self._strings),
            "frames": list(self._frames),
            "stacks": [tuple(s) for s in self._stacks],
            "bytes_fed": self.bytes_fed,
            "bytes_consumed": self.bytes_consumed,
            "events_decoded": self.events_decoded,
            "blocks_decoded": self.blocks_decoded,
        }

    def __setstate__(self, state: dict) -> None:
        self._buf = bytearray(state["buf"])
        self._magic_seen = state["magic_seen"]
        self._strings = list(state["strings"])
        # Re-intern: unpickled frames/stacks are equal but not canonical;
        # putting them back through the tables restores the one-object-
        # per-program-point invariant the detectors rely on for cheap
        # report deduplication.
        self._frames = [intern_frame(f) for f in state["frames"]]
        self._stacks = [intern_stack(s) for s in state["stacks"]]
        self.bytes_fed = state["bytes_fed"]
        self.bytes_consumed = state["bytes_consumed"]
        self.events_decoded = state["events_decoded"]
        self.blocks_decoded = state["blocks_decoded"]
        self._dispatch = _UNBOUND
        self._vm = None

    # -- introspection -------------------------------------------------

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of the trailing incomplete record."""
        return len(self._buf)

    def table_sizes(self) -> dict[str, int]:
        """Interning-table populations (mirrors ``TraceWriter``'s)."""
        return {
            "strings": len(self._strings),
            "frames": len(self._frames),
            "stacks": len(self._stacks),
        }

    # -- decoding ------------------------------------------------------

    def feed(self, data: bytes) -> int:
        """Buffer ``data``, decode every complete record, dispatch the
        events to the bound handlers; returns the number of events
        decoded by *this* call."""
        buf = self._buf
        buf += data
        self.bytes_fed += len(data)
        if not self._magic_seen:
            if len(buf) < len(MAGIC):
                return 0
            _check_magic(buf)
            del buf[: len(MAGIC)]
            self.bytes_consumed += len(MAGIC)
            self._magic_seen = True
        events = self._run(bytes(buf), 0)
        del buf[: self._walked]
        self.bytes_consumed += self._walked
        return events

    def _records(self, data: bytes, pos: int, end: int) -> Iterator[tuple]:
        """Walk the complete records of ``data[pos:end]``.

        STRING, FRAME and STACK definitions extend this decoder's
        tables.  Each BLOCK yields ``(record_at, type_idx, row_struct,
        base, start, n)``: the offset of its tag byte, its type index,
        the struct of its rows, its SEQ_STEP base step (``None`` when
        the rows carry their own steps), the offset of its first row and
        its row count.  The walk stops before the first incomplete
        record and leaves that record's offset in :attr:`_walked`.

        It raises ``ValueError("corrupt trace: …")`` on an unknown
        record tag, event type or flags byte, a string that is not
        UTF-8, a frame or stack naming a string or frame not yet
        defined, a varint over 64 bits and a record over
        :data:`MAX_RECORD_BYTES`.
        """
        strings = self._strings
        frames = self._frames
        stacks = self._stacks
        structs = _ROW_STRUCTS
        num_types = len(structs)
        while pos < end:
            record_at = pos
            tag = data[pos]
            pos += 1
            if tag == _TAG_BLOCK:
                if end - pos < 3:
                    break
                type_idx = data[pos]
                flags = data[pos + 1]
                if type_idx >= num_types:
                    raise ValueError(
                        f"corrupt trace: block of unknown event type {type_idx}"
                    )
                if flags > _FLAGS_MAX:
                    raise ValueError(
                        f"corrupt trace: block with unknown flags {flags:#x}"
                    )
                n = data[pos + 2]
                pos += 3
                if n & 0x80:
                    r = _try_varint(data, pos - 1, end)
                    if r is None:
                        break
                    n, pos = r
                if flags & _FLAG_SEQ_STEP:
                    # The base step is the VM's step number: past the
                    # first 128 events it never fits one byte.
                    r = _try_varint(data, pos, end)
                    if r is None:
                        break
                    base, pos = r
                else:
                    base = None
                s = structs[type_idx][flags]
                size = s.size * n
                if size > MAX_RECORD_BYTES:
                    raise _oversized(f"a block of {n} rows ({size} bytes)")
                if end - pos < size:
                    break
                yield record_at, type_idx, s, base, pos, n
                pos += size
            elif tag == _TAG_STRING:
                r = _try_varint(data, pos, end)
                if r is None:
                    break
                length, pos = r
                if length > MAX_RECORD_BYTES:
                    raise _oversized(f"a string of {length} bytes")
                if end - pos < length:
                    break
                try:
                    strings.append(str(data[pos:pos + length], "utf-8"))
                except UnicodeDecodeError:
                    raise ValueError(
                        f"corrupt trace: string {len(strings)} is not UTF-8"
                    ) from None
                pos += length
            elif tag == _TAG_FRAME:
                r = _try_varints(data, pos, end, 3)
                if r is None:
                    break
                (func, file, line), pos = r
                if max(func, file) >= len(strings):
                    raise ValueError(
                        f"corrupt trace: frame names undefined string "
                        f"{max(func, file)} ({len(strings)} defined)"
                    )
                frames.append(intern_frame(Frame(strings[func], strings[file], line)))
            elif tag == _TAG_STACK:
                r = _try_varint(data, pos, end)
                if r is None:
                    break
                count, pos = r
                if count > MAX_RECORD_BYTES:
                    raise _oversized(f"a stack of {count} frames")
                r = _try_varints(data, pos, end, count)
                if r is None:
                    break
                frame_ids, pos = r
                if frame_ids and max(frame_ids) >= len(frames):
                    raise ValueError(
                        f"corrupt trace: stack names undefined frame "
                        f"{max(frame_ids)} ({len(frames)} defined)"
                    )
                stacks.append(intern_stack(tuple(frames[i] for i in frame_ids)))
            else:
                raise ValueError(f"corrupt trace: unknown record tag {tag}")
        else:
            record_at = pos
        self._walked = record_at

    def _run(self, data: bytes, pos: int, skip_blocks=None, stats=None) -> int:
        """Walk ``data[pos:]`` and dispatch every complete block — the one
        dispatch step behind :meth:`feed` and :func:`replay_blocks`.
        Returns the rows walked, skipped blocks included."""
        dispatch = self._dispatch
        vm = self._vm
        stacks = self._stacks
        strings = self._strings
        view = memoryview(data)
        events = blocks = 0
        for record_at, type_idx, s, base, start, n in self._records(
            data, pos, len(data)
        ):
            events += n
            blocks += 1
            if skip_blocks is not None and record_at in skip_blocks:
                if stats is not None:
                    stats.blocks_skipped_shard += 1
                    stats.events_skipped += n
                continue
            entry = dispatch[type_idx]
            single = entry[1]
            if stats is not None:
                if single is None and not entry[2]:
                    stats.blocks_skipped_type += 1
                    stats.events_skipped += n
                else:
                    stats.blocks_decoded += 1
            try:
                if single is not None:
                    if n == 1:
                        # Single-row block (types alternating in the
                        # stream fragment blocks): unpack straight from
                        # the backing bytes — no slice, no iterator.
                        row = s.unpack_from(data, start)
                        if base is None:
                            single(entry[4](entry[3], stacks, strings, row), vm)
                        else:
                            single(
                                entry[5](entry[3], stacks, strings, row, base), vm
                            )
                    else:
                        block = view[start:start + s.size * n]
                        bulk = entry[8]
                        if bulk is None or not bulk(block, s, base, stacks, vm):
                            loop = entry[6] if base is None else entry[7]
                            loop(entry[3], block, s, stacks, strings, single, vm, base)
                elif entry[2]:
                    fns = entry[2]
                    fly = entry[3]
                    block = view[start:start + s.size * n]
                    if base is None:
                        fill = entry[4]
                        for row in s.iter_unpack(block):
                            event = fill(fly, stacks, strings, row)
                            for fn in fns:
                                fn(event, vm)
                    else:
                        fill = entry[5]
                        for step, row in enumerate(s.iter_unpack(block), base):
                            event = fill(fly, stacks, strings, row, step)
                            for fn in fns:
                                fn(event, vm)
            except IndexError:
                block = view[start:start + s.size * n]
                _check_rows(type_idx, s, block, base, stacks, strings)
                raise
        self.events_decoded += events
        self.blocks_decoded += blocks
        return events


def trace_stats(path) -> dict:
    """Summary of a binary trace for ``repro trace stat``.

    One walk over the file: event counts by type, interning-table
    populations, file size, and bytes/event.
    """
    data = Path(path).read_bytes()
    decoder, records = _walk(data)
    by_type: dict[str, int] = {}
    total = 0
    for _at, type_idx, _s, _base, _start, n in records:
        name = EVENT_TYPES[type_idx].__name__
        by_type[name] = by_type.get(name, 0) + n
        total += n
    return {
        "path": str(path),
        "file_bytes": len(data),
        "events": total,
        "by_type": dict(sorted(by_type.items(), key=lambda kv: -kv[1])),
        "strings": len(decoder._strings),
        "stacks": len(decoder._stacks),
        "bytes_per_event": (len(data) / total) if total else 0.0,
    }
