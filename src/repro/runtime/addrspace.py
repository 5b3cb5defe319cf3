"""The guest address space: a flat, word-addressed simulated heap.

Valgrind shadows every byte of the real process; our guest "binary" is
Python code, so we give it an explicit heap instead.  Addresses are
plain integers; each address holds one *word*, which may store any
Python value (an int, a string fragment, a guest pointer, ...).  Race
detection is about *which* addresses are touched in what order, not
about the bit patterns stored, so word granularity loses nothing while
keeping the simulation fast.

Allocation policy
-----------------
The VM-level allocator is a monotone bump allocator: **addresses are
never reused**.  This is a deliberate modelling choice, not a
simplification:

* It makes "access to freed memory" trivially detectable (the memcheck
  facet the paper leans on in §4.2.1: *"Actual violations ... are
  detected by ordinary memory checking tools"*).
* It pushes address *reuse* — the thing that confuses Helgrind in the
  paper's libstdc++-pool discussion (§4) — up into the guest-level
  pooled allocator (:mod:`repro.cxx.allocator`), exactly where it lives
  in the real system: the C++ pool recycles memory *without telling the
  VM*, so the detector sees one long-lived block with stale state.

Blocks are retained after free for diagnostics (allocation site, freeing
thread), mirroring Valgrind's "Address ... is N bytes inside a block of
size M alloc'd by thread T" report lines (paper Figure 9).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import GuestFault
from repro.runtime.events import CallStack

__all__ = ["MemoryBlock", "AddressSpace"]

#: Unmapped guard gap between consecutive allocations, so off-by-one
#: pointer bugs in guest code fault instead of silently hitting the
#: neighbouring object.
_GUARD_WORDS = 4

#: Sentinel marking a word that was allocated but never stored.  A
#: dedicated object (not ``None``) so guests may legitimately store
#: ``None`` as a value.
_UNINIT = object()


@dataclass(slots=True)
class MemoryBlock:
    """Metadata for one heap allocation.

    ``tag`` is a human-readable label supplied by the allocating guest
    code (``"CowString.rep"``, ``"SipTransaction"``, ...); the
    classification layer (:mod:`repro.detectors.classify`) uses tags to
    attribute warnings to the paper's false-positive categories.
    """

    block_id: int
    base: int
    size: int
    tag: str = ""
    alloc_tid: int = -1
    alloc_step: int = -1
    alloc_stack: CallStack = ()
    freed: bool = False
    free_tid: int = -1
    free_step: int = -1
    free_stack: CallStack = ()
    #: Word storage, indexed by offset (``None`` after free).  Owned by
    #: the block so that :meth:`AddressSpace.free` drops *one* reference
    #: instead of popping a global dict once per word.
    words: list | None = field(default=None, repr=False, compare=False)
    #: How many words of this block have ever been stored (maintained by
    #: :meth:`AddressSpace.store_block`; lets ``free`` and
    #: ``live_words`` stay O(1)).
    inited: int = field(default=0, repr=False, compare=False)

    @property
    def end(self) -> int:
        """One past the last word of the block."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def offset_of(self, addr: int) -> int:
        """Word offset of ``addr`` within the block (no bounds check)."""
        return addr - self.base

    def describe(self, addr: int) -> str:
        """Figure-9 style one-liner locating ``addr`` inside this block."""
        state = "free'd" if self.freed else "alloc'd"
        return (
            f"Address {addr:#x} is {self.offset_of(addr)} words inside a block of "
            f"size {self.size} ({self.tag or 'untagged'}) {state} by thread {self.alloc_tid}"
        )


class AddressSpace:
    """Word-addressed heap with monotone (never-reusing) allocation."""

    #: First heap address; non-zero so that guest address 0 can serve as
    #: a null pointer.
    HEAP_BASE = 0x1000

    def __init__(self) -> None:
        self._next_addr = self.HEAP_BASE
        self._next_block_id = 0
        #: Initialised words across live blocks (O(1)-maintained; the
        #: storage itself lives per block in ``MemoryBlock.words``).
        self._live_words = 0
        self._blocks: dict[int, MemoryBlock] = {}
        #: Sorted block bases for O(log n) address → block lookup.
        self._bases: list[int] = []
        self._by_base: dict[int, MemoryBlock] = {}
        #: Two-entry lookup cache: guest accesses are strongly local —
        #: hot loops typically alternate between two blocks (a shared
        #: structure and thread-local scratch), so remembering the last
        #: two live blocks turns most ``check_access`` calls into a few
        #: integer compares, no bisect.
        self._last_block: MemoryBlock | None = None
        self._prev_block: MemoryBlock | None = None
        #: Cache effectiveness tallies (plain ints: one add per access,
        #: cheap enough to keep unconditionally; read by the telemetry
        #: layer via :meth:`cache_stats`).
        self._cache_hits_last = 0
        self._cache_hits_prev = 0
        self._cache_misses = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(
        self,
        size: int,
        *,
        tag: str = "",
        tid: int = -1,
        step: int = -1,
        stack: CallStack = (),
    ) -> MemoryBlock:
        """Allocate ``size`` words and return the new block.

        Words start *uninitialised*: loading a word that was never stored
        raises :class:`GuestFault` (catching real init-order bugs in guest
        code rather than silently yielding ``None``).
        """
        if size <= 0:
            raise GuestFault(f"malloc of non-positive size {size}", tid=tid)
        block = MemoryBlock(
            block_id=self._next_block_id,
            base=self._next_addr,
            size=size,
            tag=tag,
            alloc_tid=tid,
            alloc_step=step,
            alloc_stack=stack,
            words=[_UNINIT] * size,
        )
        self._next_block_id += 1
        self._next_addr = block.end + _GUARD_WORDS
        self._blocks[block.block_id] = block
        self._bases.append(block.base)
        self._by_base[block.base] = block
        return block

    def free(
        self,
        addr: int,
        *,
        tid: int = -1,
        step: int = -1,
        stack: CallStack = (),
    ) -> MemoryBlock:
        """Free the block whose *base* is ``addr``.

        Like ``free(3)``, the pointer must be exactly the value returned
        by the allocation; freeing an interior pointer or freeing twice
        is a guest fault.  Word contents are dropped eagerly so that a
        later load of freed memory faults as "uninitialised" even if the
        stale block metadata is still around.
        """
        block = self._by_base.get(addr)
        if block is None:
            inner = self.find_block(addr)
            if inner is not None:
                raise GuestFault(
                    f"free of interior pointer {addr:#x} "
                    f"({inner.offset_of(addr)} words into block {inner.block_id})",
                    tid=tid,
                )
            raise GuestFault(f"free of unallocated address {addr:#x}", tid=tid)
        if block.freed:
            raise GuestFault(
                f"double free of {addr:#x} (block {block.block_id}, "
                f"first freed by thread {block.free_tid} at step {block.free_step})",
                tid=tid,
            )
        block.freed = True
        block.free_tid = tid
        block.free_step = step
        block.free_stack = stack
        # O(1): the block owns its word storage, so dropping the one
        # list reference frees the contents (previously: one global
        # ``dict.pop`` per word, O(size)).
        self._live_words -= block.inited
        block.inited = 0
        block.words = None
        return block

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def find_block(self, addr: int) -> MemoryBlock | None:
        """Return the block containing ``addr`` (freed blocks included)."""
        idx = bisect_right(self._bases, addr) - 1
        if idx < 0:
            return None
        block = self._by_base[self._bases[idx]]
        return block if block.contains(addr) else None

    def check_access(self, addr: int, tid: int = -1) -> MemoryBlock:
        """Validate that ``addr`` is inside a live block and return it."""
        cached = self._last_block
        if (
            cached is not None
            and not cached.freed
            and cached.base <= addr < cached.base + cached.size
        ):
            self._cache_hits_last += 1
            return cached
        cached = self._prev_block
        if (
            cached is not None
            and not cached.freed
            and cached.base <= addr < cached.base + cached.size
        ):
            # Promote: keep the two hottest blocks in the cache.
            self._prev_block = self._last_block
            self._last_block = cached
            self._cache_hits_prev += 1
            return cached
        self._cache_misses += 1
        block = self.find_block(addr)
        if block is None:
            raise GuestFault(f"wild access to unmapped address {addr:#x}", tid=tid)
        if block.freed:
            raise GuestFault(
                f"access to freed memory: {block.describe(addr)} "
                f"(freed by thread {block.free_tid} at step {block.free_step})",
                tid=tid,
            )
        self._prev_block = self._last_block
        self._last_block = block
        return block

    def load(self, addr: int, *, tid: int = -1) -> object:
        """Load the word at ``addr``; faults on wild/freed/uninitialised."""
        return self.load_block(addr, tid)[0]

    def store(self, addr: int, value: object, *, tid: int = -1) -> None:
        """Store ``value`` into the word at ``addr``."""
        self.store_block(addr, value, tid)

    def load_block(self, addr: int, tid: int = -1) -> tuple[object, MemoryBlock]:
        """Load ``addr`` and return ``(value, containing block)``.

        One address lookup serves both the access check and the event's
        ``block_id`` — the VM hot path calls this instead of ``load`` +
        ``find_block`` (two binary searches per guest access).
        """
        block = self.check_access(addr, tid)
        value = block.words[addr - block.base]
        if value is _UNINIT:
            raise GuestFault(
                f"load of uninitialised word: {block.describe(addr)}", tid=tid
            )
        return value, block

    def store_block(self, addr: int, value: object, tid: int = -1) -> MemoryBlock:
        """Store into ``addr`` and return the containing block (see
        :meth:`load_block`)."""
        block = self.check_access(addr, tid)
        words = block.words
        offset = addr - block.base
        if words[offset] is _UNINIT:
            block.inited += 1
            self._live_words += 1
        words[offset] = value
        return block

    def peek(self, addr: int) -> object | None:
        """Non-faulting read for diagnostics/tests (``None`` if unset)."""
        block = self.find_block(addr)
        if block is None or block.words is None:
            return None
        value = block.words[addr - block.base]
        return None if value is _UNINIT else value

    def is_initialised(self, addr: int) -> bool:
        """True if the word at ``addr`` has ever been stored."""
        block = self.find_block(addr)
        if block is None or block.words is None:
            return False
        return block.words[addr - block.base] is not _UNINIT

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, int]:
        """Two-entry block-cache effectiveness (telemetry input).

        ``hits_last``/``hits_prev`` are hits on the most-recent / the
        promoted second entry; ``misses`` fell back to the bisect.
        """
        return {
            "hits_last": self._cache_hits_last,
            "hits_prev": self._cache_hits_prev,
            "misses": self._cache_misses,
        }

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def live_words(self) -> int:
        """Words currently holding a value (a memory-footprint proxy).

        Maintained incrementally by :meth:`store_block` / :meth:`free`
        — O(1) to read, never recomputed by scanning.
        """
        return self._live_words

    def block_by_id(self, block_id: int) -> MemoryBlock:
        return self._blocks[block_id]

    def blocks(self) -> list[MemoryBlock]:
        """All blocks ever allocated, in allocation order."""
        return [self._blocks[i] for i in sorted(self._blocks)]

    def live_blocks(self) -> list[MemoryBlock]:
        return [b for b in self.blocks() if not b.freed]

    def leak_report(self) -> list[MemoryBlock]:
        """Blocks still live — the memcheck 'definitely lost' analogue.

        The VM does not *enforce* leak-freedom (server code frequently
        holds allocations for its whole lifetime); tests assert on this
        where leak-freedom is part of the contract.
        """
        return self.live_blocks()
