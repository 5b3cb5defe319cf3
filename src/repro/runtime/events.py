"""Typed event records — the ABI between the VM and the detectors.

Helgrind observes the guest through Valgrind's instrumentation: every
load, store, pthread call and allocation becomes a callback into the
tool.  Our VM emits one event object per trap; detectors are plain
objects with a ``handle(event, vm)`` method registered on the VM.

Design notes
------------
* Events are immutable (``frozen=True``) dataclasses with ``slots`` —
  they are created millions of times per run and are the dominant
  allocation, so they stay small, and immutability lets the trace
  recorder and several detectors share them without copying.
* Every event carries the logical ``step`` (the VM's trap counter — the
  only clock in the simulated world), the acting thread id and a call
  stack snapshot.  Call stacks are what turn raw addresses into the
  "reported locations" the paper counts (its §4 metric is *distinct
  warning locations*, not dynamic warning instances).
* Memory accesses carry a ``bus_locked`` flag — the x86 ``LOCK`` prefix.
  How that flag is *interpreted* is precisely the paper's HWLC
  improvement and therefore lives in the detector, not here.
* ``ClientRequest`` models Valgrind's client-request mechanism: a
  sequence of no-op instructions the VM recognises as a message from the
  guest (Figure 4's ``VALGRIND_HG_DESTRUCT``).  Under "native" execution
  (no detectors registered) the request costs one dictionary-free method
  call and does nothing, matching the paper's "no-op under normal
  program execution with negligible execution time".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "AccessKind",
    "LockMode",
    "Frame",
    "CallStack",
    "intern_frame",
    "intern_stack",
    "intern_stats",
    "Event",
    "MemoryAccess",
    "MemAlloc",
    "MemFree",
    "LockAcquire",
    "LockRelease",
    "ThreadCreate",
    "ThreadFinish",
    "ThreadJoin",
    "CondWait",
    "CondSignal",
    "SemPost",
    "SemWait",
    "BarrierWait",
    "QueuePut",
    "QueueGet",
    "ClientRequest",
    "EVENT_TYPES",
]


class AccessKind(enum.Enum):
    """Direction of a memory access."""

    READ = "read"
    WRITE = "write"


class LockMode(enum.Enum):
    """Mode in which a lock is held.

    ``EXCLUSIVE`` is a plain mutex; ``READ``/``WRITE`` are the two modes
    of a read-write lock.  The Eraser refinement treats ``EXCLUSIVE`` and
    ``WRITE`` identically ("held in write mode") and ``READ`` as "held in
    any mode" only.
    """

    EXCLUSIVE = "exclusive"
    READ = "read"
    WRITE = "write"


class Frame(NamedTuple):
    """One guest call-stack frame: ``function`` at ``file:line``.

    A tuple, so hashing and comparing a call stack (interning, codec
    tables, report deduplication) runs in C; its hash equals that of
    the plain ``(function, file, line)`` tuple.
    """

    function: str
    file: str = "<guest>"
    line: int = 0

    def __str__(self) -> str:
        return f"{self.function} ({self.file}:{self.line})"


#: A call stack, innermost frame first (index 0 = the access site),
#: mirroring the order Valgrind prints them.
CallStack = tuple[Frame, ...]

_EMPTY_STACK: CallStack = ()


# ----------------------------------------------------------------------
# ExeContext-style interning (Valgrind's m_execontext)
# ----------------------------------------------------------------------
#
# Valgrind deduplicates call stacks by interning them as ``ExeContext``
# records: taking a stack snapshot first looks the frames up in a hash
# table, so the millions of events recorded at the same program point
# all share one object.  We do the same for :class:`Frame` objects and
# :data:`CallStack` tuples.  The tables are process-wide and append-only
# — guest programs have a bounded number of distinct program points, so
# the tables stay small while the event stream is unbounded.
#
# Interning buys three things on the hot path:
#
# * one allocation per *distinct* stack instead of one per event,
# * report-location deduplication compares one canonical object per
#   program point (equal stacks are the *same* tuple).

_FRAME_INTERN: dict[Frame, Frame] = {}
_STACK_INTERN: dict[CallStack, CallStack] = {_EMPTY_STACK: _EMPTY_STACK}

#: Interning effectiveness tallies (telemetry input; ``intern_stack``
#: only runs on guest frame-stack *changes*, so the counting is off the
#: per-event fast path).
_STACK_HITS = 0
_STACK_MISSES = 0


def intern_frame(frame: Frame) -> Frame:
    """Return the canonical instance equal to ``frame``."""
    return _FRAME_INTERN.setdefault(frame, frame)


def intern_stack(stack: CallStack) -> CallStack:
    """Return the canonical instance equal to ``stack``.

    The frames of a newly-interned stack are interned individually as
    well, so shared prefixes/suffixes across different stacks also share
    their :class:`Frame` objects.
    """
    global _STACK_HITS, _STACK_MISSES
    cached = _STACK_INTERN.get(stack)
    if cached is not None:
        _STACK_HITS += 1
        return cached
    _STACK_MISSES += 1
    canonical: CallStack = tuple(_FRAME_INTERN.setdefault(f, f) for f in stack)
    return _STACK_INTERN.setdefault(canonical, canonical)


def intern_table_sizes() -> tuple[int, int]:
    """(distinct frames, distinct stacks) — introspection for tests."""
    return len(_FRAME_INTERN), len(_STACK_INTERN)


def intern_stats() -> dict[str, int]:
    """ExeContext-table effectiveness (telemetry input).

    ``stack_hits`` are :func:`intern_stack` calls answered from the
    table, ``stack_misses`` interned a new canonical stack; the two
    sizes are the distinct-object populations.
    """
    return {
        "frames": len(_FRAME_INTERN),
        "stacks": len(_STACK_INTERN),
        "stack_hits": _STACK_HITS,
        "stack_misses": _STACK_MISSES,
    }


@dataclass(frozen=True, slots=True)
class Event:
    """Base class for all VM events.

    ``step`` is the VM's logical clock (one tick per trap), ``tid`` the
    id of the guest thread that performed the operation, and ``stack``
    its call stack at that instant (innermost first).
    """

    step: int
    tid: int
    stack: CallStack = field(default=_EMPTY_STACK, kw_only=True)

    @property
    def site(self) -> Frame | None:
        """The innermost frame — the 'location' used for deduplication."""
        return self.stack[0] if self.stack else None


@dataclass(frozen=True, slots=True)
class MemoryAccess(Event):
    """A load or store of one guest word.

    ``bus_locked`` marks the x86 ``LOCK`` prefix (atomic read-modify-write
    operations emit a locked READ followed by a locked WRITE).  ``block_id``
    identifies the containing allocation, or ``-1`` for a wild access.
    """

    addr: int = 0
    kind: AccessKind = AccessKind.READ
    bus_locked: bool = False
    block_id: int = -1

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE


@dataclass(frozen=True, slots=True)
class MemAlloc(Event):
    """A VM-level allocation of ``size`` words at ``addr``."""

    addr: int = 0
    size: int = 0
    block_id: int = -1
    tag: str = ""


@dataclass(frozen=True, slots=True)
class MemFree(Event):
    """A VM-level free of the block at ``addr``."""

    addr: int = 0
    size: int = 0
    block_id: int = -1


@dataclass(frozen=True, slots=True)
class LockAcquire(Event):
    """A lock was acquired in ``mode`` (emitted after the wait, if any)."""

    lock_id: int = -1
    mode: LockMode = LockMode.EXCLUSIVE
    #: True when the acquisition had to wait for another holder first —
    #: useful for contention statistics, ignored by the race detectors.
    contended: bool = False


@dataclass(frozen=True, slots=True)
class LockRelease(Event):
    """A lock was released (mode recorded for rw-locks)."""

    lock_id: int = -1
    mode: LockMode = LockMode.EXCLUSIVE


@dataclass(frozen=True, slots=True)
class ThreadCreate(Event):
    """Thread ``tid`` created ``child_tid`` (pthread_create)."""

    child_tid: int = -1


@dataclass(frozen=True, slots=True)
class ThreadFinish(Event):
    """Thread ``tid`` ran to completion (its start routine returned)."""


@dataclass(frozen=True, slots=True)
class ThreadJoin(Event):
    """Thread ``tid`` observed the termination of ``joined_tid``."""

    joined_tid: int = -1


@dataclass(frozen=True, slots=True)
class CondWait(Event):
    """A condition-variable wait.

    Emitted twice per wait: ``phase='enter'`` just before the atomic
    release-and-block, ``phase='leave'`` after the thread was signalled
    and reacquired the mutex.  The mutex release/reacquire themselves are
    also emitted as ordinary lock events, which is all the lock-set
    algorithm ever looks at — the paper notes (§2.2) that the
    signal/wait relation is *not* strong enough to impose an order, so
    Helgrind ignores these; our happens-before detectors may not.
    """

    cond_id: int = -1
    mutex_id: int = -1
    phase: str = "enter"


@dataclass(frozen=True, slots=True)
class CondSignal(Event):
    """A condition-variable signal (``broadcast`` wakes all waiters)."""

    cond_id: int = -1
    broadcast: bool = False


@dataclass(frozen=True, slots=True)
class SemPost(Event):
    """Semaphore V operation."""

    sem_id: int = -1


@dataclass(frozen=True, slots=True)
class SemWait(Event):
    """Semaphore P operation (emitted after the count was taken)."""

    sem_id: int = -1


@dataclass(frozen=True, slots=True)
class BarrierWait(Event):
    """A barrier operation; ``generation`` counts barrier cycles.

    Emitted twice per thread per cycle: ``phase='arrive'`` when the
    thread reaches the barrier and ``phase='leave'`` once the cycle
    completes and the thread continues.  Happens-before detectors order
    every arrival of a generation before every departure of the same
    generation.
    """

    barrier_id: int = -1
    generation: int = 0
    phase: str = "arrive"


@dataclass(frozen=True, slots=True)
class QueuePut(Event):
    """A message was deposited into a message queue.

    ``msg_id`` pairs this put with the :class:`QueueGet` that removes the
    same message — the higher-level synchronisation the paper's Figure 11
    shows the lock-set algorithm being unaware of, and which the
    "future work" queue-aware detector configuration consumes.
    """

    queue_id: int = -1
    msg_id: int = -1


@dataclass(frozen=True, slots=True)
class QueueGet(Event):
    """A message was removed from a message queue (see :class:`QueuePut`)."""

    queue_id: int = -1
    msg_id: int = -1


@dataclass(frozen=True, slots=True)
class ClientRequest(Event):
    """A Valgrind-style client request from the guest.

    ``request`` names the operation; the ones the detectors understand:

    * ``"hg_destruct"`` — Figure 4's ``VALGRIND_HG_DESTRUCT(addr, size)``:
      the guest is about to run destructors over ``[addr, addr+size)``;
      mark that range exclusively owned by the current thread (segment).
    * ``"hg_clean"`` — forget all detector state for the range (used by
      custom allocators that recycle memory, §4's libstdc++ pool issue).
    * ``"benign_race"`` — the developer vouches for the range; suppress
      race reports on it (the annotation-free analogue of a suppression
      entry scoped to data rather than code).
    """

    request: str = ""
    addr: int = 0
    size: int = 0


#: All concrete event types in a *stable, append-only* order.  The
#: binary trace codec (:mod:`repro.runtime.codec`) indexes event blocks
#: by position in this tuple, so reordering it would break every trace
#: on disk — add new types at the end only.
EVENT_TYPES = (
    MemoryAccess,
    MemAlloc,
    MemFree,
    LockAcquire,
    LockRelease,
    ThreadCreate,
    ThreadFinish,
    ThreadJoin,
    CondWait,
    CondSignal,
    SemPost,
    SemWait,
    BarrierWait,
    QueuePut,
    QueueGet,
    ClientRequest,
)
