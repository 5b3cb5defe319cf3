"""Guest thread objects.

A :class:`SimThread` is the VM-level identity of one guest thread: its
tid, lifecycle state, start routine and bookkeeping for blocking and
joining.  The *carrier* (the host ``threading.Thread`` that actually
executes the guest Python code) is owned by the VM; only one carrier is
ever released at a time, so guest threads are concurrent in the
simulated world but strictly serial on the host — the same arrangement
Valgrind uses ("the virtual machine in itself is single-threaded",
paper §3.3).
"""

from __future__ import annotations

import enum
import os
import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.runtime.events import CallStack

__all__ = ["ThreadState", "SimThread", "Baton", "Spin"]


class ThreadState(enum.Enum):
    """Lifecycle of a guest thread."""

    #: Created, never scheduled yet.
    NEW = "new"
    #: Eligible to run.
    RUNNABLE = "runnable"
    #: Waiting for a lock / condition / join / queue message.
    BLOCKED = "blocked"
    #: Start routine returned normally.
    FINISHED = "finished"
    #: Start routine raised (guest fault or Python error).
    FAULTED = "faulted"


class Baton:
    """A carrier's turn to run: one pipe, one byte per hand-off.

    The owner parks in :meth:`wait`, an ``os.read`` of one byte from its
    pipe; whoever hands it control calls :meth:`release`, an
    ``os.write`` of one byte to that pipe.  Both calls drop the GIL
    before the system call, so the woken carrier finds the GIL free
    instead of waking only to sleep on it.

    ``released`` keeps a broken hand-off loud.  :meth:`release` sets it,
    and a second release before the owner next gives control away raises
    ``RuntimeError`` at the releaser (a pipe would queue the byte and
    later wake a carrier while another one runs).  Parking does not
    clear it: the waker can be preempted between its write and its own
    park while the woken owner hands control straight back.  The owner
    clears it in :meth:`hand_to`, just before its own hand-off write.
    Only an aborting VM writes past it, with :meth:`wake`.
    """

    __slots__ = ("_read", "_write", "released")

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        self.released = False

    def release(self) -> None:
        """Give control to this baton's owner."""
        if self.released:
            raise RuntimeError("baton released twice before its owner handed control on")
        self.released = True
        os.write(self._write, b"\0")

    def hand_to(self, other: "Baton") -> None:
        """The owner gives control away, to ``other``'s owner."""
        self.released = False
        other.release()

    def wake(self) -> None:
        """Wake the owner to unwind an aborted run, release pending or not."""
        os.write(self._write, b"\0")

    def wait(self) -> None:
        """Park the owner until a release or a wake reaches it."""
        os.read(self._read, 1)

    def close(self) -> None:
        os.close(self._read)
        os.close(self._write)


class Spin:
    """A guest thread's :meth:`~repro.runtime.vm.GuestAPI.spin`, in flight.

    The loop it stands for is ``for _ in range(tries): if ready(): return
    True`` with ``traps`` yields after each failed test, then ``return
    False``; ``tries=None`` loops forever.  Whichever carrier the
    scheduler's pick lands on steps it: ``tries`` counts the tests left,
    ``pending`` the traps the last failed test still owes, and
    ``result`` turns ``True`` or ``False`` once the spin is decided
    (``error`` is then what ``ready`` raised, if it raised).
    """

    __slots__ = ("ready", "tries", "traps", "pending", "result", "error")

    def __init__(self, ready: Callable[[], object], tries: int | None, traps: int) -> None:
        self.ready = ready
        # As many tests as the loop's ``range(tries)`` makes: none for a
        # negative count, a TypeError for a non-integer one.
        self.tries = None if tries is None else len(range(tries))
        self.traps = traps
        self.pending = 0
        self.result: bool | None = None
        self.error: BaseException | None = None


class SimThread:
    """One guest thread.

    Guest code never touches these fields directly — it goes through
    :class:`repro.runtime.vm.GuestAPI`.  Detectors receive the tid in
    every event and may look threads up on the VM for reporting.
    """

    def __init__(
        self,
        tid: int,
        name: str,
        target: Callable,
        args: tuple,
        parent_tid: int | None,
    ) -> None:
        self.tid = tid
        self.name = name
        self.target = target
        self.args = args
        self.parent_tid = parent_tid
        self.state = ThreadState.NEW

        #: What the thread is blocked on — human-readable, used in
        #: deadlock reports ("t3 waiting on mutex m1").
        self.blocked_on: str = ""
        #: Threads blocked in ``join`` on this thread.
        self.join_waiters: list["SimThread"] = []
        #: Return value of the start routine (after FINISHED).
        self.result: object = None
        #: Exception that killed the thread (after FAULTED).
        self.error: BaseException | None = None

        #: Guest call stack, innermost last (reversed on snapshot).
        self.frames: list = []
        #: Number of events this thread has emitted (``GuestAPI._emit``
        #: and ``_emit_and_switch`` count them).  Not its traps: a
        #: yield and a spin's failed test trap without an event.
        self.steps = 0
        #: The spin this thread is in, while it is in one (its carrier
        #: may be parked meanwhile: see :class:`Spin`).
        self.spin: Spin | None = None

        # --- carrier plumbing (owned by the VM) -----------------------
        self.carrier: threading.Thread | None = None
        #: This carrier's baton, made by the VM with the thread.  The
        #: carrier parks in ``resume.wait()``; whoever hands it control
        #: calls ``resume.release()`` exactly once, and the carrier
        #: closes the pipe as it exits.
        self.resume: Baton | None = None
        #: Set by the carrier once it will write to no baton again; an
        #: aborting VM wakes every carrier not yet retired.
        self.retired = False

    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the guest thread has not terminated."""
        return self.state not in (ThreadState.FINISHED, ThreadState.FAULTED)

    @property
    def runnable(self) -> bool:
        return self.state is ThreadState.RUNNABLE

    def snapshot_stack(self) -> "CallStack":
        """Interned snapshot of the guest call stack, innermost first."""
        from repro.runtime.events import intern_guest_stack

        return intern_guest_stack(self.frames)

    def __repr__(self) -> str:
        return f"SimThread(tid={self.tid}, name={self.name!r}, state={self.state.value})"
