"""Seeded guest-thread schedulers.

The VM asks its scheduler which runnable thread to step at every trap
(the finest preemption granularity a serialising VM can offer).  All
schedulers are deterministic functions of their seed and the sequence of
runnable sets they were shown, which is what makes every experiment in
``EXPERIMENTS.md`` reproducible and what enables the paper's §4.3
false-negative study: the *same* program probed under *different*
schedules ("Repeated tests with different test data (resulting in
different interleavings) could help find such data-races").

Available policies
------------------
:class:`RoundRobinScheduler`
    Fair rotation by thread id — the maximally-interleaving schedule;
    good default for flushing out ordering bugs.
:class:`RandomScheduler`
    Uniform choice among runnable threads; seed sweeps explore distinct
    interleavings.
:class:`StickyScheduler`
    Keeps running the current thread and switches only with probability
    ``switch_prob`` — models coarse OS time-slicing, where whole critical
    phases execute without preemption.  Low ``switch_prob`` is how we
    reproduce schedules in which the Eraser delayed-initialisation false
    negative hides (§4.3).
:class:`FixedOrderScheduler`
    Replays a recorded decision sequence; used by trace replay and by
    tests that need one exact interleaving.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro._util.rng import SplitMix64

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.thread import SimThread

__all__ = [
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "StickyScheduler",
    "FixedOrderScheduler",
]


class Scheduler(ABC):
    """Strategy interface: pick the next thread to run.

    ``runnable`` is a non-empty tuple sorted by thread id (the VM
    guarantees both).  The VM reuses the same tuple from trap to trap
    until the runnable set changes, so a policy may keep it but must
    not expect a fresh object per call.  ``current`` is the thread that
    just trapped, or ``None`` if it blocked or finished.
    Implementations must be side-effect free apart from their own
    internal state.
    """

    @abstractmethod
    def pick(
        self, runnable: Sequence["SimThread"], current: "SimThread | None"
    ) -> "SimThread":
        """Return one element of ``runnable``."""

    def record(self) -> list[int] | None:
        """Decision log (tids picked) if the scheduler keeps one."""
        return None


class _RecordingMixin:
    """Keeps the tid decision log that :meth:`Scheduler.record` exposes."""

    def __init__(self) -> None:
        self._log: list[int] = []

    def _note(self, thread: "SimThread") -> "SimThread":
        self._log.append(thread.tid)
        return thread

    def record(self) -> list[int]:
        return list(self._log)


class RoundRobinScheduler(_RecordingMixin, Scheduler):
    """Rotate fairly through runnable threads by tid."""

    def __init__(self) -> None:
        super().__init__()
        self._last_tid = -1

    def pick(
        self, runnable: Sequence["SimThread"], current: "SimThread | None"
    ) -> "SimThread":
        # Choose the first runnable tid strictly greater than the last
        # one we picked, wrapping around — classic cyclic fairness.
        for thread in runnable:
            if thread.tid > self._last_tid:
                self._last_tid = thread.tid
                return self._note(thread)
        chosen = runnable[0]
        self._last_tid = chosen.tid
        return self._note(chosen)


class RandomScheduler(_RecordingMixin, Scheduler):
    """Uniform random choice among runnable threads."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = SplitMix64(seed)

    def pick(
        self, runnable: Sequence["SimThread"], current: "SimThread | None"
    ) -> "SimThread":
        return self._note(self._rng.choice(runnable))


class StickyScheduler(_RecordingMixin, Scheduler):
    """Prefer the current thread; switch with probability ``switch_prob``.

    With ``switch_prob=0`` a thread runs until it blocks or exits
    (pure cooperative batching); with ``switch_prob=1`` this degenerates
    to :class:`RandomScheduler`.
    """

    def __init__(self, seed: int = 0, switch_prob: float = 0.05) -> None:
        super().__init__()
        if not 0.0 <= switch_prob <= 1.0:
            raise ValueError(f"switch_prob must be in [0, 1], got {switch_prob}")
        self._rng = SplitMix64(seed)
        self.switch_prob = switch_prob

    def pick(
        self, runnable: Sequence["SimThread"], current: "SimThread | None"
    ) -> "SimThread":
        if (
            current is not None
            and current in runnable
            and self._rng.random() >= self.switch_prob
        ):
            return self._note(current)
        return self._note(self._rng.choice(runnable))


class FixedOrderScheduler(Scheduler):
    """Replay an explicit decision sequence of thread ids.

    Each entry is consumed when its tid is runnable; if the scripted tid
    is not currently runnable the scheduler falls back to the lowest
    runnable tid *without* consuming the entry, so scripts only need to
    pin the decision points they care about.  When the script is
    exhausted it keeps choosing the lowest runnable tid.
    """

    def __init__(self, order: Sequence[int]) -> None:
        self._order = list(order)
        self._pos = 0

    def pick(
        self, runnable: Sequence["SimThread"], current: "SimThread | None"
    ) -> "SimThread":
        if self._pos < len(self._order):
            wanted = self._order[self._pos]
            for thread in runnable:
                if thread.tid == wanted:
                    self._pos += 1
                    return thread
        return runnable[0]

    @property
    def exhausted(self) -> bool:
        """True once every scripted decision has been consumed."""
        return self._pos >= len(self._order)
