"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.runtime import VM, RoundRobinScheduler
from repro.runtime.trace import TraceRecorder


def run_program(program, *args, scheduler=None, detectors=(), step_limit=2_000_000):
    """Run ``program`` on a fresh VM and return ``(result, vm)``."""
    vm = VM(
        scheduler=scheduler or RoundRobinScheduler(),
        detectors=tuple(detectors),
        step_limit=step_limit,
    )
    result = vm.run(program, *args)
    return result, vm


def record_trace(program, *args, scheduler=None):
    """Run ``program`` and return the recorded event list."""
    recorder = TraceRecorder()
    _, vm = run_program(program, *args, scheduler=scheduler, detectors=(recorder,))
    return recorder.events, vm


@pytest.fixture
def vm():
    """A fresh VM with the default round-robin scheduler."""
    return VM()


#: ``pickle.dumps(Frame("f", "x.cc", 3))`` as written when ``Frame`` was
#: a slotted dataclass (session snapshot version 1); it no longer loads.
DATACLASS_FRAME_PICKLE = (
    b"\x80\x04\x957\x00\x00\x00\x00\x00\x00\x00\x8c\x14repro.runtime.events"
    b"\x94\x8c\x05Frame\x94\x93\x94)\x81\x94]\x94(\x8c\x01f\x94\x8c\x04x.cc"
    b"\x94K\x03eb."
)
