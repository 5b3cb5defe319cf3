"""Seeded page-coherent synthetic trace: the ``replay_pages`` input.

Shaped like a server whose worker threads each sweep their own arena:
four threads own 32 shadow pages between them (page 0 is left to shared
state), and 256 runs of 1024 accesses each stay on one page.  Every run
is preceded by a lock-protected counter update, which gives sharded
replay a sync skeleton to replicate, and followed by one unsynchronised
write to a shared word, so the report holds real races.  Blocks are
capped at 1024 rows, so one run's accesses stay in page-pure blocks.
That is the shape the batched block pump and sharded replay are built
for.

The seed decides which thread owns which page, the order the pages are
swept in, each run's starting offset, which accesses are writes (about
one in eight) and which are repeated back to back (about one in
sixteen; same-access elision absorbs these).
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.detectors.parallel import PAGE_BITS
from repro.runtime.codec import TraceWriter
from repro.runtime.events import (
    AccessKind,
    LockAcquire,
    LockMode,
    LockRelease,
    MemoryAccess,
    ThreadCreate,
    ThreadFinish,
    ThreadJoin,
)

RUNS = 256
RUN_LEN = 1024
PAGES = 32
THREADS = 4
WRITE_SHARE = 1 / 8
REPEAT_SHARE = 1 / 16
COUNTER_LOCK = 7
COUNTER_ADDR = 8
#: Four shared words in page 0 written without a lock.
RACY_BASE = 64


def write_page_trace(path: Path, seed: int) -> int:
    """Write the trace for ``seed`` to ``path``; returns its event count."""
    rng = random.Random(seed)
    page_words = 1 << PAGE_BITS
    pages = list(range(1, PAGES + 1))
    rng.shuffle(pages)
    owner = {page: 1 + i % THREADS for i, page in enumerate(pages)}
    rng.shuffle(pages)

    step = 0
    events = 0
    with open(path, "wb") as fh:
        writer = TraceWriter(fh, block_rows=RUN_LEN)

        def emit(event) -> None:
            nonlocal step, events
            writer.write(event)
            step += 1
            events += 1

        for tid in range(1, THREADS + 1):
            emit(ThreadCreate(step, 0, tid))
        for run in range(RUNS):
            page = pages[run % PAGES]
            tid = owner[page]
            base = page * page_words
            start = rng.randrange(0, page_words, 4)
            emit(LockAcquire(step, tid, COUNTER_LOCK, LockMode.WRITE, False))
            emit(MemoryAccess(step, tid, COUNTER_ADDR, AccessKind.WRITE, False, -1))
            emit(LockRelease(step, tid, COUNTER_LOCK, LockMode.WRITE))
            for i in range(RUN_LEN):
                addr = base + (start + i * 4) % page_words
                kind = (
                    AccessKind.WRITE if rng.random() < WRITE_SHARE
                    else AccessKind.READ
                )
                emit(MemoryAccess(step, tid, addr, kind, False, -1))
                if rng.random() < REPEAT_SHARE:
                    emit(MemoryAccess(step, tid, addr, kind, False, -1))
            racy = RACY_BASE + rng.randrange(4) * 4
            emit(MemoryAccess(step, tid, racy, AccessKind.WRITE, False, -1))
        for tid in range(1, THREADS + 1):
            emit(ThreadFinish(step, tid))
            emit(ThreadJoin(step, 0, tid))
        writer.close()
    return events
