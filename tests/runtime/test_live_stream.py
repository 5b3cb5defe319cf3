"""The live event stream of the evaluation cases, pinned.

The golden reports pin what the detectors conclude; this pins what the
VM emits.  For every cell the ``live_sip`` benchmark measures — T1–T8
under the three paper configurations and T9/T10 under ``predictive`` —
at scheduler seed 42, a digest of every event's type and fields, in
order, and the run's switch, trap and scheduler-decision counts must
equal the values below, so a change to the trap path that moves one
step, stack frame or scheduling decision fails here even when no
warning changes.  The same holds for the stack-interning tallies of a
T1 run.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.experiments.harness import run_proxy_case
from repro.sip.workload import evaluation_cases, predictive_cases

#: ``(case, config): (sha256 prefix of the stream, events, switches, traps,
#: scheduler decisions)``.
PINNED = {
    ("T1", "original"): ("97661b44ec8955e4", 3735, 2391, 6301, 6118),
    ("T1", "hwlc"): ("97661b44ec8955e4", 3735, 2391, 6301, 6118),
    ("T1", "hwlc+dr"): ("6a6bbf316a03d848", 3771, 2466, 6263, 6075),
    ("T2", "original"): ("15ac2dced9d31c0a", 2762, 1338, 4882, 4649),
    ("T2", "hwlc"): ("15ac2dced9d31c0a", 2762, 1338, 4882, 4649),
    ("T2", "hwlc+dr"): ("44e532a5e8f15239", 2795, 1393, 4909, 4744),
    ("T3", "original"): ("13698d348aef3930", 1675, 891, 2173, 1999),
    ("T3", "hwlc"): ("13698d348aef3930", 1675, 891, 2173, 1999),
    ("T3", "hwlc+dr"): ("db32c15509e33071", 1692, 891, 2184, 2001),
    ("T4", "original"): ("0ee2cc4bbd6e0f2f", 4458, 2834, 8230, 8025),
    ("T4", "hwlc"): ("0ee2cc4bbd6e0f2f", 4458, 2834, 8230, 8025),
    ("T4", "hwlc+dr"): ("e839ff0cb28149ee", 4512, 2853, 8750, 8553),
    ("T5", "original"): ("ff66eaab46f9966d", 5131, 3112, 9981, 9763),
    ("T5", "hwlc"): ("ff66eaab46f9966d", 5131, 3112, 9981, 9763),
    ("T5", "hwlc+dr"): ("7f28589ad0cc3305", 5214, 3202, 9804, 9595),
    ("T6", "original"): ("ca542fc31876c4f8", 4679, 2853, 9194, 9000),
    ("T6", "hwlc"): ("ca542fc31876c4f8", 4679, 2853, 9194, 9000),
    ("T6", "hwlc+dr"): ("6ab1a5eef432c222", 4747, 2931, 8665, 8506),
    ("T7", "original"): ("089eb8f0a48ff539", 3359, 1679, 6434, 6257),
    ("T7", "hwlc"): ("089eb8f0a48ff539", 3359, 1679, 6434, 6257),
    ("T7", "hwlc+dr"): ("497a48381104e93b", 3406, 1714, 6341, 6167),
    ("T8", "original"): ("92abd58c686feac1", 1745, 813, 2435, 2201),
    ("T8", "hwlc"): ("92abd58c686feac1", 1745, 813, 2435, 2201),
    ("T8", "hwlc+dr"): ("bc6779fd82cc905d", 1761, 813, 2517, 2276),
    ("T9", "predictive"): ("2afb82c820db953f", 674, 275, 820, 642),
    ("T10", "predictive"): ("f458730a19950d42", 369, 87, 414, 228),
}


class StreamDigest:
    """A hook that hashes every event it sees: its type name and each
    field, with stacks as plain tuples and enums as their values."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.events = 0
        self.vm = None
        self._names: dict[type, tuple[str, ...]] = {}

    def handle(self, event, vm) -> None:
        self.vm = vm
        self.events += 1
        cls = type(event)
        names = self._names.get(cls)
        if names is None:
            names = self._names[cls] = tuple(f.name for f in fields(cls))
        row = [cls.__name__]
        for name in names:
            value = getattr(event, name)
            if name == "stack":
                value = tuple(map(tuple, value))
            elif isinstance(value, enum.Enum):
                value = value.value
            row.append(value)
        self.sha.update(repr(row).encode())


@pytest.mark.parametrize(("case_id", "config"), sorted(PINNED))
def test_live_stream_is_pinned(case_id, config):
    cases = evaluation_cases() + predictive_cases()
    case = {c.case_id: c for c in cases}[case_id]
    digest = StreamDigest()
    run_proxy_case(case, config, seed=42, extra_hooks=(digest,))
    vm = digest.vm
    assert (
        digest.sha.hexdigest()[:16], digest.events, vm.stats.switches,
        vm.stats.traps, len(vm.scheduler.record()),
    ) == PINNED[(case_id, config)]


def test_t1_stack_intern_tallies():
    """In a fresh process, a T1 run interns its stacks with these hits
    and misses: the tallies behind ``repro_stack_intern_*``."""
    script = (
        "import json\n"
        "from repro.experiments.harness import run_proxy_case\n"
        "from repro.runtime.events import intern_stats\n"
        "from repro.sip.workload import evaluation_cases\n"
        "case = {c.case_id: c for c in evaluation_cases()}['T1']\n"
        "before = intern_stats()\n"
        "run_proxy_case(case, 'hwlc+dr', seed=42)\n"
        "after = intern_stats()\n"
        "print(json.dumps({k: after[k] - before[k] for k in after}))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "frames": 142, "stacks": 281, "stack_hits": 1430, "stack_misses": 281,
    }
