"""The remaining §4 studies: false negatives, ablations, baselines.

* :func:`false_negative_study` — §4.3: Eraser's delayed lock-set
  initialisation hides a real race when the unlocked access happens to
  come first; a different schedule exposes it.  ("If a different
  schedule leads to another execution order, the (possible) data race is
  found and reported.  But this is not guaranteed to happen in the
  development environment.")
* :func:`ablation_study` — E10: each refinement (Figure 1 states, thread
  segments) strictly reduces false positives on the workloads built to
  exercise it.
* :func:`baseline_study` — E11/§2.2: DJIT reports a subset of the
  lock-set detector's locations on schedule-ordered runs; the hybrid
  sits between.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.profiles import profile
from repro.runtime import VM, RandomScheduler, StickyScheduler

__all__ = [
    "FalseNegativeStudy",
    "false_negative_study",
    "AblationStudy",
    "ablation_study",
    "BaselineStudy",
    "baseline_study",
]


# ----------------------------------------------------------------------
# §4.3 — schedule-dependent false negatives
# ----------------------------------------------------------------------


def _delayed_init_program(api):
    """The §4.3 scenario.

    One thread writes the shared word *without* a lock; another writes
    it *with* a lock.  If the unlocked write is observed first, it lands
    while the word is still EXCLUSIVE — the candidate set is initialised
    only at the second (locked) access, and the violation is forgotten.
    The opposite order initialises C(v)={m} first and the unlocked write
    then empties it.
    """
    addr = api.malloc(1, tag="shared")
    api.store(addr, 0)
    m = api.mutex()

    def unlocked_writer(a):
        with a.frame("unlocked_writer", "fn.cpp", 10):
            a.store(addr, 1)  # no lock!

    def locked_writer(a):
        with a.frame("locked_writer", "fn.cpp", 20):
            a.lock(m)
            a.store(addr, 2)
            a.unlock(m)

    t1 = api.spawn(unlocked_writer)
    t2 = api.spawn(locked_writer)
    api.join(t1)
    api.join(t2)


@dataclass(slots=True)
class FalseNegativeStudy:
    """Outcome of the seed sweep."""

    seeds_detected: list[int] = field(default_factory=list)
    seeds_missed: list[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.seeds_detected) + len(self.seeds_missed)

    @property
    def detection_rate(self) -> float:
        return len(self.seeds_detected) / self.total if self.total else 0.0

    def format(self) -> str:
        return (
            "False-negative study (§4.3): unlocked-vs-locked writer race\n"
            f"  schedules probed:   {self.total}\n"
            f"  race reported:      {len(self.seeds_detected)} "
            f"({self.detection_rate:.0%})\n"
            f"  race missed:        {len(self.seeds_missed)} "
            "(delayed lock-set initialisation)\n"
            "  paper: 'such cases were found in the source code and they "
            "have not been reported by the testing process'"
        )


def false_negative_study(
    *, seeds: range = range(24), sticky_prob: float = 0.02
) -> FalseNegativeStudy:
    """Probe the §4.3 scenario under many schedules.

    A sticky scheduler (rare preemption) is used so both orderings —
    unlocked writer first and locked writer first — actually occur
    across the sweep, like coarse OS time slicing would.
    """
    study = FalseNegativeStudy()
    for seed in seeds:
        det = profile("hwlc").detector()
        vm = VM(
            detectors=(det,),
            scheduler=StickyScheduler(seed=seed, switch_prob=sticky_prob),
        )
        vm.run(_delayed_init_program)
        if det.report.location_count:
            study.seeds_detected.append(seed)
        else:
            study.seeds_missed.append(seed)
    return study


# ----------------------------------------------------------------------
# E10 — ablation of the Figure 1 states and the thread segments
# ----------------------------------------------------------------------


def _init_then_share_program(api):
    """Init-once, read-many: forgiven by the Figure 1 states."""
    blocks = []
    for i in range(6):
        addr = api.malloc(2, tag=f"cfg{i}")
        with api.frame(f"init_cfg{i}", "boot.cpp", 10 + i):
            api.store(addr, i)
            api.store(addr + 1, i * i)
        blocks.append(addr)

    def reader(a, k):
        with a.frame(f"reader{k}", "worker.cpp", 30 + k):
            for addr in blocks:
                a.load(addr)
                a.load(addr + 1)

    ts = [api.spawn(reader, k) for k in range(3)]
    for t in ts:
        api.join(t)


def _create_join_handoff_program(api):
    """Figure 10: per-request ownership transfer via create/join."""
    for i in range(5):
        data = api.malloc(3, tag=f"req{i}")
        with api.frame("setup", "accept.cpp", 12):
            for j in range(3):
                api.store(data + j, j)

        def worker(a, base=data):
            with a.frame("process", "worker.cpp", 40):
                for j in range(3):
                    a.store(base + j, a.load(base + j) + 1)

        t = api.spawn(worker)
        api.join(t)
        with api.frame("collect", "accept.cpp", 20):
            for j in range(3):
                api.load(data + j)


@dataclass(slots=True)
class AblationStudy:
    """Location counts per (workload × machine refinement level)."""

    #: workload -> {"raw-eraser": n, "eraser-states": n, "helgrind": n}
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            "Ablation (E10) — reported locations per refinement level",
            f"  {'workload':22s} {'raw Eraser':>11s} {'+Fig1 states':>13s} {'+segments':>10s}",
        ]
        for workload, row in self.counts.items():
            lines.append(
                f"  {workload:22s} {row['raw-eraser']:11d} "
                f"{row['eraser-states']:13d} {row['helgrind']:10d}"
            )
        return "\n".join(lines)


def ablation_study() -> AblationStudy:
    """Run both ablation workloads under the three machine levels."""
    study = AblationStudy()
    workloads = {
        "init-then-share": _init_then_share_program,
        "create-join-handoff": _create_join_handoff_program,
    }
    # Column -> the profile of that refinement level.
    levels = {
        "raw-eraser": "raw-eraser",
        "eraser-states": "eraser-states",
        "helgrind": "original",
    }
    for wname, workload in workloads.items():
        row = {}
        for cname, name in levels.items():
            det = profile(name).detector()
            VM(detectors=(det,)).run(workload)
            row[cname] = det.report.location_count
        study.counts[wname] = row
    return study


# ----------------------------------------------------------------------
# E11 — lock-set vs happens-before vs hybrid
# ----------------------------------------------------------------------


def _mixed_discipline_program(api):
    """A true race, a schedule-ordered discipline violation, and clean
    locked traffic, side by side."""
    racy = api.malloc(1, tag="racy")
    api.store(racy, 0)
    ordered = api.malloc(1, tag="ordered")
    api.store(ordered, 0)
    clean = api.malloc(1, tag="clean")
    api.store(clean, 0)
    m = api.mutex()
    sem = api.semaphore(0)

    def racer(a):
        with a.frame("racer", "mix.cpp", 10):
            a.store(racy, a.load(racy) + 1)

    def ordered_writer(a):
        with a.frame("ordered_writer", "mix.cpp", 20):
            a.store(ordered, 1)  # unlocked, but semaphore-ordered
        a.sem_post(sem)

    def clean_writer(a):
        with a.frame("clean_writer", "mix.cpp", 30):
            a.lock(m)
            a.store(clean, a.load(clean) + 1)
            a.unlock(m)

    ts = [api.spawn(racer), api.spawn(racer), api.spawn(ordered_writer),
          api.spawn(clean_writer), api.spawn(clean_writer)]
    api.sem_wait(sem)
    with api.frame("ordered_writer_main", "mix.cpp", 40):
        api.store(ordered, 2)
    for t in ts:
        api.join(t)


@dataclass(slots=True)
class BaselineStudy:
    """Racy-address sets found by each detector family."""

    lockset_addrs: frozenset[int] = frozenset()
    djit_addrs: frozenset[int] = frozenset()
    hybrid_addrs: frozenset[int] = frozenset()
    racetrack_addrs: frozenset[int] = frozenset()

    def format(self) -> str:
        return (
            "Baselines (E11, §2.2) — racy addresses per detector family\n"
            f"  lock-set (Helgrind):   {len(self.lockset_addrs)}\n"
            f"  happens-before (DJIT): {len(self.djit_addrs)}\n"
            f"  hybrid:                {len(self.hybrid_addrs)}\n"
            f"  RaceTrack (adaptive):  {len(self.racetrack_addrs)}\n"
            f"  DJIT subset of lock-set:      {self.djit_addrs <= self.lockset_addrs}\n"
            f"  hybrid subset of lock-set:    {self.hybrid_addrs <= self.lockset_addrs}\n"
            f"  RaceTrack subset of lock-set: {self.racetrack_addrs <= self.lockset_addrs}\n"
            "  paper: DJIT 'detects data races on a subset of shared "
            "locations that are reported by the lock-set approach'"
        )


def baseline_study(*, seed: int = 7) -> BaselineStudy:
    """Run the mixed workload under all four detector families."""

    def addrs_of(name: str):
        detector = profile(name).detector()
        vm = VM(detectors=(detector,), scheduler=RandomScheduler(seed))
        vm.run(_mixed_discipline_program)
        return frozenset(w.addr for w in detector.report if w.addr is not None)

    return BaselineStudy(
        lockset_addrs=addrs_of("hwlc"),
        djit_addrs=addrs_of("djit"),
        hybrid_addrs=addrs_of("hybrid"),
        racetrack_addrs=addrs_of("racetrack"),
    )
