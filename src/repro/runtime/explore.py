"""Bounded systematic schedule exploration (CHESS-style).

The paper's §4.3 remedy for schedule-dependent detection is hopeful:
"Repeated tests with different test data (resulting in different
interleavings) could help find such data-races, if they exist."  Random
seed sweeps (:func:`repro.experiments.studies.false_negative_study`) do
exactly that — but for small programs we can do better than hope:
**enumerate** the schedule space.

:func:`explore` performs stateless depth-first exploration over the
scheduler's decision points, the way Microsoft's CHESS does for real
binaries: run the program once taking the default choice everywhere and
record, at every decision point, how many runnable threads there were;
then branch — re-run with one decision flipped, discover the new run's
decision points, branch again — until the space is exhausted or the run
budget is spent.  Every run is deterministic (the VM is), so each
explored schedule is exactly reproducible from its choice prefix.

No partial-order reduction is attempted: the point here is a *complete*
verdict on small scenarios (does ANY schedule trigger the race / tear
the record / wedge the program?), not scalability.  Exhaustiveness is
reported honestly via :attr:`ExplorationResult.exhausted`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.errors import DeadlockError, GuestFault, StepLimitExceeded
from repro.runtime.scheduler import Scheduler
from repro.runtime.vm import VM

__all__ = ["explore", "ExplorationResult", "ScheduleOutcome"]


class _ExploringScheduler(Scheduler):
    """Follows a prefix of *choice indices*; index 0 (lowest runnable
    tid) after the prefix.  Records the arity of every decision point so
    the explorer knows where it can branch."""

    def __init__(self, prefix: Sequence[int]) -> None:
        self.prefix = list(prefix)
        #: Choice index actually taken at each decision point.
        self.taken: list[int] = []
        #: Number of runnable threads at each decision point.
        self.arity: list[int] = []

    def pick(self, runnable, current):
        depth = len(self.taken)
        index = self.prefix[depth] if depth < len(self.prefix) else 0
        if index >= len(runnable):
            index = 0  # the branch point no longer exists on this path
        self.taken.append(index)
        self.arity.append(len(runnable))
        return runnable[index]


@dataclass(slots=True)
class ScheduleOutcome:
    """One explored schedule."""

    #: Choice-index prefix reproducing this run (feed back to explore or
    #: to :class:`_ExploringScheduler` directly).
    choices: tuple[int, ...]
    #: The guest result, if the run completed.
    result: object = None
    #: "ok" | "deadlock" | "fault" | "steplimit"
    status: str = "ok"
    #: Reported race locations per detector index (when detectors used).
    race_locations: tuple[int, ...] = ()

    @property
    def found_race(self) -> bool:
        return any(self.race_locations)


@dataclass(slots=True)
class ExplorationResult:
    """Aggregate of a bounded exploration."""

    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    #: True when the whole bounded space was covered within the budget.
    exhausted: bool = True
    #: Branch points that existed beyond ``max_depth`` (never flipped).
    truncated_depth: bool = False

    @property
    def schedules_run(self) -> int:
        return len(self.outcomes)

    def with_status(self, status: str) -> list[ScheduleOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def races_found(self) -> int:
        return sum(1 for o in self.outcomes if o.found_race)

    @property
    def deadlocks_found(self) -> int:
        return len(self.with_status("deadlock"))

    def distinct_results(self) -> set:
        return {o.result for o in self.outcomes if o.status == "ok"}

    def format(self) -> str:
        lines = [
            f"explored {self.schedules_run} schedules "
            f"({'exhaustive' if self.exhausted else 'budget-bounded'}"
            f"{', depth-truncated' if self.truncated_depth else ''})",
            f"  completed: {len(self.with_status('ok'))}"
            f"  deadlocked: {self.deadlocks_found}"
            f"  faulted: {len(self.with_status('fault'))}",
        ]
        if any(o.race_locations for o in self.outcomes):
            lines.append(
                f"  schedules with race reports: {self.races_found}"
                f"/{self.schedules_run}"
            )
        results = self.distinct_results()
        if len(results) > 1:
            lines.append(f"  distinct guest results: {sorted(map(repr, results))}")
        return "\n".join(lines)


def explore(
    program: Callable,
    *args,
    detector_factories: Sequence[Callable] = (),
    max_schedules: int = 256,
    max_depth: int = 64,
    step_limit: int = 100_000,
) -> ExplorationResult:
    """Systematically explore ``program``'s schedules.

    ``program`` must be re-runnable (each run gets a fresh VM; shared
    *host* state between runs is the caller's responsibility).
    ``detector_factories`` build fresh detectors per run; after each
    run, whatever its status, every detector's ``finalize`` runs (the
    predictive tier predicts there), and then the outcome records the
    per-detector race-location counts.

    Branching is bounded twice: at most ``max_schedules`` runs, and only
    the first ``max_depth`` decision points are ever flipped.
    """
    result = ExplorationResult()
    stack: list[tuple[int, ...]] = [()]
    seen: set[tuple[int, ...]] = set()
    while stack:
        if result.schedules_run >= max_schedules:
            result.exhausted = False
            break
        prefix = stack.pop()
        scheduler = _ExploringScheduler(prefix)
        detectors = tuple(factory() for factory in detector_factories)
        vm = VM(scheduler=scheduler, detectors=detectors, step_limit=step_limit)
        outcome = ScheduleOutcome(choices=prefix)
        try:
            outcome.result = vm.run(program, *args)
        except DeadlockError:
            outcome.status = "deadlock"
        except StepLimitExceeded:
            outcome.status = "steplimit"
        except GuestFault:
            outcome.status = "fault"
        for detector in detectors:
            if hasattr(detector, "finalize"):
                detector.finalize()
        outcome.race_locations = tuple(
            d.report.location_count for d in detectors if hasattr(d, "report")
        )
        result.outcomes.append(outcome)

        # Branch: flip each not-yet-fixed decision point of this run.
        taken = scheduler.taken
        arity = scheduler.arity
        depth_cap = min(len(taken), max_depth)
        if len(taken) > max_depth and any(a > 1 for a in arity[max_depth:]):
            result.truncated_depth = True
        for depth in range(len(prefix), depth_cap):
            for alternative in range(1, arity[depth]):
                branch = tuple(taken[:depth]) + (alternative,)
                if branch not in seen:
                    seen.add(branch)
                    stack.append(branch)
    return result
