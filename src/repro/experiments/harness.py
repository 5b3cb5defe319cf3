"""Run the proxy under detector configurations and classify the output.

This is the §3.2 debugging process in executable form: *instrumentation*
is the ``instrumented`` build switch of :class:`repro.sip.server
.ProxyConfig`, *execution* is a VM run with the chosen detector, and
*analysis* is the oracle join (:func:`repro.detectors.classify
.classify_report`) standing in for the authors' manual warning triage.
The run itself is :meth:`repro.api.Pipeline.run`, the one live driver.

One :func:`run_proxy_case` call produces one cell of the paper's
Figure 6; :func:`run_figure6` produces the whole table.

The 24 cells of the table (8 cases × 3 configurations) are mutually
independent — each is one seeded VM run with its own detector — so
:func:`run_figure6` can fan them out across worker *processes*
(``workers=N``).  Each cell is deterministic given ``(case, config,
seed)``, and results are reassembled in table order, so the parallel
table is bit-identical to the sequential one; only the wall-clock
changes.  (Processes, not threads: a VM run is pure Python and would
serialise on the GIL.)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.api import Pipeline
from repro.detectors.classify import ClassifiedReport, classify_report
from repro.detectors.report import Report
from repro.oracle import GroundTruth, WarningCategory
from repro.runtime import RandomScheduler
from repro.sip.bugs import EVALUATION_BUGS
from repro.sip.server import ProxyConfig, ProxyResult, SipProxy
from repro.sip.workload import TestCase, evaluation_cases

__all__ = ["ExperimentRun", "Figure6Row", "run_proxy_case", "run_figure6"]

#: The three configurations of the paper's evaluation, in table order.
EVAL_CONFIGS = ("original", "hwlc", "hwlc+dr")


@dataclass(slots=True)
class ExperimentRun:
    """One (test case × detector configuration) measurement."""

    case_id: str
    config_name: str
    location_count: int
    classified: ClassifiedReport
    proxy_result: ProxyResult
    events: int
    wall_seconds: float
    #: The finalized report ``location_count`` was read from.
    report: Report | None = None

    def fp_count(self, category: WarningCategory) -> int:
        return self.classified.count(category)


@dataclass(slots=True)
class Figure6Row:
    """One row of the Figure 6 table: a test case under all configs."""

    case_id: str
    runs: dict[str, ExperimentRun] = field(default_factory=dict)

    @property
    def original(self) -> int:
        return self.runs["original"].location_count

    @property
    def hwlc(self) -> int:
        return self.runs["hwlc"].location_count

    @property
    def hwlc_dr(self) -> int:
        return self.runs["hwlc+dr"].location_count

    @property
    def removal_fraction(self) -> float:
        """Share of Original's locations removed by both improvements —
        the paper's headline "65% to 81%" metric."""
        if self.original == 0:
            return 0.0
        return (self.original - self.hwlc_dr) / self.original


def run_proxy_case(
    case: TestCase,
    config_name: str | Pipeline,
    *,
    seed: int = 42,
    mode: str = "thread-per-request",
    bugs: frozenset[str] = EVALUATION_BUGS,
    detector=None,
    step_limit: int = 10_000_000,
    telemetry=None,
    extra_hooks: tuple = (),
) -> ExperimentRun:
    """Run one test case under one detector configuration.

    ``config_name`` is a profile name or a :class:`~repro.api.Pipeline`
    (which carries its suppressions).  The build is instrumented
    exactly when the configuration honours the annotation (the
    ``HWLC+DR`` column), as in the paper.  ``detector``,
    ``extra_hooks`` and ``telemetry`` go to :meth:`Pipeline.run
    <repro.api.Pipeline.run>`, whose phase is ``case/config``.

    A case may pin its own bug set (``case.bugs``), which overrides the
    ``bugs`` argument — the predictive T9/T10 cases use this to enable
    *only* their latent fault regardless of the caller's default.
    """
    if not isinstance(config_name, Pipeline):
        config_name = Pipeline(config_name)
    pipeline, config_name = config_name, config_name.config_name
    truth = GroundTruth()
    proxy = SipProxy(
        ProxyConfig(
            mode=mode,
            bugs=case.bugs if case.bugs is not None else bugs,
            instrumented=pipeline.config.honor_destruct,
        ),
        truth=truth,
    )
    run = pipeline.run(
        proxy.main, case.wires,
        scheduler=RandomScheduler(seed),
        step_limit=step_limit,
        extra_hooks=extra_hooks,
        telemetry=telemetry,
        label=f"{case.case_id}/{config_name}",
        detector=detector,
    )
    return ExperimentRun(
        case_id=case.case_id,
        config_name=config_name,
        location_count=run.report.location_count,
        classified=classify_report(run.report, truth),
        proxy_result=run.result,
        events=run.events,
        wall_seconds=run.wall_seconds,
        report=run.report,
    )


def _figure6_cell(payload: tuple) -> tuple[str, str, ExperimentRun, dict | None]:
    """Worker entry point: run one (case × config) cell.

    Module-level (picklable) so :class:`ProcessPoolExecutor` can ship it
    to a worker; returns its coordinates so the parent can reassemble
    the table deterministically regardless of completion order.

    When ``collect_metrics`` is set the worker instruments its run with
    a process-local :class:`~repro.telemetry.Telemetry` and ships the
    resulting *snapshot* (plain dicts — picklable) home; the parent
    folds it into its own registry (:meth:`Telemetry.merge_snapshot`).
    The snapshot rides alongside the run instead of
    inside it, so table assembly — and therefore the rendered report —
    is bit-identical with metrics on or off.
    """
    case, config_name, seed, mode, collect_metrics = payload
    telemetry = None
    if collect_metrics:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    run = run_proxy_case(
        case, config_name, seed=seed, mode=mode, telemetry=telemetry
    )
    snapshot = telemetry.snapshot() if telemetry is not None else None
    return case.case_id, config_name, run, snapshot


def run_figure6(
    cases: list[TestCase] | None = None,
    *,
    seed: int = 42,
    mode: str = "thread-per-request",
    workers: int | None = None,
    telemetry=None,
    configs: tuple[str, ...] = EVAL_CONFIGS,
) -> list[Figure6Row]:
    """The full evaluation: T1-T8 × {Original, HWLC, HWLC+DR}.

    ``configs`` overrides the column set — any registered profile name
    is a valid column (``repro figure6 --config predictive`` sweeps
    the predictive tier over the same cases).  The Figure 6 paper
    comparison is only rendered for the default paper trio.

    ``workers`` > 1 fans the independent cells out over that many
    worker processes (``python -m repro figure6 --workers N``); the
    default (``None`` or 1) runs them sequentially in-process.  Either
    way the produced rows are identical — cell runs are seeded and
    deterministic, and assembly preserves table order.

    ``telemetry`` instruments every cell.  Sequentially the one object
    is threaded through each run; in parallel each worker collects into
    its own registry and the parent merges the returned snapshots.  The
    aggregates agree up to wall-clock timings and warm-table effects
    (N worker processes have N cold interning tables, so memo-miss
    tallies are correspondingly higher than one shared warm table's).
    """
    case_list = list(cases) if cases is not None else evaluation_cases()
    if workers is not None and workers > 1:
        return _run_figure6_parallel(
            case_list, seed, mode, workers, telemetry, configs
        )
    rows: list[Figure6Row] = []
    for case in case_list:
        row = Figure6Row(case.case_id)
        for config_name in configs:
            row.runs[config_name] = run_proxy_case(
                case, config_name, seed=seed, mode=mode, telemetry=telemetry
            )
        rows.append(row)
    return rows


def _run_figure6_parallel(
    cases: list[TestCase], seed: int, mode: str, workers: int,
    telemetry=None, configs: tuple[str, ...] = EVAL_CONFIGS,
) -> list[Figure6Row]:
    """Fan the independent (case × config) cells across ``workers``."""
    collect = telemetry is not None and telemetry.enabled
    jobs = [
        (case, config_name, seed, mode, collect)
        for case in cases
        for config_name in configs
    ]
    by_case: dict[str, Figure6Row] = {
        case.case_id: Figure6Row(case.case_id) for case in cases
    }
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        for case_id, config_name, run, snapshot in pool.map(_figure6_cell, jobs):
            by_case[case_id].runs[config_name] = run
            if snapshot is not None and collect:
                telemetry.merge_snapshot(snapshot)
    # Deterministic assembly: original case order, regardless of the
    # order in which workers finished.
    return [by_case[case.case_id] for case in cases]
