"""Command-line interface: ``python -m repro <command>``.

The Valgrind experience the paper praises — "widely accepted by
programmers in different environments because of its ease of use and
the usefulness of its output" (§5) — is one command with readable
output.  The CLI exposes the reproduction the same way:

========  ============================================================
command   what it does
========  ============================================================
figure6   run T1-T8 × {Original, HWLC, HWLC+DR}; print Figures 6 and 5
case      run one test case under one configuration; print the warnings
studies   the §4.3 false-negative sweep, the E10 ablation, E11 baselines
perf      the §4.5 slowdown and trace-cost measurements
bugs      the §4.1 injected-bug registry
report    regenerate the full EXPERIMENTS.md record in one pass
suppress  run a case, triage it, emit a suppression file (§2.3.1)
stats     run one case instrumented; print/export pipeline telemetry
serve     run the streaming analysis service (unix socket or TCP)
client    stream a case or trace to a running service; fetch reports
========  ============================================================

``figure6`` and ``report`` additionally accept ``--metrics-out`` /
``--trace-out``: the runs are then instrumented with
:mod:`repro.telemetry` and the collected metrics are written as a JSON
snapshot (plus a Prometheus text twin at ``<path>.prom``) and a Chrome
trace-event file loadable in Perfetto.  Parallel sweeps merge each
worker's snapshot in the parent, so ``--workers N`` loses nothing.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import _case_by_id
from repro.errors import ServiceError

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    # The analysis-profile registry is the single source of truth for
    # which configurations exist; the CLI's choices are generated from
    # it so a newly registered profile is selectable everywhere at once.
    from repro.api.profiles import profile_names

    config_choices = profile_names()
    case_ids = [f"T{i}" for i in range(1, 11)]

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Fault Detection in Multi-Threaded C++ Server "
            "Applications' (Muehlenfeld & Wotawa, ENTCS 174, 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("figure6", help="regenerate Figures 6 and 5")
    p.add_argument("--seed", type=int, default=42, help="scheduler seed")
    p.add_argument(
        "--config",
        dest="configs",
        action="append",
        choices=config_choices,
        help=(
            "sweep these profiles instead of the paper's "
            "Original/HWLC/HWLC+DR columns (repeatable); a custom set "
            "renders a plain location-count table without the paper "
            "comparison"
        ),
    )
    p.add_argument(
        "--mode",
        choices=("thread-per-request", "thread-pool"),
        default="thread-per-request",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the 24 independent cells (1 = sequential)",
    )
    _add_telemetry_flags(p)
    p.set_defaults(handler=_cmd_figure6)

    p = sub.add_parser("case", help="run one test case under one configuration")
    p.add_argument("case_id", choices=case_ids)
    p.add_argument("config", choices=config_choices)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--full", action="store_true", help="print every warning block")
    p.set_defaults(handler=_cmd_case)

    p = sub.add_parser("studies", help="false negatives, ablation, baselines")
    p.set_defaults(handler=_cmd_studies)

    p = sub.add_parser("perf", help="the §4.5 slowdown measurements")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--iterations", type=int, default=120)
    p.set_defaults(handler=_cmd_perf)

    p = sub.add_parser("bugs", help="list the §4.1 injected-bug registry")
    p.set_defaults(handler=_cmd_bugs)

    p = sub.add_parser(
        "report", help="regenerate the full experiment record (EXPERIMENTS.md data)"
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--workers", type=int, default=1, help="worker processes for the Figure 6 sweep"
    )
    p.add_argument(
        "--case",
        dest="cases",
        action="append",
        choices=case_ids,
        help=(
            "restrict the Figure 6 sweep to these cases (repeatable); "
            "implies a focused report: the case-independent studies and "
            "performance tiers are skipped"
        ),
    )
    p.add_argument(
        "--detector",
        choices=config_choices,
        default="hwlc+dr",
        help=(
            "profile of the instrumented deep-dive run performed when "
            "--metrics-out/--trace-out is given (default: hwlc+dr, the "
            "sweep's own; any other adds a run per case)"
        ),
    )
    _add_telemetry_flags(p)
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("suppress", help="triage a case and emit suppressions")
    p.add_argument("case_id", choices=case_ids)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("-o", "--output", default="-", help="file ('-' = stdout)")
    p.set_defaults(handler=_cmd_suppress)

    p = sub.add_parser(
        "trace",
        help="record, replay and inspect offline traces (§4.5)",
    )
    trace_sub = p.add_subparsers(dest="trace_command")

    tp = trace_sub.add_parser(
        "record", help="run one case with a trace recorder riding along"
    )
    tp.add_argument("case_id", choices=case_ids)
    tp.add_argument(
        "config",
        nargs="?",
        default="hwlc+dr",
        choices=config_choices,
    )
    tp.add_argument(
        "-o", "--output", required=True, help="trace file path (RPTR binary)"
    )
    tp.add_argument("--seed", type=int, default=42)
    tp.add_argument(
        "--report-out",
        metavar="PATH",
        help="also save the live detector's report (for diffing vs replay)",
    )
    tp.set_defaults(handler=_cmd_trace_record)

    tp = trace_sub.add_parser(
        "replay", help="feed a trace through a detector post-mortem"
    )
    tp.add_argument("trace_file")
    tp.add_argument(
        "config",
        nargs="?",
        default="hwlc+dr",
        choices=config_choices,
    )
    tp.add_argument("--full", action="store_true", help="print every warning block")
    tp.add_argument(
        "--shards",
        type=_shards_arg,
        default=1,
        metavar="N",
        help=(
            "analyze the trace across N worker processes, partitioned "
            "by shadow page; the merged report is byte-identical to a "
            "sequential replay. 'auto' picks a count from cpu_count and "
            "the trace's page histogram (default: 1 = sequential)"
        ),
    )
    tp.add_argument(
        "--report-out",
        metavar="PATH",
        help="save the offline report (byte-identical to the live one)",
    )
    tp.set_defaults(handler=_cmd_trace_replay)

    tp = trace_sub.add_parser("stat", help="summarise a trace file")
    tp.add_argument("trace_file")
    tp.set_defaults(handler=_cmd_trace_stat)

    tp = trace_sub.add_parser(
        "merge",
        help=(
            "merge per-process Chrome traces (epoch-aligned) into one "
            "Perfetto timeline"
        ),
    )
    tp.add_argument("inputs", nargs="+", help="Chrome trace JSON files")
    tp.add_argument(
        "-o", "--output", required=True, help="merged trace file path"
    )
    tp.set_defaults(handler=_cmd_trace_merge)

    p.set_defaults(handler=_cmd_trace_help, _trace_parser=p)

    p = sub.add_parser(
        "serve",
        help="run the streaming analysis service (docs/SERVICE.md)",
    )
    p.add_argument("--socket", metavar="PATH", help="listen on a unix socket")
    p.add_argument("--tcp", metavar="HOST:PORT", help="listen on a TCP endpoint")
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help=(
            "shared-nothing worker processes; sessions are routed by "
            "consistent hashing on session id (docs/SERVICE.md)"
        ),
    )
    p.add_argument(
        "--threads",
        type=int,
        default=2,
        metavar="N",
        help="analysis threads inside each worker process",
    )
    p.add_argument(
        "--queue-blocks",
        type=int,
        default=8,
        metavar="N",
        help="per-session ingest bound: at most N chunks buffered (credits)",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="checkpoint and close sessions idle this long",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="enable durable session checkpoints (kill-and-resume)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="EVENTS",
        help="also checkpoint mid-stream every EVENTS analysed events",
    )
    p.add_argument(
        "--admin-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve the HTTP admin plane on 127.0.0.1:PORT (0 picks a "
            "free one): /metrics /healthz /readyz /sessions /workers"
        ),
    )
    p.add_argument(
        "--admin-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for --admin-port (default: loopback only)",
    )
    p.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable structured JSON-lines logs at this level",
    )
    p.add_argument(
        "--log-file",
        metavar="PATH",
        default=None,
        help=(
            "append structured logs here (all processes share the file; "
            "without it --log-level writes to stderr)"
        ),
    )
    p.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help=(
            "each worker writes a Chrome trace here at shutdown "
            "(combine with `repro trace merge`)"
        ),
    )
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running analysis service",
    )
    client_sub = p.add_subparsers(dest="client_command")

    def _conn_flags(cp, data: bool = True) -> None:
        cp.add_argument("--socket", metavar="PATH", help="service unix socket")
        cp.add_argument("--tcp", metavar="HOST:PORT", help="service TCP endpoint")
        if data:
            cp.add_argument(
                "--chunk-bytes", type=int, default=32 * 1024, metavar="N"
            )

    cp = client_sub.add_parser(
        "record", help="run a case live, streaming its events to the service"
    )
    cp.add_argument("case_id", choices=case_ids)
    cp.add_argument(
        "config",
        nargs="?",
        default="hwlc+dr",
        choices=config_choices,
    )
    cp.add_argument("--seed", type=int, default=42)
    cp.add_argument(
        "--report-out", metavar="PATH", help="save the service's report bytes"
    )
    _conn_flags(cp)
    cp.set_defaults(handler=_cmd_client_record)

    cp = client_sub.add_parser(
        "report", help="stream a recorded .rptr trace; fetch the report"
    )
    cp.add_argument("trace_file")
    cp.add_argument(
        "config",
        nargs="?",
        default="hwlc+dr",
        choices=config_choices,
    )
    cp.add_argument(
        "--session",
        metavar="ID",
        help="resume this checkpointed session (streams from its offset)",
    )
    cp.add_argument(
        "--report-out", metavar="PATH", help="save the service's report bytes"
    )
    cp.add_argument("--full", action="store_true", help="print the raw report")
    _conn_flags(cp)
    cp.set_defaults(handler=_cmd_client_report)

    cp = client_sub.add_parser(
        "stat", help="print the service's repro_service_* metrics"
    )
    cp.add_argument("--json", action="store_true", help="raw snapshot JSON")
    cp.add_argument(
        "--per-worker",
        action="store_true",
        help=(
            "show each worker process's unmerged snapshot next to the "
            "merged view"
        ),
    )
    _conn_flags(cp, data=False)
    cp.set_defaults(handler=_cmd_client_stat)

    p.set_defaults(handler=_cmd_client_help, _client_parser=p)

    p = sub.add_parser(
        "stats",
        help="run one case instrumented; print pipeline telemetry",
    )
    p.add_argument("case_id", nargs="?", default="T1", choices=case_ids)
    p.add_argument("--detector", choices=config_choices, default="hwlc+dr")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--per-worker",
        action="store_true",
        help=(
            "print the per-process snapshot section next to the merged "
            "view (one section per contributing process; a plain local "
            "run has exactly one)"
        ),
    )
    _add_telemetry_flags(p)
    p.set_defaults(handler=_cmd_stats)

    return parser


def _shards_arg(value: str):
    """``--shards`` accepts an int or the literal ``auto``."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid shards value: {value!r} (an integer or 'auto')"
        ) from None


def _add_telemetry_flags(p) -> None:
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics snapshot as JSON (+ Prometheus twin at PATH.prom)",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace-event JSON (open in Perfetto / chrome://tracing)",
    )


# ----------------------------------------------------------------------
# Command implementations (imports deferred so --help stays instant)
# ----------------------------------------------------------------------


def _telemetry_for(args):
    """A :class:`repro.telemetry.Telemetry` if any output flag asks for
    one, else ``None`` (the uninstrumented fast path)."""
    if not (getattr(args, "metrics_out", None) or getattr(args, "trace_out", None)):
        return None
    from repro.telemetry import Telemetry

    return Telemetry(trace=bool(args.trace_out))


def _write_telemetry(telemetry, args) -> None:
    """Write ``--metrics-out`` (JSON + ``.prom`` twin) and ``--trace-out``."""
    if telemetry is None:
        return
    from repro.telemetry import write_metrics

    snapshot = telemetry.snapshot()
    if args.metrics_out:
        twin = write_metrics(args.metrics_out, snapshot)
        print(f"metrics: wrote {args.metrics_out} (+ {twin})")
    if args.trace_out and telemetry.tracer is not None:
        telemetry.tracer.write(args.trace_out)
        print(
            f"trace: wrote {args.trace_out} "
            f"({len(telemetry.tracer)} events; open in Perfetto)"
        )


def _cmd_figure6(args) -> int:
    from repro.experiments.figures import (
        figure5_decomposition,
        figure6_table,
        shape_violations,
        sweep_table,
    )
    from repro.experiments.harness import EVAL_CONFIGS, run_figure6

    telemetry = _telemetry_for(args)
    configs = tuple(args.configs) if args.configs else EVAL_CONFIGS
    rows = run_figure6(
        seed=args.seed, mode=args.mode, workers=args.workers,
        telemetry=telemetry, configs=configs,
    )
    if configs != EVAL_CONFIGS:
        # A custom column set has no paper twin: render the plain
        # sweep and skip the Figure 5/6 comparisons and shape checks.
        print(sweep_table(rows, configs))
        _write_telemetry(telemetry, args)
        return 0
    print(figure6_table(rows))
    print()
    print(figure5_decomposition(rows))
    _write_telemetry(telemetry, args)
    problems = shape_violations(rows)
    if problems:
        print("\nSHAPE VIOLATIONS:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nall of the paper's qualitative claims hold on this run.")
    return 0


def _cmd_case(args) -> int:
    from repro.experiments.harness import run_proxy_case

    case = _case_by_id(args.case_id)
    run = run_proxy_case(case, args.config, seed=args.seed)
    print(
        f"{case.case_id} ({case.name}) under {args.config}: "
        f"{run.location_count} reported locations, "
        f"{run.events} events, {run.wall_seconds * 1e3:.0f} ms"
    )
    print(run.classified.format_summary())
    if args.full:
        print()
        for item in run.classified.items:
            print(f"--- [{item.category.value}] {item.note or ''}")
            print(item.warning.format())
            print()
    return 0


def _cmd_studies(args) -> int:
    from repro.experiments.studies import (
        ablation_study,
        baseline_study,
        false_negative_study,
    )

    print(false_negative_study().format())
    print()
    print(ablation_study().format())
    print()
    print(baseline_study().format())
    return 0


def _cmd_perf(args) -> int:
    from repro.experiments.performance import measure_performance, trace_cost

    report = measure_performance(
        n_threads=args.threads, iterations=args.iterations
    )
    print(report.format())
    cost = trace_cost(n_threads=args.threads, iterations=args.iterations)
    print(
        f"  offline mode: {int(cost['events'])} events "
        f"(~{int(cost['estimated_bytes'])} bytes), "
        f"replay {cost['replay_seconds'] * 1e3:.1f} ms"
    )
    return 0


def _cmd_bugs(args) -> int:
    from repro.sip.bugs import BUGS

    for bug in BUGS.values():
        print(f"{bug.bug_id:20s} [{bug.paper_ref}]")
        print(f"  {bug.title}")
        print(f"  fix: {bug.fix}")
        print()
    return 0


def _cmd_report(args) -> int:
    """Everything EXPERIMENTS.md records, regenerated in one pass.

    ``--case`` focuses the report on a subset of the Figure 6 sweep
    (skipping the case-independent studies/perf tiers), which is what
    the CI telemetry smoke job runs: ``repro report --case T1
    --metrics-out m.json``.  With telemetry flags, the sweep runs
    instrumented; a non-default ``--detector`` adds a deep-dive
    instrumented run per selected case under that detector so its spans
    and state metrics land in the same snapshot.
    """
    from repro.experiments.figures import (
        figure5_decomposition,
        figure6_table,
        shape_violations,
    )
    from repro.experiments.harness import run_figure6, run_proxy_case
    from repro.experiments.performance import measure_performance, trace_cost
    from repro.experiments.studies import (
        ablation_study,
        baseline_study,
        false_negative_study,
    )
    from repro.sip.workload import evaluation_cases

    telemetry = _telemetry_for(args)
    focused = bool(args.cases)
    cases = None
    if focused:
        wanted = set(args.cases)
        cases = [c for c in evaluation_cases() if c.case_id in wanted]

    rows = run_figure6(
        cases, seed=args.seed, workers=args.workers, telemetry=telemetry
    )
    print(figure6_table(rows))
    print()
    print(figure5_decomposition(rows))
    if not focused:
        print()
        print(false_negative_study().format())
        print()
        print(ablation_study().format())
        print()
        print(baseline_study().format())
        print()
        print("Multi-threaded performance tier:")
        print(measure_performance(n_threads=4, iterations=120).format())
        print()
        print("Single-threaded performance tier:")
        print(measure_performance(n_threads=1, iterations=400).format())
        cost = trace_cost()
        print()
        print(
            f"offline mode: {int(cost['events'])} events "
            f"(~{int(cost['estimated_bytes'])} bytes), "
            f"replay {cost['replay_seconds'] * 1e3:.1f} ms"
        )
    else:
        print()
        print(
            f"(focused report: {', '.join(sorted(c.case_id for c in cases))} "
            "only; studies and performance tiers skipped)"
        )

    if telemetry is not None and args.detector != "hwlc+dr":
        # Deep-dive: the sweep itself runs hwlc+dr; fold the requested
        # profile's view of the same case(s) into the snapshot.
        for case in cases or [_case_by_id("T1")]:
            run_proxy_case(
                case, args.detector, seed=args.seed, telemetry=telemetry
            )
    _write_telemetry(telemetry, args)

    problems = shape_violations(rows) if not focused else []
    if problems:
        print("\nSHAPE VIOLATIONS:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    return 0


def _cmd_suppress(args) -> int:
    from repro.detectors.suppress_gen import generate_suppressions
    from repro.experiments.harness import run_proxy_case

    case = _case_by_id(args.case_id)
    run = run_proxy_case(case, "original", seed=args.seed)
    text = generate_suppressions(run.classified)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        fp = run.classified.false_positives
        print(f"wrote {fp} suppression entries to {args.output}")
    return 0


def _cmd_trace_help(args) -> int:
    args._trace_parser.print_help()
    return 2


def _cmd_trace_record(args) -> int:
    """Run a case with a :class:`TraceRecorder` riding the standard
    harness run — the §4.5 offline mode's record half."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder

    case = _case_by_id(args.case_id)
    with TraceRecorder(args.output) as recorder:
        run = run_proxy_case(
            case, args.config, seed=args.seed, extra_hooks=(recorder,)
        )
    print(
        f"recorded {len(recorder)} events from {case.case_id} under "
        f"{args.config} to {args.output} "
        f"({recorder.bytes_written} bytes, "
        f"{recorder.bytes_written / max(len(recorder), 1):.1f} B/event)"
    )
    print(
        f"live run: {run.location_count} reported locations, "
        f"{run.events} events, {run.wall_seconds * 1e3:.0f} ms"
    )
    if args.report_out:
        run.report.save(args.report_out)
        print(f"live report: wrote {args.report_out}")
    return 0


def _auto_shards(trace_file) -> int:
    """Resolve ``--shards auto``: shard only when it can plausibly win.

    BENCH_parallel.json showed sharding *loses* on a single-core host
    (fork + merge overhead, no parallelism) and on traces whose page
    histogram is degenerate (every access on one shadow page leaves
    N-1 workers idle).  Both cases resolve to 1; the decision and its
    reason are printed so operators can override with an explicit N.
    """
    import os
    from pathlib import Path

    from repro.runtime import codec

    cpus = os.cpu_count() or 1
    if cpus == 1:
        print(
            "shards auto: 1 (single-core host; sharding would only add "
            "fork+merge overhead)"
        )
        return 1
    hist = codec.page_histogram(Path(trace_file).read_bytes())
    if hist["pages"] <= 1:
        print(
            f"shards auto: 1 (degenerate page histogram: "
            f"{hist['pages']} distinct shadow page(s) — nothing to split)"
        )
        return 1
    shards = min(cpus, hist["pages"], 8)
    print(
        f"shards auto: {shards} (cpu_count={cpus}, {hist['pages']} "
        f"distinct shadow pages, skew {hist['skew']:.2f})"
    )
    return shards


def _typed_errors(cmd):
    """An input the program rejects — a trace the codec refuses
    (``ValueError``, also from a shard worker) or a server's ERROR
    frame (``ServiceError``) — ends the command with one stderr line
    and exit status 2."""

    def run(args) -> int:
        try:
            return cmd(args)
        except (ValueError, ServiceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return run


@_typed_errors
def _cmd_trace_replay(args) -> int:
    """Feed a recorded trace through a fresh detector (§4.5 offline
    analysis).  The produced report is byte-identical to the live one —
    and with ``--shards N`` the analysis fans out across N worker
    processes partitioned by shadow page, still byte-identical."""
    import time

    shards = args.shards
    if shards == "auto":
        shards = _auto_shards(args.trace_file)
    start = time.perf_counter()
    if shards > 1:
        from repro.detectors.parallel import replay_trace_sharded

        result = replay_trace_sharded(args.trace_file, args.config, shards=shards)
        count, report = result.events, result.report
    else:
        from repro.api import Pipeline
        from repro.runtime.codec import ReplayStats

        result, stats = None, ReplayStats()
        report = Pipeline(args.config).replay(args.trace_file, stats=stats)
        count = stats.events
    wall = time.perf_counter() - start
    across = f" across {shards} shards" if result is not None else ""
    print(
        f"replayed {count} events from {args.trace_file} under "
        f"{args.config}{across}: {report.location_count} reported locations, "
        f"{wall * 1e3:.0f} ms ({count / wall:,.0f} events/s)"
        if wall > 0
        else f"replayed {count} events: {report.location_count} locations"
    )
    if result is not None:
        for outcome in result.shards:
            s = outcome.stats
            print(
                f"  shard {outcome.shard}: {outcome.warnings} warnings, "
                f"{s['blocks_decoded']} blocks decoded, "
                f"{s['blocks_skipped_shard']} skipped (foreign pages), "
                f"{s['blocks_skipped_type']} skipped (no subscriber)"
            )
        if not result.skeleton_consistent:
            print("  warning: shard segment graphs diverged (replay bug?)")
    if args.full:
        print()
        print(report.format_full())
    if args.report_out:
        report.save(args.report_out)
        print(f"offline report: wrote {args.report_out}")
    return 0


@_typed_errors
def _cmd_trace_stat(args) -> int:
    """Summarise a trace file (size, event mix, interning tables)."""
    from repro.runtime import codec

    stats = codec.trace_stats(args.trace_file)
    print(f"{stats['path']}: binary (RPTR v1)")
    print(
        f"  {stats['events']} events, {stats['file_bytes']} bytes "
        f"({stats['bytes_per_event']:.1f} B/event)"
    )
    print(
        f"  tables: {stats['strings']} strings, {stats['stacks']} stacks"
    )
    for name, n in stats["by_type"].items():
        print(f"  {n:8d}  {name}")
    from pathlib import Path as _Path

    hist = codec.page_histogram(_Path(args.trace_file).read_bytes())
    print(
        f"  pages: {hist['pages']} distinct shadow pages, "
        f"{hist['accesses']} accesses, skew {hist['skew']:.2f} "
        f"(1.00 = uniform; high skew shards poorly)"
    )
    for page, n in hist["top"][:5]:
        print(f"  {n:8d}  page {page:#x}")
    return 0


def _cmd_trace_merge(args) -> int:
    """Merge per-process Chrome trace files into one timeline.

    The sharded service writes one trace per worker process
    (``--trace-dir``); each file's ``otherData.epoch_unix`` anchors its
    relative timestamps to wall time, so the merge lines the processes
    up on one Perfetto timeline and keeps their process groups apart.
    """
    import json as _json
    import os

    from repro.telemetry import merge_chrome_traces

    docs = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(_json.load(fh))
    names = [
        os.path.splitext(os.path.basename(path))[0] for path in args.inputs
    ]
    merged = merge_chrome_traces(docs, names=names)
    with open(args.output, "w", encoding="utf-8") as fh:
        _json.dump(merged, fh, indent=1)
        fh.write("\n")
    print(
        f"merged {len(docs)} traces ({len(merged['traceEvents'])} events) "
        f"into {args.output} (open in Perfetto)"
    )
    return 0


def _cmd_serve(args) -> int:
    """Run the streaming analysis service until interrupted; SIGINT or
    SIGTERM triggers a graceful drain (queued chunks are analysed and
    unfinished sessions checkpointed before exit).

    An acceptor in this process routes each session to one of
    ``--workers`` shared-nothing worker processes by consistent hashing
    on the session id, so aggregate throughput scales with cores
    instead of saturating one GIL.
    """
    import os
    import signal

    from repro.service import ShardedAnalysisServer
    from repro.telemetry import StructuredLogger

    if (args.socket is None) == (args.tcp is None):
        raise SystemExit("pass exactly one of --socket PATH or --tcp HOST:PORT")
    endpoint: dict = {}
    if args.socket is not None:
        endpoint["socket_path"] = args.socket
    else:
        host, _, port = args.tcp.rpartition(":")
        endpoint["host"] = host or "127.0.0.1"
        endpoint["port"] = int(port)

    # Structured logs: enabled by --log-level and/or --log-file (a file
    # without a level logs at info; a level without a file logs to
    # stderr).  Neither → no logger at all, so the default service is
    # exactly as quiet and as fast as before this flag existed.
    logger = None
    log_stream = None
    if args.log_level or args.log_file:
        if args.log_file:
            log_stream = open(args.log_file, "a", encoding="utf-8")
        else:
            log_stream = sys.stderr
        logger = StructuredLogger(log_stream, level=args.log_level or "info")

    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)

    server = ShardedAnalysisServer(
        workers=args.workers, threads=args.threads,
        queue_blocks=args.queue_blocks, idle_timeout=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every, logger=logger,
        log_file=args.log_file, log_level=args.log_level,
        trace_dir=args.trace_dir, **endpoint,
    )
    shape = (
        f"{args.workers} worker processes x {args.threads} threads, "
        "consistent-hash routing"
    )

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    server.start()
    admin = None
    if args.admin_port is not None:
        from repro.service import AdminServer

        admin = AdminServer(
            server, host=args.admin_host, port=args.admin_port,
            logger=logger,
        )
        admin.start()
    addr = server.address
    where = addr if isinstance(addr, str) else f"{addr[0]}:{addr[1]}"
    print(
        f"repro service listening on {where} "
        f"({shape}, queue bound {args.queue_blocks} blocks"
        + (f", checkpoints in {args.checkpoint_dir}" if args.checkpoint_dir else "")
        + (
            f", admin http://{admin.address[0]}:{admin.address[1]}"
            if admin is not None
            else ""
        )
        + ")",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", flush=True)
        server.shutdown(drain=True)
    finally:
        if admin is not None:
            admin.shutdown()
        if log_stream is not None and log_stream is not sys.stderr:
            log_stream.close()
    return 0


def _cmd_client_help(args) -> int:
    args._client_parser.print_help()
    return 2


def _client_endpoint(args) -> dict:
    """``--socket``/``--tcp`` → :class:`AnalysisClient` kwargs."""
    if (args.socket is None) == (args.tcp is None):
        raise SystemExit("pass exactly one of --socket PATH or --tcp HOST:PORT")
    if args.socket is not None:
        return {"socket_path": args.socket}
    host, _, port = args.tcp.rpartition(":")
    return {"host": host or "127.0.0.1", "port": int(port)}


class _WriterHook:
    """Legacy-style VM hook feeding every event to a TraceWriter (whose
    sink is the service connection — the live-streaming record path)."""

    def __init__(self, writer) -> None:
        self._writer = writer

    def handle(self, event, vm=None) -> None:
        self._writer.write(event)


def _save_service_report(payload: bytes, path: str | None) -> None:
    if path:
        with open(path, "wb") as fh:
            fh.write(payload)
        print(f"service report: wrote {path}")


@_typed_errors
def _cmd_client_record(args) -> int:
    """Run one case live, encoding its event stream straight onto the
    service connection (nothing staged on disk), then fetch the report."""
    import json

    from repro.experiments.harness import run_proxy_case
    from repro.runtime import codec
    from repro.service import AnalysisClient

    case = _case_by_id(args.case_id)
    with AnalysisClient(
        chunk_bytes=args.chunk_bytes, **_client_endpoint(args)
    ) as client:
        welcome = client.hello(args.config)
        sink = client.sink()
        writer = codec.TraceWriter(sink)
        run = run_proxy_case(
            case, args.config, seed=args.seed, extra_hooks=(_WriterHook(writer),)
        )
        writer.close()
        sink.close()
        payload = client.finish()
    report = json.loads(payload)
    print(
        f"streamed {writer.events_written} events "
        f"({writer.bytes_written} bytes) from {case.case_id} under "
        f"{args.config} to session {welcome['session']}"
    )
    print(
        f"live run: {run.location_count} reported locations; "
        f"service report: {len(report['warnings'])} warnings"
    )
    _save_service_report(payload, args.report_out)
    return 0


@_typed_errors
def _cmd_client_report(args) -> int:
    """Stream a recorded trace to the service; the returned report is
    byte-identical to the offline ``repro trace replay`` one."""
    import json
    import time

    from repro.service import AnalysisClient

    start = time.perf_counter()
    with AnalysisClient(
        chunk_bytes=args.chunk_bytes, **_client_endpoint(args)
    ) as client:
        welcome = client.hello(args.config, session=args.session)
        offset = int(welcome.get("offset", 0))
        sent = client.stream_file(args.trace_file, offset=offset)
        payload = client.finish()
    wall = time.perf_counter() - start
    report = json.loads(payload)
    resumed = f" (resumed at byte {offset})" if offset else ""
    print(
        f"session {welcome['session']}{resumed}: streamed {sent} bytes of "
        f"{args.trace_file} under {welcome['config']}: "
        f"{len(report['warnings'])} reported locations, {wall * 1e3:.0f} ms"
    )
    if args.full:
        print(payload.decode("utf-8"))
    _save_service_report(payload, args.report_out)
    return 0


def _print_snapshot_metrics(snapshot: dict) -> None:
    for name in sorted(snapshot.get("metrics", {})):
        family = snapshot["metrics"][name]
        print(f"{name} ({family['type']})")
        for sample in family.get("samples", []):
            labels = ",".join(
                f"{k}={v}"
                for k, v in sorted(sample.get("labels", {}).items())
            )
            print(f"  {{{labels}}} {sample['value']:g}")


@_typed_errors
def _cmd_client_stat(args) -> int:
    """Print the service's metrics snapshot (``repro_service_*`` et al).

    ``--per-worker`` asks the service for every worker process's
    unmerged snapshot and prints each next to the merged whole."""
    import json

    from repro.service import AnalysisClient

    with AnalysisClient(**_client_endpoint(args)) as client:
        snapshot = client.stats(per_worker=args.per_worker)
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0
    if args.per_worker:
        for wname in sorted(snapshot.get("workers", {})):
            print(f"-- {wname} --")
            _print_snapshot_metrics(snapshot["workers"][wname])
            print()
        print("-- merged --")
        _print_snapshot_metrics(snapshot.get("merged", {}))
    else:
        _print_snapshot_metrics(snapshot)
    return 0


def _cmd_stats(args) -> int:
    """Run one case instrumented and print the pipeline's own telemetry."""
    from repro.experiments.harness import run_proxy_case
    from repro.telemetry import Telemetry, to_console

    case = _case_by_id(args.case_id)
    telemetry = Telemetry(trace=bool(args.trace_out))
    run = run_proxy_case(
        case, args.detector, seed=args.seed, telemetry=telemetry
    )
    print(
        f"{case.case_id} ({case.name}) under {args.detector}: "
        f"{run.location_count} locations, {run.events} events, "
        f"{run.wall_seconds * 1e3:.0f} ms"
    )
    print()
    snapshot = telemetry.snapshot()
    if args.per_worker:
        # Local runs are one process; mirror the sharded service's
        # shape anyway so output is uniform with `client stat`.
        import os

        from repro.telemetry import merge_snapshots

        print(f"-- w0 (pid {os.getpid()}) --")
        print(to_console(snapshot), end="")
        print()
        print("-- merged --")
        print(to_console(merge_snapshots([snapshot])), end="")
    else:
        print(to_console(snapshot), end="")
    _write_telemetry(telemetry, args)
    return 0
