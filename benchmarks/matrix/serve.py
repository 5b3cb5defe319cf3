"""The ``serve_open`` workload: sessions streamed to ``repro serve``.

The server runs as its own process tree (``python -m repro serve
--workers 2``: an acceptor plus two worker processes), on the same
one CPU as the generator (see ``measure.pin``).  One generator thread
drives it through one connection at a time, in four phases that split
the window:

* a closed-loop saturation phase (sessions back to back), which
  gives the capacity of one connection;
* three open-loop phases at fixed offered rates with seeded Poisson
  arrivals.  A session is timed from its *scheduled* send time to its
  REPORT, so a stall also counts against the sessions queued behind
  it.  The lowest rate, which gets half the window, gives
  ``latency_mean_ms``; the highest rate whose p90 stays within
  ``P90_LIMIT_MS`` with no failure and no growing backlog is
  ``service.sustainable_rate``.

``events_per_s`` is the throughput at each trace's mean session time
from send to REPORT, over the sessions of every phase: one connection
means the server never serves two sessions at once.

Each session streams one of the T1–T10 traces recorded in the prepare
step, in 4 KiB DATA frames, and byte-compares the REPORT with the
offline replay of the same trace.  Every trace is sent equally often,
in an order the seed shuffles.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from inprocess import ROOT, Items, Run, scheduler_seed
from measure import HostSpeed, Spans, latency_note, now_ns, percentile, share

WORKERS = 2
CHUNK_BYTES = 4096
#: (name, offered sessions/s or None for closed loop, share of the
#: window).  The rates straddle the capacity of one CPU, about 30-50
#: sessions/s.  Latency is reported at the lowest rate, which keeps the
#: connection busy less than a fifth of the time: nearer capacity,
#: queueing amplifies every slow spell of a shared host.
LATENCY_RATE = 5
PHASES = (
    ("saturation", None, 0.3),
    ("rate 5/s", 5, 0.5),
    ("rate 20/s", 20, 0.1),
    ("rate 40/s", 40, 0.1),
)
P90_LIMIT_MS = 100.0
#: A phase whose generator ever had more sessions due but unsent than
#: this is not keeping up with its offered rate.
BACKLOG_LIMIT = 4
#: An open-loop phase times a calibration burst only while the next
#: session is at least this far off, so a burst never delays a send.
BURST_SLACK_S = 0.1
SOCKET = "serve.sock"
CLIENT_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Trace:
    def __init__(self, entry: dict, workdir: Path) -> None:
        self.label = entry["label"]
        self.config = entry["config"]
        self.events = entry["events"]
        self.data = (workdir / entry["trace"]).read_bytes()
        self.reference = (workdir / entry["reference"]).read_bytes()
        self.findings = entry["findings"]


class Outcome:
    __slots__ = (
        "phase", "trace", "due", "start", "end", "ok", "error", "traced",
        "hello_ns", "stream_ns", "finish_ns", "waits", "wait_ns", "backlog",
    )

    def __init__(self, phase: str, trace: Trace, due: float) -> None:
        self.phase = phase
        self.trace = trace
        self.due = due
        self.start = self.end = 0.0
        self.ok = False
        self.error = ""
        self.traced = False
        self.hello_ns = self.stream_ns = self.finish_ns = 0
        self.waits = self.wait_ns = self.backlog = 0

    @property
    def latency(self) -> float:
        return self.end - self.due


def _proc_tree(root: int) -> list[int]:
    """``root`` and its direct children (the acceptor and its workers)."""
    pids = [root]
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == root:
            pids.append(int(name))
    return pids


def _cpu_seconds(pids: list[int]) -> float:
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _peak_rss_mib(pids: list[int]) -> float:
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def _family_values(snapshot: dict, family: str) -> list[float]:
    metric = snapshot.get("metrics", {}).get(family)
    return [s["value"] for s in metric["samples"]] if metric else []


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ServeOpen:
    name = "serve_open"

    def prepare(self, workdir: Path, seed: int) -> dict:
        import json

        from repro.api import Pipeline
        from repro.experiments.harness import run_proxy_case
        from repro.runtime.trace import TraceRecorder
        from repro.sip.workload import evaluation_cases, predictive_cases

        cases = [(c, "hwlc+dr") for c in evaluation_cases(seed=seed)]
        cases += [(c, "predictive") for c in predictive_cases(seed=seed)]
        entries = []
        for case, config in cases:
            trace = workdir / f"{case.case_id}.rptr"
            with TraceRecorder(trace, format="binary") as recorder:
                run_proxy_case(
                    case, config, seed=scheduler_seed(seed),
                    extra_hooks=(recorder,),
                )
            reference = Pipeline(config).replay(trace).render()
            (workdir / f"{case.case_id}.report").write_text(
                reference, encoding="utf-8"
            )
            entries.append({
                "label": case.case_id,
                "config": config,
                "trace": trace.name,
                "reference": f"{case.case_id}.report",
                "events": len(recorder),
                "findings": len(json.loads(reference)["warnings"]),
            })
        return {"traces": entries}

    def setup(self, workdir: Path, manifest: dict, seed: int):
        from repro.service import AnalysisClient

        self.client_class = AnalysisClient
        self.seed = seed
        self.traces = [Trace(entry, workdir) for entry in manifest["traces"]]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
        self.log = open(workdir / "serve.log", "ab")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", SOCKET,
             "--workers", str(WORKERS)],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=self.log,
        )
        self.tree = [self.server.pid]
        try:
            self._await_listening()
            self._warm()
        except BaseException:
            self.teardown()
            raise
        self.tree = _proc_tree(self.server.pid)
        return self

    def _await_listening(self) -> None:
        # Connect rather than test for the socket file: the file exists
        # between bind() and listen().
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.server.returncode}"
                )
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(SOCKET)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not start listening")
                time.sleep(0.01)
            finally:
                probe.close()

    def _stats(self) -> dict:
        with self.client_class(
            socket_path=SOCKET, timeout=CLIENT_TIMEOUT_S
        ) as client:
            return client.stats(per_worker=True)

    def _warm(self) -> None:
        """Serve sessions until every worker process has served one."""
        warm = min(self.traces, key=lambda t: len(t.data))
        for _ in range(8 * WORKERS):
            outcome = Outcome("warm-up", warm, time.perf_counter())
            self._session(outcome, None, 0)
            if not outcome.ok:
                raise RuntimeError(f"warm-up session failed: {outcome.error}")
            workers = self._stats()["workers"]
            if len(workers) == WORKERS and all(
                sum(_family_values(snap, "repro_service_reports_total")) >= 1
                for snap in workers.values()
            ):
                return
        raise RuntimeError("warm-up never reached every worker")

    def teardown(self) -> None:
        tree = _proc_tree(self.server.pid) if self.server.poll() is None else []
        if self.server.poll() is None:
            # TERM drains the acceptor, which stops its workers.
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in tree[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.log.close()

    # -- sessions ------------------------------------------------------

    def _session(self, outcome: Outcome, spans: Spans | None, item: int) -> None:
        """Stream ``outcome.trace`` as one session and check its REPORT."""
        trace = outcome.trace
        outcome.start = time.perf_counter()
        index = spans.open(f"session {trace.label}", "item", item) if spans else -1
        try:
            with self.client_class(
                socket_path=SOCKET, chunk_bytes=CHUNK_BYTES,
                timeout=CLIENT_TIMEOUT_S,
            ) as client:
                t0 = now_ns()
                client.hello(trace.config)
                t1 = now_ns()
                data = trace.data
                for offset in range(0, len(data), CHUNK_BYTES):
                    blocked = client.credits <= 0
                    s0 = now_ns()
                    client.send(data[offset:offset + CHUNK_BYTES])
                    s1 = now_ns()
                    if blocked:
                        outcome.waits += 1
                        outcome.wait_ns += s1 - s0
                    if spans:
                        spans.leaf(
                            "DATA after credit wait" if blocked else "DATA",
                            "service", s0, s1,
                        )
                t2 = now_ns()
                report = client.finish()
                t3 = now_ns()
            if spans:
                spans.leaf("HELLO/WELCOME", "service", t0, t1)
                spans.leaf("FINISH/REPORT", "service", t2, t3)
            outcome.hello_ns, outcome.stream_ns, outcome.finish_ns = (
                t1 - t0, t2 - t1, t3 - t2
            )
            outcome.ok = report == trace.reference
            if not outcome.ok:
                outcome.error = "report differs from the offline replay"
        except Exception as exc:  # a failed session is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        finally:
            outcome.end = time.perf_counter()
            if spans:
                spans.close(index)

    def _drive(self, phase: str, rate, duration: float, rng: random.Random,
               traced: bool, spans: Spans, counter, speed: HostSpeed) -> list:
        """Run one phase on the generator's connection; returns its outcomes."""
        # Every trace equally often, in seeded order: the seed varies the
        # arrivals and the order, not the mix of session sizes.
        picks = []
        while len(picks) < 1 << 14:
            block = list(range(len(self.traces)))
            rng.shuffle(block)
            picks += block
        due: list[float] = []
        if rate is not None:
            t = rng.expovariate(rate)
            while t < duration:
                due.append(t)
                t += rng.expovariate(rate)
        outcomes: list[Outcome] = []
        start = time.perf_counter()
        deadline = start + duration
        for i, pick in enumerate(picks):
            trace = self.traces[pick]
            if rate is None:
                if time.perf_counter() >= deadline:
                    break
                speed.tick()
                outcome = Outcome(phase, trace, time.perf_counter())
            else:
                if i >= len(due):
                    break
                target = start + due[i]
                if target - time.perf_counter() > BURST_SLACK_S:
                    speed.tick()
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcome = Outcome(phase, trace, target)
                late = bisect.bisect_right(due, time.perf_counter() - start)
                outcome.backlog = max(0, late - (i + 1))
            item = next(counter)
            outcome.traced = traced and item % 2 == 0
            self._session(outcome, spans if outcome.traced else None, item)
            outcomes.append(outcome)
        return outcomes

    # -- measurement ---------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> Run:
        run = Run()
        spans = Spans()
        if traced:
            run.spans.append(spans)
        rng = random.Random(self.seed)
        counter = itertools.count(1)
        speed = HostSpeed()
        phases = {}
        cpu = 0.0
        for name, rate, part in PHASES:
            phase_start = time.perf_counter()
            cpu0 = _cpu_seconds(self.tree)
            outcomes = self._drive(
                name, rate, part * seconds, rng, traced, spans, counter, speed
            )
            cpu += _cpu_seconds(self.tree) - cpu0
            phases[name] = (rate, outcomes, time.perf_counter() - phase_start)
        stats = self._stats()
        rss = _peak_rss_mib(self.tree)

        everything = [o for _, outcomes, _ in phases.values() for o in outcomes]
        for o in everything:
            run.attempted += 1
            if not o.ok:
                run.failures.append(f"{o.phase} session {o.trace.label}: {o.error}")
        good = [o for o in everything if o.ok]

        _, saturation, saturation_wall = phases["saturation"]
        sat_good = [o for o in saturation if o.ok]
        light = [o for o in phases[f"rate {LATENCY_RATE}/s"][1] if o.ok]
        if not sat_good or not light:
            raise RuntimeError("no served session succeeded: " + "; ".join(
                run.failures[:5]
            ))
        sustainable = 0
        for name, (rate, outcomes, _) in phases.items():
            if rate is None:
                run.notes.append(
                    f"{name}: {len(outcomes)} sessions in {saturation_wall:.2f} s "
                    f"({share(len(outcomes), saturation_wall):.1f} sessions/s)"
                )
                continue
            ok = [o for o in outcomes if o.ok]
            p90 = percentile([o.latency for o in ok], 90) * 1e3 if ok else float("inf")
            backlog = max((o.backlog for o in outcomes), default=0)
            keeps_up = (
                len(ok) == len(outcomes) and p90 <= P90_LIMIT_MS
                and backlog <= BACKLOG_LIMIT
            )
            if keeps_up:
                sustainable = max(sustainable, rate)
            lag = percentile([o.start - o.due for o in outcomes], 90) * 1e3 if outcomes else 0.0
            run.notes.append(
                f"{name}: {len(outcomes)} sessions, p50 "
                f"{percentile([o.latency for o in ok], 50) * 1e3 if ok else 0:.1f} ms, "
                f"p90 {p90:.1f} ms, generator lag p90 {lag:.1f} ms, backlog max "
                f"{backlog}{'' if keeps_up else ' (not sustained)'}"
            )

        if traced:
            self._per_layer(run, everything, sat_good, light, stats, sustainable)
        else:
            # Per-trace means, as in inprocess.Items.  With one
            # connection the server serves one session at a time, so
            # every session's time from its send to its REPORT is
            # service time, whatever its phase: throughput uses them all.
            served, loaded = Items(), Items()
            for o in good:
                served.add(o.trace.label, o.end - o.start, o.trace.events)
            for o in light:
                loaded.add(o.trace.label, o.latency, o.trace.events)
            events_per_s = served.events_per_s
            latency_ms = loaded.latency_mean * 1e3
            cpu_us = share(cpu, sum(o.trace.events for o in good)) * 1e6
            factor = speed.factor
            run.metrics.update({
                "events_per_s": events_per_s / factor,
                "latency_mean_ms": latency_ms * factor,
                "peak_rss_mb": rss,
                "cpu_us_per_event": cpu_us * factor,
                "trace_bytes_per_event": share(
                    sum(len(o.trace.data) for o in good),
                    sum(o.trace.events for o in good),
                ),
            })
            run.samples["latency_mean_ms"] = len(light)
            run.notes.append(speed.note())
            run.notes.append(
                f"as measured: {events_per_s:.1f} events/s, latency mean "
                f"{latency_ms:.1f} ms at {LATENCY_RATE} sessions/s, "
                f"{cpu_us:.3f} us CPU per event"
            )
            run.notes.append(latency_note([o.latency for o in light]))
        return run

    def _per_layer(self, run: Run, everything, saturation, light, stats,
                   sustainable: int) -> None:
        traced = [o for o in everything if o.ok and o.traced]
        session_ns = sum(o.end - o.start for o in traced) * 1e9
        workers = stats["workers"].values()
        worker_events = [
            sum(_family_values(snap, "repro_service_events_total"))
            for snap in workers
        ]
        sessions = sum(
            sum(_family_values(snap, "repro_service_sessions_total"))
            for snap in workers
        )
        findings = {o.trace.label: o.trace.findings for o in everything if o.ok}
        run.metrics.update({
            "service.hello_share": share(sum(o.hello_ns for o in traced), session_ns),
            "service.stream_share": share(
                sum(o.stream_ns for o in traced), session_ns
            ),
            "service.finish_share": share(
                sum(o.finish_ns for o in traced), session_ns
            ),
            "service.credit_waits_per_session": share(
                sum(o.waits for o in traced), len(traced)
            ),
            "service.credit_wait_share": share(
                sum(o.wait_ns for o in traced), session_ns
            ),
            "service.backpressure_stalls_per_session": share(sum(
                sum(_family_values(snap, "repro_service_backpressure_stalls_total"))
                for snap in workers
            ), sessions),
            "service.queue_high_water": max(
                max(_family_values(snap, "repro_service_queue_high_water"), default=0)
                for snap in workers
            ),
            "service.worker_event_share_max": share(
                max(worker_events), sum(worker_events)
            ),
            "service.analysis_errors": sum(
                sum(_family_values(snap, "repro_service_analysis_errors_total"))
                for snap in workers
            ),
            "service.worker_restarts": sum(_family_values(
                stats["merged"], "repro_service_worker_restarts_total"
            )),
            "service.sustainable_rate": sustainable,
            "detectors.findings": sum(findings.values()),
            "loadgen.lag_p90_ms": percentile(
                [o.start - o.due for o in light], 90
            ) * 1e3,
            "loadgen.backlog_max": max(o.backlog for o in light),
        })

        def rate(outcomes) -> float:
            return share(
                sum(o.trace.events for o in outcomes),
                sum(o.end - o.start for o in outcomes),
            )

        plain = [o for o in saturation if not o.traced]
        spanned = [o for o in saturation if o.traced]
        run.notes.append(
            f"tracing overhead: {rate(plain):.1f} events/s "
            f"untraced, {rate(spanned):.1f} traced "
            f"({share(rate(plain), rate(spanned)) - 1:+.1%} time per event, "
            f"{len(plain)}/{len(spanned)} saturation sessions)"
        )


WORKLOADS = {"serve_open": ServeOpen()}
