"""The public facade: one front door to the analysis pipeline.

* :mod:`repro.api.profiles` — the :class:`~repro.api.profiles
  .AnalysisProfile` registry behind every configuration name: config
  factory and detector factory per tier (the paper's configurations,
  the ``predictive`` tier and the §2.2 baselines register uniformly).
* :class:`Pipeline` — a profile (or hand-built config) bound to
  everything built from it: fresh detectors, live runs
  (:meth:`Pipeline.run`, the one live driver), offline replays, and
  incremental sessions.  Outside this package nothing builds a
  detector from a profile or calls its ``finalize``.
* :class:`Session` — one incremental analysis: feed events or encoded
  RPTR v1 bytes in any chunking, snapshot/restore the full mid-stream
  state, read the report at any time.  The streaming analysis service
  (:mod:`repro.service`) runs one of these per connected client; tests
  and tooling use the same object directly.

Everything here is re-exported from the package root::

    import repro
    report = repro.Pipeline("hwlc+dr").replay("trace.rptr")

Deprecation policy (see ``docs/API.md``): superseded entry points keep
working for one PR cycle behind a shim that emits a single
:class:`DeprecationWarning`, then are removed.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import NamedTuple

from repro.api import profiles
from repro.api.profiles import AnalysisProfile
from repro.detectors import HelgrindConfig, HelgrindDetector
from repro.detectors.report import Report
from repro.runtime import codec
from repro.runtime.events import EVENT_TYPES
from repro.runtime.trace import ReplayVM, build_handler_table, replay_trace
from repro.runtime.vm import STEP_LIMIT, VM

__all__ = [
    "AnalysisProfile",
    "LiveRun",
    "Pipeline",
    "Session",
    "profiles",
]

#: Pickle payload version for :meth:`Session.snapshot`.  Version 2:
#: call-stack frames are tuples and reports remember which suppression
#: entry decided each suppressed location.
SNAPSHOT_VERSION = 2

def _case_by_id(case_id: str):
    """Resolve a case id across the evaluation and predictive suites."""
    from repro.sip.workload import evaluation_cases, predictive_cases

    by_id = {c.case_id: c for c in evaluation_cases()}
    by_id.update({c.case_id: c for c in predictive_cases()})
    try:
        return by_id[case_id]
    except KeyError:
        known = ", ".join(sorted(by_id, key=lambda c: (len(c), c)))
        raise ValueError(
            f"unknown case {case_id!r}; known cases: {known}"
        ) from None


class LiveRun(NamedTuple):
    """:meth:`Pipeline.run`'s result: the guest ``main``'s return value,
    the finalized report, the events emitted and the wall-clock seconds
    of the run and its ``finalize``."""

    result: object
    report: Report
    events: int
    wall_seconds: float


class Pipeline:
    """An analysis profile plus factories for everything built on it.

    ``config`` is a profile *name* (validated against
    :mod:`repro.api.profiles`) or a ready :class:`HelgrindConfig`.  A
    hand-made config keeps its tier: when its ``name`` is a registered
    profile, detectors are built by that profile's detector factory
    around the given config (so
    ``Pipeline(profile("djit").config().with_(transition_cache=False))``
    still builds a ``DjitDetector``); any other name builds a
    :class:`HelgrindDetector`.  The pipeline itself is stateless and
    reusable — each :meth:`detector`, :meth:`session`, :meth:`run`,
    :meth:`run_case` or :meth:`replay` call builds fresh analysis state.
    """

    def __init__(
        self,
        config: str | HelgrindConfig = "hwlc+dr",
        *,
        suppressions=None,
    ) -> None:
        if isinstance(config, str):
            self.profile: AnalysisProfile | None = profiles.profile(config)
            self.config_name: str | None = config
            self.config = self.profile.config()
        else:
            self.profile = (
                profiles.profile(config.name)
                if config.name in profiles.profile_names() else None
            )
            self.config_name = None
            self.config = config
        self.suppressions = suppressions

    def __repr__(self) -> str:
        name = self.config_name or "<custom config>"
        return f"Pipeline({name!r})"

    def detector(self):
        """A fresh detector wired for this profile/configuration."""
        if self.profile is not None:
            return self.profile.detector(
                self.config, suppressions=self.suppressions
            )
        return HelgrindDetector(self.config, suppressions=self.suppressions)

    def session(self, *, extra_hooks: tuple = ()) -> "Session":
        """A fresh incremental :class:`Session` on this configuration."""
        return Session(self, extra_hooks=extra_hooks)

    def run(
        self,
        main,
        *args,
        scheduler=None,
        step_limit: int = STEP_LIMIT,
        extra_hooks: tuple = (),
        telemetry=None,
        label: str = "run",
        detector=None,
    ) -> LiveRun:
        """Run ``main(api, *args)`` on a fresh VM; the one live driver.

        It drives ``detector`` if one is handed in (and builds none),
        else this pipeline's own, on a VM whose hooks are
        ``(*extra_hooks, detector)``: a recorder in ``extra_hooks``
        sees exactly the stream the detector sees.  ``finalize`` runs
        after the guest and before ``telemetry`` is harvested, so the
        predictive tier's findings and counters are in both.
        """
        det = detector if detector is not None else self.detector()
        instrumented = telemetry is not None and telemetry.enabled
        vm = VM(
            detectors=(*extra_hooks, det), scheduler=scheduler,
            step_limit=step_limit, telemetry=telemetry if instrumented else None,
        )
        start = time.perf_counter()
        if instrumented:
            telemetry.attach(vm)
            with telemetry.phase(label):
                result = vm.run(main, *args)
            det.finalize()
            telemetry.record_run(vm, label=label)
        else:
            result = vm.run(main, *args)
            det.finalize()
        wall = time.perf_counter() - start
        return LiveRun(result, det.report, vm.stats.total_events, wall)

    def run_case(self, case, **kwargs):
        """Run one harness test case live under this configuration.

        ``case`` is a :class:`~repro.sip.workload.TestCase` or a case id
        (``"T1"``…``"T10"``); keyword arguments pass through to
        :func:`repro.experiments.harness.run_proxy_case` (``seed``,
        ``mode``, ``extra_hooks``, ``telemetry``, …).  Returns that
        function's :class:`~repro.experiments.harness.ExperimentRun`.
        """
        if self.config_name is None:
            raise ValueError(
                "run_case needs a named configuration (the harness labels "
                "its runs by name); construct the Pipeline with a "
                "configuration name"
            )
        # Deferred: the harness imports repro.api for the driver.
        from repro.experiments.harness import run_proxy_case

        if isinstance(case, str):
            case = _case_by_id(case)
        return run_proxy_case(case, self, **kwargs)

    def replay(
        self, path: str | Path, *, vm=None, stats: codec.ReplayStats | None = None
    ) -> Report:
        """Replay a recorded trace file offline and finalize; returns
        the report, byte-identical to the live run's.  ``stats`` gets
        the event total and block accounting (see
        :func:`repro.runtime.trace.replay_trace`).
        """
        detector = self.detector()
        replay_trace(path, detector, vm=vm, stats=stats)
        detector.finalize()
        return detector.report


class Session:
    """One incremental analysis: feed data in, read the report out.

    A session owns a :class:`~repro.runtime.trace.ReplayVM` (so report
    "Address ..." lines render identically to a live run), a fresh
    detector, and a :class:`~repro.runtime.codec.StreamDecoder`.  Input
    arrives either as encoded RPTR v1 bytes (:meth:`feed`, any chunk
    sizes — a record may straddle chunks) or as event objects
    (:meth:`feed_events`); both produce exactly the state an offline
    :func:`~repro.runtime.trace.replay_trace` of the same stream would.

    :meth:`snapshot` pickles the *entire* mid-stream state — shadow
    engine, lock-set tables, report, decoder interning tables, and any
    buffered partial record — and :meth:`restore` rebuilds a session
    from it, in the same process or another one.  A restored session
    continues byte-for-byte: resume the input stream from
    :attr:`bytes_fed` and the final report is identical to an
    uninterrupted run.  This is the service's checkpoint mechanism.
    """

    def __init__(
        self,
        config: str | HelgrindConfig | Pipeline = "hwlc+dr",
        *,
        suppressions=None,
        extra_hooks: tuple = (),
    ) -> None:
        if isinstance(config, Pipeline):
            pipeline = config
        else:
            pipeline = Pipeline(config, suppressions=suppressions)
        self.pipeline = pipeline
        self.vm = ReplayVM()
        self.detector = pipeline.detector()
        self._extra_hooks = tuple(extra_hooks)
        self._events_fed = 0
        self._decoder = codec.StreamDecoder()
        self._bind()

    # ------------------------------------------------------------------

    @property
    def _hooks(self) -> tuple:
        """Hook order matches ``replay_trace``: the ReplayVM first (so
        block tables exist before detectors render addresses), then any
        extra hooks, then the detector."""
        return (self.vm, *self._extra_hooks, self.detector)

    def _bind(self) -> None:
        """(Re)build the per-type handler table both ingest paths
        dispatch through (it is not pickled: a composite detector
        resolves some types to fan-out closures)."""
        table = build_handler_table(self._hooks)
        self._decoder.bind(table, self.vm)
        self._routes = dict(zip(EVENT_TYPES, table))

    # -- ingestion -----------------------------------------------------

    def feed(self, data: bytes) -> int:
        """Feed encoded RPTR v1 bytes (any chunking); returns the number
        of events decoded and dispatched by this call."""
        return self._decoder.feed(data)

    def feed_events(self, events) -> int:
        """Feed event objects directly (the in-memory ingest path)."""
        count = 0
        vm = self.vm
        routes = self._routes
        for event in events:
            count += 1
            for fn in routes[type(event)]:
                fn(event, vm)
        self._events_fed += count
        return count

    # -- results -------------------------------------------------------

    def finalize(self) -> None:
        """Run the detector's end-of-stream pass (idempotent).

        Legacy tiers are complete after the last event and this is a
        no-op; the predictive tier emits its predicted findings here.
        Call it once the input stream is known to be finished — the
        service does at FINISH time.
        """
        self.detector.finalize()

    @property
    def report(self) -> Report:
        """The detector's live report (readable at any time)."""
        return self.detector.report

    def report_text(self) -> str:
        """The report rendered exactly as :meth:`Report.save` writes it
        — byte-identical to ``repro trace replay --report-out``."""
        return self.report.render()

    @property
    def events_seen(self) -> int:
        """Events analysed so far (decoded bytes + direct events)."""
        return self._decoder.events_decoded + self._events_fed

    @property
    def bytes_fed(self) -> int:
        """Encoded bytes accepted so far — the resume offset: after a
        :meth:`restore`, continue the input stream from here."""
        return self._decoder.bytes_fed

    @property
    def bytes_consumed(self) -> int:
        """Encoded bytes of fully-decoded records."""
        return self._decoder.bytes_consumed

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of a trailing partial record."""
        return self._decoder.pending_bytes

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> bytes:
        """Pickle the full mid-stream state (config, detector, shadow
        engine, ReplayVM block table, decoder tables and buffer)."""
        payload = {
            "version": SNAPSHOT_VERSION,
            "config_name": self.pipeline.config_name,
            "config": None if self.pipeline.config_name else self.pipeline.config,
            "suppressions": self.pipeline.suppressions,
            "detector": self.detector,
            "vm": self.vm,
            "decoder": self._decoder,
            "events_fed": self._events_fed,
        }
        return pickle.dumps(payload)

    @classmethod
    def restore(cls, blob: bytes, *, extra_hooks: tuple = ()) -> "Session":
        """Rebuild a session from a :meth:`snapshot`.

        ``extra_hooks`` are re-attached by the caller (hooks are not
        checkpointed — a recorder's open file handle cannot travel).
        A blob that does not unpickle — truncated, or written by an
        older layout — raises ``ValueError``, as a wrong version does.
        """
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise ValueError(
                f"unsupported session snapshot: {type(exc).__name__}: {exc}"
            ) from exc
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported session snapshot version {version!r}")
        session = cls.__new__(cls)
        config = payload["config_name"] or payload["config"]
        session.pipeline = Pipeline(
            config, suppressions=payload.get("suppressions")
        )
        session.vm = payload["vm"]
        session.detector = payload["detector"]
        session._extra_hooks = tuple(extra_hooks)
        session._events_fed = payload["events_fed"]
        session._decoder = payload["decoder"]
        session._bind()
        return session
