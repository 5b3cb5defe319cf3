"""A repeated finding is counted, never rebuilt — and nothing else moves.

:class:`~repro.detectors.report.Report` decides each warning location
once; later occurrences are :meth:`Report.repeat`, which only counts
them, and :meth:`HelgrindDetector._report_race` builds no warning for
them.  The executable specification is :class:`ReferenceReport`: a copy
of the add rule that held before the probe existed (match every
occurrence against the suppressions, count it, deduplicate), installed
as ``det.report`` on a twin detector, so the twin builds and adds every
occurrence.  The properties:

* **every case, every path** — T1–T3 under the three paper configs and
  T9/T10 under ``predictive``, run live, replayed through the bulk pump,
  replayed per event (``transition_cache=False``) and fed to a
  ``Session`` in 4 KiB chunks: ``render()`` and ``to_json()`` equal the
  twin's on the same path;
* **suppressions** — with a generated suppression file covering part of
  T1's locations, ``suppressed_count``, every entry's ``hits`` and
  ``render()`` are equal;
* **access history** — the "Conflicts with" line of the first
  occurrence is what the report keeps;
* **random occurrence streams** — probe-then-add, and ``add`` alone,
  equal the reference after every occurrence.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.api.profiles import profile
from repro.detectors.report import Report, Warning_, WarningKind
from repro.detectors.suppress_gen import generate_suppressions
from repro.detectors.suppressions import SuppressionEntry, Suppressions
from repro.experiments.harness import run_proxy_case
from repro.runtime.events import Frame
from repro.runtime.trace import TraceRecorder, replay_trace
from repro.sip.workload import evaluation_cases, predictive_cases


class ReferenceReport(Report):
    """The add rule before repeats were decided once: every occurrence
    is matched against the suppressions, counted and deduplicated."""

    def repeat(self, kind, stack, addr) -> bool:
        return False  # decide nothing: the caller builds every warning

    def add(self, warning: Warning_) -> bool:
        if self.suppressions is not None and self.suppressions.matches(warning):
            self.suppressed_count += 1
            return False
        key = warning.location_key
        self.occurrences[key] = self.occurrences.get(key, 0) + 1
        if key in self._by_location:
            return False
        self._by_location[key] = warning
        self.warnings.append(warning)
        return True


CELLS = [
    *((case, config) for case in ("T1", "T2", "T3")
      for config in ("original", "hwlc", "hwlc+dr")),
    ("T9", "predictive"),
    ("T10", "predictive"),
]
PATHS = ("live", "replay-bulk", "replay-per-event", "session-4k")


def _case(case_id: str):
    by_id = {c.case_id: c for c in (*evaluation_cases(), *predictive_cases())}
    return by_id[case_id]


def _suppressions(text: str | None) -> Suppressions | None:
    return None if text is None else Suppressions.parse(text)


def _detector(config: str, supp: str | None, twin: bool, **changes):
    prof = profile(config)
    det = prof.detector(
        dataclasses.replace(prof.config(), **changes),
        suppressions=_suppressions(supp),
    )
    if twin:
        det.report = ReferenceReport(_suppressions(supp))
    return det


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Every cell recorded live: ``{(case, config): trace path}``."""
    root = tmp_path_factory.mktemp("repeat-traces")
    out = {}
    for case_id, config in CELLS:
        path = root / f"{case_id}-{config.replace('+', '_')}.rptr"
        with TraceRecorder(path, format="binary") as recorder:
            run_proxy_case(_case(case_id), config, seed=42,
                           extra_hooks=(recorder,))
        out[(case_id, config)] = path
    return out


def _run(path: str, cell, recorded, supp: str | None = None, **changes):
    """``(probe report, reference report)`` of one cell on one path."""
    case_id, config = cell
    if path == "live":
        probe = _detector(config, supp, False, **changes)
        twin = _detector(config, supp, True, **changes)
        run_proxy_case(_case(case_id), config, seed=42, detector=probe,
                       extra_hooks=(twin,))
        twin.finalize()
        return probe.report, twin.report
    reports = []
    for twin in (False, True):
        if path == "session-4k":
            session = Session(
                dataclasses.replace(profile(config).config(), **changes)
                if changes else config,
                suppressions=_suppressions(supp),
            )
            if twin:
                session.detector.report = ReferenceReport(_suppressions(supp))
            data = recorded[cell].read_bytes()
            for pos in range(0, len(data), 4096):
                session.feed(data[pos:pos + 4096])
            session.finalize()
            reports.append(session.report)
        else:
            cache = path == "replay-bulk"
            det = _detector(config, supp, twin, transition_cache=cache, **changes)
            if cache and config != "predictive" and not changes:
                assert det.bulk_access_ready()
            replay_trace(recorded[cell], det)
            det.finalize()
            reports.append(det.report)
    return tuple(reports)


def _assert_same(probe: Report, reference: Report) -> None:
    assert probe.render() == reference.render()
    assert probe.to_json() == reference.to_json()
    assert probe.suppressed_count == reference.suppressed_count


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(c))
def test_every_case_and_path_matches_the_reference(recorded, cell, path):
    probe, reference = _run(path, cell, recorded)
    _assert_same(probe, reference)


def test_the_cases_repeat_findings(recorded):
    """The equivalence above is not vacuous: T1 reports most of its
    races many times over."""
    probe, _ = _run("replay-bulk", ("T1", "hwlc+dr"), recorded)
    assert probe.dynamic_count > 2 * probe.location_count > 0


@pytest.fixture(scope="module")
def t1_suppressions() -> str:
    """Generated from T1 under ``original``: every false positive and
    benign location suppressed, the true races left."""
    run = run_proxy_case(_case("T1"), "original", seed=42)
    return generate_suppressions(run.classified)


@pytest.mark.parametrize("path", PATHS)
def test_suppressed_repeats_count_like_the_reference(
    recorded, t1_suppressions, path
):
    cell = ("T1", "original")
    probe, reference = _run(path, cell, recorded, supp=t1_suppressions)
    _assert_same(probe, reference)
    hits = [e.hits for e in probe.suppressions.entries]
    assert hits == [e.hits for e in reference.suppressions.entries]
    assert sum(hits) == probe.suppressed_count
    # Part of T1 is suppressed, and suppressed locations recur.
    assert 0 < probe.location_count
    assert probe.suppressed_count > sum(1 for h in hits if h)


@pytest.mark.parametrize("path", PATHS)
def test_access_history_keeps_the_first_conflict(recorded, path):
    probe, reference = _run(
        path, ("T1", "original"), recorded, access_history=True
    )
    _assert_same(probe, reference)
    assert "Conflicts with" in probe.render()


# ----------------------------------------------------------------------
# Random occurrence streams
# ----------------------------------------------------------------------

_GRAB = Frame("_M_grab", "string.cc", 12)
_WORKER = Frame("worker", "server.cc", 40)
_MAIN = Frame("main", "server.cc", 9)
_STACKS = [(), (_GRAB,), (_GRAB, _MAIN), (_WORKER, _MAIN), (_WORKER,)]
_KINDS = [WarningKind.DATA_RACE, WarningKind.LOCK_ORDER, WarningKind.DEADLOCK]
_ENTRIES = [
    ("any-race", WarningKind.DATA_RACE, []),
    ("grab", WarningKind.DATA_RACE, [("fun", "_M_grab")]),
    ("from-main", WarningKind.DATA_RACE, [("ellipsis", ""), ("fun", "main")]),
    ("server-file", WarningKind.LOCK_ORDER, [("file", "server.cc")]),
    ("any-deadlock", WarningKind.DEADLOCK, [("fun", "*")]),
]

_OCCURRENCE = st.tuples(
    st.sampled_from(_KINDS), st.sampled_from(_STACKS), st.integers(0, 3)
)


def _entries(names: list[str]) -> Suppressions | None:
    if not names:
        return None
    return Suppressions([
        SuppressionEntry(name, kind, list(patterns))
        for name, kind, patterns in _ENTRIES if name in names
    ])


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(_OCCURRENCE, max_size=40),
    names=st.lists(
        st.sampled_from([name for name, _, _ in _ENTRIES]), unique=True,
        max_size=3,
    ),
)
def test_probe_then_add_equals_reference_add(stream, names):
    probe = Report(_entries(names))
    plain = Report(_entries(names))  # add alone, as the other detectors use it
    reference = ReferenceReport(_entries(names))
    for i, (kind, stack, addr) in enumerate(stream):

        def warning() -> Warning_:
            return Warning_(kind, f"occurrence {i}", i % 3, i, stack, addr,
                            {"Index": i})

        added = False if probe.repeat(kind, stack, addr) else probe.add(warning())
        assert added == reference.add(warning())
        plain.add(warning())
        for report in (probe, plain):
            assert report.render() == reference.render()
            assert report.to_json() == reference.to_json()
            if names:
                assert [e.hits for e in report.suppressions.entries] == [
                    e.hits for e in reference.suppressions.entries
                ]
