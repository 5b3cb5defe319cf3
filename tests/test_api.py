"""The ``repro.api`` facade: profiles, pipelines, incremental sessions.

These are the contracts other layers (the service, the CLI, external
callers) build on:

* ``repro.api.profiles`` is the registry every configuration name
  routes through — look-ups validate, enumeration is sorted, and the
  ``predictive`` tier builds a different detector class;
* the structured ``Report`` renders the canonical byte-identity text
  and a schema-valid machine twin;
* a ``Session`` fed a recorded trace — in one gulp or arbitrary
  chunks — renders a report byte-identical to ``replay_trace``;
* ``snapshot``/``restore`` round-trips the complete mid-stream state:
  resuming at ``bytes_fed`` finishes with an identical report;
* everything is re-exported from the package root.
"""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.api import Pipeline, Session
from repro.api.profiles import (
    AnalysisProfile,
    profile,
    profile_names,
    profiles,
)
from repro.detectors import HelgrindConfig, HelgrindDetector
from repro.runtime.trace import replay_trace

ALL_PROFILES = (
    "atomizer", "djit", "eraser-states", "extended", "hwlc", "hwlc+dr",
    "hybrid", "original", "predictive", "racetrack", "raw-eraser",
)


@pytest.fixture(scope="module")
def t1_trace(tmp_path_factory):
    """T1 recorded once under hwlc+dr: (path, live report dict)."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import evaluation_cases

    case = next(c for c in evaluation_cases() if c.case_id == "T1")
    path = tmp_path_factory.mktemp("api") / "T1.rptr"
    det = profile("hwlc+dr").detector()
    with TraceRecorder(path, format="binary") as recorder:
        run_proxy_case(case, "hwlc+dr", seed=42, detector=det,
                       extra_hooks=(recorder,))
    return path, det.report.to_dict()


def _offline_text(path, config: str) -> str:
    det = profile(config).detector()
    replay_trace(path, det)
    det.finalize()
    return json.dumps(det.report.to_dict(), indent=2)


def _tiny_race(api):
    """Two unlocked increments of one word; returns its final value."""
    addr = api.malloc(1)
    api.store(addr, 0)

    def bump(a):
        a.store(addr, a.load(addr) + 1)

    threads = [api.spawn(bump), api.spawn(bump)]
    for t in threads:
        api.join(t)
    return api.load(addr)


class TestProfiles:
    def test_known_names(self):
        assert profile_names() == ALL_PROFILES
        for name in profile_names():
            prof = profile(name)
            assert isinstance(prof, AnalysisProfile)
            assert isinstance(prof.config(), HelgrindConfig)

    def test_profiles_sorted_and_complete(self):
        assert tuple(p.name for p in profiles()) == ALL_PROFILES
        assert all(p.description for p in profiles())

    def test_predictive_builds_its_own_detector_class(self):
        from repro.detectors.predict import PredictiveDetector

        det = profile("predictive").detector()
        assert isinstance(det, PredictiveDetector)
        legacy = profile("hwlc+dr").detector()
        assert isinstance(legacy, HelgrindDetector)
        assert not isinstance(legacy, PredictiveDetector)

    @pytest.mark.parametrize("name", ALL_PROFILES)
    def test_detector_report_honours_suppressions(self, name):
        from repro.detectors.suppressions import Suppressions

        sup = Suppressions([])
        det = profile(name).detector(suppressions=sup)
        assert det.report.suppressions is sup

    def test_names_map_to_distinct_feature_sets(self):
        original = profile("original").config()
        hwlc_dr = profile("hwlc+dr").config()
        assert original != hwlc_dr or original is not hwlc_dr

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ValueError) as exc:
            profile("helgrind++")
        message = str(exc.value)
        assert "helgrind++" in message
        for name in profile_names():
            assert name in message

    def test_fresh_config_per_call(self):
        prof = profile("hwlc")
        assert prof.config() is not prof.config()

    def test_detector_honours_config_override(self):
        import dataclasses

        prof = profile("hwlc+dr")
        cfg = dataclasses.replace(prof.config(), transition_cache=False)
        det = prof.detector(cfg)
        assert det.config is cfg


class TestReport:
    def test_render_is_the_byte_identity_contract(self, t1_trace):
        path, live = t1_trace
        det = profile("hwlc+dr").detector()
        replay_trace(path, det)
        assert det.report.render() == json.dumps(live, indent=2)

    def test_findings_vocabulary(self, t1_trace):
        path, _ = t1_trace
        det = profile("hwlc+dr").detector()
        replay_trace(path, det)
        findings = det.report.findings()
        assert findings, "T1 must report at least one location"
        for finding in findings:
            assert finding.kind in (
                "race", "deadlock", "predicted_race", "predicted_deadlock",
            )
            assert finding.predicted == finding.kind.startswith("predicted_")
        assert det.report.predicted_findings() == [
            f for f in findings if f.predicted
        ]

    def test_to_json_schema_valid(self, t1_trace):
        from repro.detectors.report import (
            REPORT_SCHEMA_VERSION,
            validate_report_json,
        )

        path, _ = t1_trace
        det = profile("hwlc+dr").detector()
        replay_trace(path, det)
        doc = det.report.to_json()
        assert doc["version"] == REPORT_SCHEMA_VERSION
        assert validate_report_json(doc) == []
        # A mangled document reports problems instead of passing.
        broken = dict(doc, findings=[{"kind": "nonsense"}])
        assert validate_report_json(broken)

    def test_from_dict_round_trip(self, t1_trace):
        from repro.detectors.report import Report

        path, live = t1_trace
        report = Report.from_dict(live)
        assert report.render() == json.dumps(live, indent=2)


class TestPipeline:
    def test_detector_factory(self):
        pipeline = Pipeline("original")
        det = pipeline.detector()
        assert isinstance(det, HelgrindDetector)
        assert det is not pipeline.detector()

    def test_accepts_ready_config(self):
        pipeline = Pipeline(HelgrindConfig.hwlc_dr())
        assert pipeline.config_name is None
        assert isinstance(pipeline.detector(), HelgrindDetector)

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Pipeline("nope")

    def test_replay_matches_replay_trace(self, t1_trace):
        path, _live = t1_trace
        report = Pipeline("hwlc+dr").replay(path)
        assert json.dumps(report.to_dict(), indent=2) == _offline_text(
            path, "hwlc+dr"
        )

    def test_extra_hooks_see_every_event_before_the_detector(self, tmp_path):
        """A recorder ahead of the detector records a trace that
        replays to the live report, byte for byte."""
        from repro.experiments.studies import _mixed_discipline_program
        from repro.runtime import RandomScheduler
        from repro.runtime.trace import TraceRecorder

        path = tmp_path / "mixed.rptr"
        with TraceRecorder(path) as recorder:
            run = Pipeline("hwlc").run(
                _mixed_discipline_program,
                scheduler=RandomScheduler(7),
                extra_hooks=(recorder,),
            )
        assert run.report.location_count > 0
        assert run.events == len(recorder)
        assert Pipeline("hwlc").replay(path).render() == run.report.render()

    def test_handed_in_detector_is_the_one_driven(self, monkeypatch):
        """With ``detector=`` the pipeline drives and finalizes that
        detector and builds none of its own."""
        from repro.api import _case_by_id
        from repro.experiments.harness import run_proxy_case

        class Probe(HelgrindDetector):
            finalized = 0

            def finalize(self):
                self.finalized += 1
                super().finalize()

        def no_build(self):
            raise AssertionError("a second detector was built")

        probe = Probe(profile("hwlc+dr").config())
        monkeypatch.setattr(Pipeline, "detector", no_build)
        run = Pipeline("hwlc+dr").run(_tiny_race, detector=probe)
        assert run.report is probe.report
        assert probe.finalized == 1
        assert run.report.location_count > 0

        probe = Probe(profile("hwlc+dr").config())
        case_run = run_proxy_case(_case_by_id("T1"), "hwlc+dr", detector=probe)
        assert case_run.report is probe.report
        assert probe.finalized == 1

    def test_finalize_runs_before_the_telemetry_harvest(self):
        """T9's prediction is in the report and its counter in the
        snapshot: the end-of-stream pass precedes the harvest."""
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        run = Pipeline("predictive").run_case("T9", seed=42, telemetry=telemetry)
        assert run.location_count == 2
        assert len(run.report.predicted_findings()) == 1
        family = telemetry.snapshot()["metrics"]["repro_predict_predictions_total"]
        assert sum(s["value"] for s in family["samples"]) == 1

    def test_run_accepts_ready_config(self):
        from repro.experiments.studies import _mixed_discipline_program
        from repro.runtime import RandomScheduler

        custom = Pipeline(HelgrindConfig.hwlc()).run(
            _mixed_discipline_program, scheduler=RandomScheduler(7)
        )
        named = Pipeline("hwlc").run(
            _mixed_discipline_program, scheduler=RandomScheduler(7)
        )
        assert custom.events == named.events > 0
        assert custom.report.render() == named.report.render()

    def test_run_returns_the_guest_result(self):
        run = Pipeline("hwlc+dr").run(_tiny_race)
        assert run.result == 2  # round-robin: the two increments serialise
        assert run.events > 0 and run.wall_seconds >= 0

    def test_run_case_requires_named_config(self):
        with pytest.raises(ValueError):
            Pipeline(HelgrindConfig.hwlc_dr()).run_case("T1")

    def test_run_case_unknown_case(self):
        with pytest.raises(ValueError) as exc:
            Pipeline("hwlc+dr").run_case("T99")
        assert "T1" in str(exc.value)


class TestSession:
    def test_single_feed_matches_offline(self, t1_trace):
        path, live = t1_trace
        session = Session("hwlc+dr")
        session.feed(path.read_bytes())
        assert session.report_text() == _offline_text(path, "hwlc+dr")
        assert session.report.to_dict() == live

    def test_chunked_feed_matches_offline(self, t1_trace):
        path, _ = t1_trace
        data = path.read_bytes()
        session = Session("hwlc+dr")
        rng = random.Random(11)
        pos = 0
        while pos < len(data):
            n = rng.randint(1, 2048)
            session.feed(data[pos:pos + n])
            pos += n
        assert session.bytes_fed == len(data)
        assert session.pending_bytes == 0
        assert session.report_text() == _offline_text(path, "hwlc+dr")

    def test_other_configs_match_offline(self, t1_trace):
        path, _ = t1_trace
        for config in ("original", "hwlc"):
            session = Session(config)
            session.feed(path.read_bytes())
            assert session.report_text() == _offline_text(path, config)

    def test_predictive_session_finalizes(self, t1_trace):
        """The predictive profile streams like any other, with the
        predicted findings appended at finalize() — on T1 there are
        none, so the text stays byte-identical to hwlc+dr replay."""
        path, _ = t1_trace
        session = Session("predictive")
        session.feed(path.read_bytes())
        session.finalize()
        assert session.report_text() == _offline_text(path, "predictive")

    def test_snapshot_restore_mid_stream(self, t1_trace):
        path, _ = t1_trace
        data = path.read_bytes()
        session = Session("hwlc+dr")
        cut = len(data) // 2 + 5  # mid-record on purpose
        session.feed(data[:cut])
        blob = session.snapshot()

        resumed = Session.restore(blob)
        assert resumed.bytes_fed == session.bytes_fed
        assert resumed.events_seen == session.events_seen
        resumed.feed(data[resumed.bytes_fed:])
        assert resumed.report_text() == _offline_text(path, "hwlc+dr")

    def test_snapshot_restores_in_fresh_process(self, t1_trace, tmp_path):
        """A checkpoint must survive a *server restart*: lock-set ids
        index a process-global interning table, so a snapshot restored
        in another process — one whose table holds different sets at
        those ids — has to re-intern and remap.  (In-process restore
        can never catch this: the global table still has the ids.)"""
        import os
        import pathlib
        import subprocess
        import sys

        path, _ = t1_trace
        data = path.read_bytes()
        session = Session("hwlc+dr")
        session.feed(data[: len(data) // 2 + 5])
        blob_file = tmp_path / "snap.pkl"
        blob_file.write_bytes(session.snapshot())

        script = """
import sys
from repro.detectors.lockset import LOCKSETS
# Skew the fresh process's table so every restored id is wrong
# unless restore remaps: intern sets the snapshot never saw.
for i in (901, 902, 903):
    LOCKSETS.id_of(frozenset({i}))
from repro.api import Session
session = Session.restore(open(sys.argv[1], "rb").read())
data = open(sys.argv[2], "rb").read()
session.feed(data[session.bytes_fed:])
sys.stdout.write(session.report_text())
"""
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(blob_file), str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == _offline_text(path, "hwlc+dr")

    def test_restore_preserves_pipeline_suppressions(self, t1_trace):
        """Suppressions ride through snapshot/restore at the pipeline
        level too: detectors built *from the restored pipeline* must be
        suppressed, not just the pickled detector itself."""
        from repro.detectors.suppressions import SuppressionEntry, Suppressions

        path, _ = t1_trace
        sup = Suppressions([SuppressionEntry("ride-along", "no-such-kind")])
        session = Session("hwlc+dr", suppressions=sup)
        session.feed(path.read_bytes())

        restored = Session.restore(session.snapshot())
        restored_sup = restored.pipeline.suppressions
        assert restored_sup is not None
        assert [e.name for e in restored_sup.entries] == ["ride-along"]
        det = restored.pipeline.detector()
        assert det.report.suppressions is restored_sup

    def test_restore_rejects_unknown_version(self):
        import pickle

        blob = pickle.dumps({"version": 999})
        with pytest.raises(ValueError):
            Session.restore(blob)

    def test_restore_rejects_a_truncated_blob(self, t1_trace):
        path, _ = t1_trace
        session = Session("hwlc+dr")
        session.feed(path.read_bytes())
        blob = session.snapshot()
        with pytest.raises(ValueError, match="unsupported session snapshot"):
            Session.restore(blob[: len(blob) // 2])

    def test_restore_rejects_dataclass_frames(self):
        from tests.conftest import DATACLASS_FRAME_PICKLE

        with pytest.raises(ValueError, match="unsupported session snapshot"):
            Session.restore(DATACLASS_FRAME_PICKLE)

    def test_feed_events_matches_byte_feed(self, t1_trace):
        from repro.runtime.trace import load_trace

        path, _ = t1_trace
        events = list(load_trace(path))
        by_events = Session("hwlc+dr")
        by_events.feed_events(events)
        assert by_events.events_seen == len(events)
        assert by_events.report_text() == _offline_text(path, "hwlc+dr")

    def test_from_pipeline(self, t1_trace):
        path, _ = t1_trace
        session = Pipeline("hwlc+dr").session()
        session.feed(path.read_bytes())
        assert session.report_text() == _offline_text(path, "hwlc+dr")


class TestPackageExports:
    def test_root_reexports(self):
        assert repro.Session is Session
        assert repro.Pipeline is Pipeline
        assert repro.api.SNAPSHOT_VERSION == 2

    def test_all_names_resolve(self):
        for name in ("Pipeline", "Session", "api"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
