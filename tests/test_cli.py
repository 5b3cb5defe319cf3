"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "figure6" in capsys.readouterr().out

    def test_bugs(self, capsys):
        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        assert "return-reference" in out
        assert "§4.1.2" in out

    def test_case(self, capsys):
        assert main(["case", "T3", "hwlc+dr"]) == 0
        out = capsys.readouterr().out
        assert "T3" in out and "reported locations" in out

    def test_case_full_prints_warnings(self, capsys):
        assert main(["case", "T3", "original", "--full"]) == 0
        out = capsys.readouterr().out
        assert "Possible data race" in out

    def test_suppress_stdout(self, capsys):
        assert main(["suppress", "T3"]) == 0
        out = capsys.readouterr().out
        assert "generated by repro" in out
        assert "fun:" in out

    def test_suppress_to_file(self, tmp_path, capsys):
        target = tmp_path / "t3.supp"
        assert main(["suppress", "T3", "-o", str(target)]) == 0
        from repro.detectors.suppressions import Suppressions

        assert len(Suppressions.load(target)) > 0

    def test_unknown_case_rejected(self):
        with pytest.raises(SystemExit):
            main(["case", "T99", "hwlc"])

    @pytest.mark.slow
    def test_figure6_smoke(self, capsys):
        assert main(["figure6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "qualitative claims hold" in out

    def test_studies(self, capsys):
        assert main(["studies"]) == 0
        out = capsys.readouterr().out
        assert "False-negative study" in out
        assert "Ablation" in out

    def test_perf(self, capsys):
        assert main(["perf", "--threads", "2", "--iterations", "30"]) == 0
        out = capsys.readouterr().out
        assert "VM only" in out
        assert "offline mode" in out

    def test_stats_prints_console_summary(self, capsys):
        assert main(["stats", "T1"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "under hwlc+dr" in out
        assert "events (" in out
        assert "dispatch routes" in out
        assert "state transitions" in out

    def test_stats_alternate_detector(self, capsys):
        assert main(["stats", "T1", "--detector", "djit"]) == 0
        out = capsys.readouterr().out
        assert "under djit" in out
        assert "logged_words" in out

    def test_stats_writes_metrics_and_trace(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        assert (
            main(
                [
                    "stats",
                    "T1",
                    "--metrics-out",
                    str(metrics),
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "metrics: wrote" in out and "trace: wrote" in out

        from repro.telemetry.schema import REQUIRED_FAMILIES, validate_snapshot

        snapshot = json.loads(metrics.read_text())
        assert (
            validate_snapshot(snapshot, require_families=REQUIRED_FAMILIES)
            == []
        )
        prom = (tmp_path / "m.json.prom").read_text()
        assert "# TYPE repro_events_total counter" in prom
        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_merge_aligns_per_process_files(self, tmp_path, capsys):
        """`repro trace merge` folds per-process Chrome traces into one
        epoch-aligned Perfetto document, naming each process after its
        source file when the trace carries no name of its own."""
        import json

        from repro.telemetry.tracing import Tracer

        a = Tracer(pid=1)
        a.epoch = 1000.0
        a.complete("acceptor-span", start=0.0, duration=0.001)
        b = Tracer(pid=1)  # same pid on purpose: merge must remap
        b.epoch = 1001.0
        b.complete("worker-span", start=0.0, duration=0.001)
        (tmp_path / "trace-acceptor.json").write_text(
            json.dumps(a.to_chrome())
        )
        (tmp_path / "trace-w0.json").write_text(json.dumps(b.to_chrome()))

        merged_path = tmp_path / "merged.json"
        assert main([
            "trace", "merge",
            str(tmp_path / "trace-acceptor.json"),
            str(tmp_path / "trace-w0.json"),
            "-o", str(merged_path),
        ]) == 0
        assert "merged 2 traces" in capsys.readouterr().out

        doc = json.loads(merged_path.read_text())
        assert doc["otherData"]["merged_from"] == 2
        spans = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        # epochs one second apart ⇒ spans land 1e6 µs apart
        assert spans["worker-span"]["ts"] - spans["acceptor-span"]["ts"] == 1e6
        assert spans["worker-span"]["pid"] != spans["acceptor-span"]["pid"]
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"trace-acceptor", "trace-w0"}

    def test_report_focused_case_with_metrics(self, tmp_path, capsys):
        """The CI telemetry smoke invocation."""
        import json

        metrics = tmp_path / "m.json"
        assert (
            main(["report", "--case", "T1", "--metrics-out", str(metrics)])
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "focused report" in out  # studies/perf were skipped
        assert "metrics: wrote" in out

        from repro.telemetry.schema import REQUIRED_FAMILIES, validate_snapshot

        snapshot = json.loads(metrics.read_text())
        assert (
            validate_snapshot(snapshot, require_families=REQUIRED_FAMILIES)
            == []
        )

    def test_report_output_identical_with_and_without_metrics(
        self, tmp_path, capsys
    ):
        assert main(["report", "--case", "T1"]) == 0
        plain = capsys.readouterr().out
        metrics = tmp_path / "m.json"
        assert (
            main(["report", "--case", "T1", "--metrics-out", str(metrics)])
            == 0
        )
        instrumented = capsys.readouterr().out
        # Instrumentation must never perturb the report body; the only
        # delta is the trailing "metrics: wrote ..." line.
        body = "\n".join(
            line
            for line in instrumented.splitlines()
            if not line.startswith("metrics: wrote")
        )
        assert body.rstrip("\n") == plain.rstrip("\n")

    def test_trace_replay_shards_auto(self, tmp_path, capsys):
        """``--shards auto`` prints its decision and the report stays
        byte-identical to the live run whatever count it picks (on a
        single-core host that is 1 — the fork+merge overhead rule)."""
        trace = tmp_path / "t1.rptr"
        live = tmp_path / "live.json"
        assert main([
            "trace", "record", "T1", "hwlc+dr",
            "-o", str(trace), "--report-out", str(live),
        ]) == 0
        capsys.readouterr()

        replayed = tmp_path / "auto.json"
        assert main([
            "trace", "replay", str(trace), "hwlc+dr",
            "--shards", "auto", "--report-out", str(replayed),
        ]) == 0
        out = capsys.readouterr().out
        assert "shards auto:" in out  # the decision is always logged
        assert replayed.read_bytes() == live.read_bytes()

    def test_corrupt_trace_is_an_error_not_a_traceback(self, tmp_path, capsys):
        """A trace the codec rejects ends ``trace replay`` (sequential
        and sharded) and ``trace stat`` with one stderr line and exit
        status 2."""
        trace = tmp_path / "t1.rptr"
        assert main(["trace", "record", "T1", "-o", str(trace)]) == 0
        with open(trace, "ab") as fh:
            fh.write(b"\x09")  # no record has tag 9
        capsys.readouterr()
        for argv in (
            ["trace", "replay", str(trace)],
            ["trace", "replay", str(trace), "--shards", "2"],
            ["trace", "stat", str(trace)],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "error: corrupt trace: unknown record tag 9\n", argv

    @pytest.mark.parametrize(
        "content",
        [b'{"type":"MemoryAccess"}\n', b"plain text\n", b"RPT"],
        ids=["json-line", "plain-text", "shorter-than-magic"],
    )
    def test_non_rptr_file_is_an_error_not_a_traceback(
        self, tmp_path, capsys, content
    ):
        """Every file that is not RPTR — a JSON-lines trace included —
        ends ``trace replay`` and ``trace stat`` with the codec's one
        bad-magic line and exit status 2."""
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes(content)
        for argv in (
            ["trace", "replay", str(trace)],
            ["trace", "stat", str(trace)],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "error: not a binary trace (bad magic)\n", argv

    def test_sharded_replay_needs_a_lockset_profile(self, tmp_path, capsys):
        """A baseline profile replays a trace like any other, but its
        detector keeps no lock-set pages to partition: ``--shards 2``
        is one typed error, not a crash in a shard worker."""
        trace = tmp_path / "t1.rptr"
        assert main(["trace", "record", "T1", "djit", "-o", str(trace)]) == 0
        assert main(["trace", "replay", str(trace), "djit"]) == 0
        capsys.readouterr()
        assert main(["trace", "replay", str(trace), "djit", "--shards", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: profile 'djit' cannot be sharded: its detector keeps "
            "no lock-set shadow pages to partition\n"
        )

    def test_trace_replay_shards_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "replay", "x.rptr", "--shards", "many"])

    @pytest.mark.slow
    def test_report_regenerates_everything(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for fragment in (
            "Figure 6",
            "Figure 5",
            "False-negative study",
            "Ablation",
            "Baselines",
            "offline mode",
        ):
            assert fragment in out
