"""Documentation stays honest: code blocks in the docs actually run.

Stale documentation is worse than none; these tests execute the MiniCxx
program embedded in ``docs/MINICXX.md`` and the guest program embedded
in ``docs/GUEST_API.md``, and spot-check that the README's claims match
the code."""

from __future__ import annotations

import re
from pathlib import Path

DOCS = Path(__file__).resolve().parent.parent / "docs"
ROOT = DOCS.parent


def _code_blocks(path: Path, language: str) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


class TestMiniCxxDoc:
    def test_example_program_builds_and_runs(self):
        from repro.instrument import BuildOptions, BuildPipeline
        from repro.runtime import VM

        (code,) = [
            b for b in _code_blocks(DOCS / "MINICXX.md", "cpp") if "fn main" in b
        ]
        pipe = BuildPipeline(includes={"config.h": "#define N 4\n"})
        art = pipe.build(code, BuildOptions(instrument=True))
        result = VM().run(art.program.main)
        assert result == 1
        assert "urgent" in art.program.last_output
        assert art.annotated_sites == art.delete_sites == 1

    def test_figure4_helper_block_matches_generator(self):
        from repro.instrument.annotate import HELPER_NAME

        text = (DOCS / "MINICXX.md").read_text(encoding="utf-8")
        assert HELPER_NAME in text
        assert "hg_destruct(object);" in text


class TestGuestApiDoc:
    def test_example_program_runs(self):
        from repro.runtime import VM

        blocks = _code_blocks(DOCS / "GUEST_API.md", "python")
        program_block = next(b for b in blocks if "def program(api):" in b)
        namespace: dict = {}
        exec(program_block, namespace)  # defines program & runs VM().run
        assert "program" in namespace

    def test_api_table_lists_real_methods(self):
        from repro.runtime.vm import GuestAPI

        text = (DOCS / "GUEST_API.md").read_text(encoding="utf-8")
        for method in (
            "malloc", "free", "load", "store", "atomic_add", "atomic_cas",
            "mutex", "rwlock", "cond_wait", "sem_post", "barrier_wait",
            "spawn", "join", "spin", "hg_destruct", "benign_race",
        ):
            assert method in text, method
            assert hasattr(GuestAPI, method.split("(")[0]), method


class TestApiDoc:
    def test_profile_table_is_the_registry(self):
        """The profile table in docs/API.md lists every registered
        profile, in order, with its registry description."""
        from repro.api.profiles import profiles

        text = (DOCS / "API.md").read_text(encoding="utf-8")
        section = text.split("## `repro.api.profiles`", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", section, re.M)
        assert rows == [(p.name, p.description) for p in profiles()]


class TestServiceDoc:
    def test_frame_table_is_the_protocol(self):
        """The frame table in docs/SERVICE.md names exactly the frame
        types ``repro.service.protocol`` defines, in both directions."""
        from repro.service import protocol

        text = (DOCS / "SERVICE.md").read_text(encoding="utf-8")
        section = text.split("## The wire protocol", 1)[1].split("\n## ", 1)[0]
        table = section.split("| frame | direction | payload |", 1)[1]
        rows = re.findall(r"^\| `([A-Z]+)` \|", table.split("\n\n", 1)[0], re.M)
        assert len(rows) == len(set(rows)), rows
        assert set(rows) == set(protocol._NAMES.values())


class TestReadme:
    def test_quickstart_block_runs(self):
        blocks = _code_blocks(ROOT / "README.md", "python")
        quickstart = next(b for b in blocks if "def program(api):" in b)
        namespace: dict = {}
        exec(quickstart, namespace)

    def test_config_table_names_exist(self):
        from repro.detectors import HelgrindConfig

        text = (ROOT / "README.md").read_text(encoding="utf-8")
        for factory in ("original", "hwlc", "hwlc_dr", "extended", "raw_eraser"):
            assert getattr(HelgrindConfig, factory)  # exists
            assert factory.replace("_", "") in text.replace("_", "").replace(".", "")


class TestPerformanceDoc:
    def test_profiling_recipe_sees_carrier_threads(self):
        """Guest code and detector handlers run on the VM's carrier
        threads; the recipe's merged profile must include them."""
        (recipe,) = [
            b
            for b in _code_blocks(DOCS / "PERFORMANCE.md", "python")
            if "cProfile" in b
        ]
        small, n = re.subn(
            r"THREADS, ITERATIONS = \d+, \d+", "THREADS, ITERATIONS = 2, 20", recipe
        )
        assert n == 1
        namespace: dict = {}
        exec(small, namespace)
        functions = {name for _file, _line, name in namespace["stats"].stats}
        assert "_on_access" in functions


class TestAlgorithmsDoc:
    def test_referenced_symbols_exist(self):
        """Every module path the algorithms doc cites must import."""
        import importlib

        text = (DOCS / "ALGORITHMS.md").read_text(encoding="utf-8")
        for module in set(re.findall(r"`repro/([a-z_/]+)\.py`", text)):
            importlib.import_module("repro." + module.replace("/", "."))


class TestSymbolReferences:
    def test_backticked_class_attributes_exist(self):
        """Every backticked ``Class.attr`` in the docs and the README,
        where ``Class`` is a class defined in ``repro``, names a real
        attribute — a renamed or deleted method must take its prose
        with it."""
        import importlib
        import inspect
        import pkgutil

        import repro

        classes: dict[str, set[type]] = {}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith(".__main__"):
                continue
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if inspect.isclass(obj) and obj.__module__.startswith("repro."):
                    classes.setdefault(name, set()).add(obj)
        assert "LocksetMachine" in classes

        missing = []
        for path in [*sorted(DOCS.glob("*.md")), ROOT / "README.md"]:
            text = path.read_text(encoding="utf-8")
            text = re.sub(r"```.*?```", "", text, flags=re.S)
            for span in re.findall(r"`([^`\n]+)`", text):
                m = re.match(r"([A-Z]\w*)\.([A-Za-z_]\w*)", span)
                if m is None or m.group(1) not in classes:
                    continue
                if not any(hasattr(c, m.group(2)) for c in classes[m.group(1)]):
                    missing.append(f"{path.name}: {span}")
        assert not missing, missing


class TestObservabilityDoc:
    """docs/OBSERVABILITY.md is the metric contract — keep it honest."""

    def _families_in_doc(self) -> set[str]:
        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        return set(re.findall(r"`(repro_[a-z_]+)`", text))

    def test_catalogue_covers_an_instrumented_run(self):
        from repro.detectors import HelgrindConfig, HelgrindDetector
        from repro.experiments.performance import workload_guest
        from repro.runtime import VM, RoundRobinScheduler
        from repro.telemetry import Telemetry

        telemetry = Telemetry(trace=True, batch_events=64)
        vm = VM(
            scheduler=RoundRobinScheduler(),
            detectors=(HelgrindDetector(HelgrindConfig.hwlc_dr()),),
            telemetry=telemetry,
        )
        telemetry.attach(vm, time_emit=True)
        with telemetry.phase("doc-check"):
            vm.run(workload_guest, 2, 40)
        telemetry.record_run(vm)
        emitted = set(telemetry.snapshot()["metrics"])
        # The repro_service_* namespace is the analysis server's own
        # catalogue, checked two-way by test_service_catalogue_is_real.
        documented = {
            f
            for f in self._families_in_doc()
            if not f.startswith("repro_service_")
        }
        # Everything the pipeline emits is documented ...
        assert emitted <= documented, emitted - documented
        # ... and everything documented is real (emitted here, or only
        # produced by runs with suppressions in play).
        optional = {"repro_warnings_suppressed_total"}
        assert documented - emitted <= optional, documented - emitted

    def test_service_catalogue_is_real(self):
        """Every documented ``repro_service_*`` family is registered by
        the service code, and every family the service registers is
        documented — no drift in either direction."""
        import inspect

        from repro.service import server, session, shard

        source = (
            inspect.getsource(server)
            + inspect.getsource(session)
            + inspect.getsource(shard)
        )
        registered = set(re.findall(r'"(repro_service_[a-z_]+)"', source))
        documented = {
            f
            for f in self._families_in_doc()
            if f.startswith("repro_service_")
        }
        assert documented == registered, documented ^ registered

    def test_detector_summary_vocabulary_documented(self):
        from repro.detectors import (
            AtomizerDetector,
            DjitDetector,
            HelgrindConfig,
            HelgrindDetector,
            HighLevelRaceDetector,
            HybridDetector,
            LockGraphDetector,
            RaceTrackDetector,
        )

        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        detectors = (
            HelgrindDetector(HelgrindConfig.hwlc_dr()),
            DjitDetector(),
            RaceTrackDetector(),
            HybridDetector(),
            AtomizerDetector(),
            LockGraphDetector(),
            HighLevelRaceDetector(),
        )
        for det in detectors:
            assert f"**{det.telemetry_name}**" in text, det.telemetry_name
            for stat in det.telemetry_summary():
                assert f"`{stat}`" in text, (det.telemetry_name, stat)

    def test_schema_required_families_documented(self):
        from repro.telemetry.schema import REQUIRED_FAMILIES

        documented = self._families_in_doc()
        assert set(REQUIRED_FAMILIES) <= documented
