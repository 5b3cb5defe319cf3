"""Shared fixtures for the service test suite.

The ``traces`` fixture is the byte-identity oracle both the in-process
tests (``test_service.py``) and the sharded tests (``test_shard.py``)
measure against: every report the service produces must equal the
offline ``repro trace replay`` report byte-for-byte, whatever process
the session happened to land on.  ``predictive_traces`` does the same
for the latent-bug cases T9 and T10 under the ``predictive`` profile.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Pipeline
from repro.api.profiles import profile
from repro.detectors import HelgrindDetector
from repro.runtime.trace import replay_trace

CASES = ("T1", "T2", "T3")
CONFIGS = ("original", "hwlc", "hwlc+dr")


@pytest.fixture(scope="package")
def traces(tmp_path_factory):
    """T1–T3 recorded under each paper configuration, plus the offline
    reference report bytes: ``{(case, config): (path, report_bytes)}``."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import evaluation_cases

    root = tmp_path_factory.mktemp("service-traces")
    by_id = {c.case_id: c for c in evaluation_cases()}
    out = {}
    for case_id in CASES:
        for config in CONFIGS:
            path = root / f"{case_id}-{config.replace('+', '_')}.rptr"
            with TraceRecorder(path, format="binary") as recorder:
                run_proxy_case(by_id[case_id], config, seed=42,
                               extra_hooks=(recorder,))
            det = HelgrindDetector(profile(config).config())
            replay_trace(path, det)
            reference = json.dumps(det.report.to_dict(), indent=2).encode()
            out[(case_id, config)] = (path, reference)
    return out


@pytest.fixture(scope="package")
def predictive_traces(tmp_path_factory):
    """T9 and T10 recorded under ``predictive``, plus the offline
    report bytes: ``{case: (path, report_bytes)}``."""
    from repro.experiments.harness import run_proxy_case
    from repro.runtime.trace import TraceRecorder
    from repro.sip.workload import predictive_cases

    root = tmp_path_factory.mktemp("predictive-traces")
    out = {}
    for case in predictive_cases():
        path = root / f"{case.case_id}.rptr"
        with TraceRecorder(path) as recorder:
            run_proxy_case(case, "predictive", seed=42, extra_hooks=(recorder,))
        report = Pipeline("predictive").replay(path).render()
        out[case.case_id] = (path, report.encode("utf-8"))
    return out
