"""One seeded benchmark for live, replay, sharded and served analysis.

Run from the repository root::

    python3 benchmarks/matrix/bench_matrix.py [--workload W ...] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Workloads, metrics and the run length come from ``BENCHMARK.json``.
Each workload runs in fresh child processes, pinned to one CPU (see
``measure.pin``), because lock-set and stack interning tables are
process-global and would leak from one workload into the next, and so
that each gets its own peak RSS:

1. *prepare* — generates the inputs from ``--seed`` (traces and the
   reference reports every measured item is compared against); its
   time is ``loadgen.prepare_s``, not set-up;
2. *probe* (four times, untraced runs only) — the program's set-up
   alone: interpreter start, imports, server spawn and warm-up;
3. *measure* — set-up once more, then the measured window.

``setup_s`` is the median of the five set-ups, scaled to the reference
host speed by the calibration bursts timed right after each of them
(see ``measure.HostSpeed``).  With ``--trace 0``
the end-to-end metrics are printed; with ``--trace 1`` the per-layer
metrics, measured on items that alternate with untraced twins (the
report bytes and ``ReplayStats`` of each pair must agree), and the
spans are written to ``.bench_matrix/traces/`` as Chrome trace JSON.

Every metric is printed as ``workload metric value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import HostSpeed, calibration_burst, pin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_matrix"
SETUP_SAMPLES = 5
#: Calibration bursts timed right after each set-up.
SETUP_BURSTS = 8
PREPARE_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 60.0
MEASURE_SLACK_S = 120.0


class HarnessError(Exception):
    """The benchmark itself could not produce a result."""


def _workload(name: str):
    if name == "serve_open":
        from serve import WORKLOADS
    else:
        from inprocess import WORKLOADS
    return WORKLOADS[name]


# ----------------------------------------------------------------------
# Child side: one role in a fresh process
# ----------------------------------------------------------------------


def _child(args) -> None:
    pin()
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise HarnessError(f"imported repro from {repro.__file__}, not this checkout")
    (name,) = args.workload
    workload = _workload(name)
    workdir = Path(args.workdir)
    if args.role == "prepare":
        start = time.perf_counter()
        manifest = workload.prepare(workdir, args.seed)
        (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        print(json.dumps({"prepare_s": time.perf_counter() - start}))
        return

    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    workload.setup(workdir, manifest, args.seed)
    setup = {"setup_s": time.monotonic() - args.spawned_at}
    try:
        setup["bursts"] = [calibration_burst() for _ in range(SETUP_BURSTS)]
        if args.role == "probe":
            print(json.dumps(setup))
            return
        run = workload.measure(args.seconds, bool(args.trace))
    finally:
        workload.teardown()
    result = {
        **setup,
        "attempted": run.attempted,
        "failures": run.failures,
        "metrics": run.metrics,
        "samples": run.samples,
        "notes": run.notes,
    }
    if args.trace:
        from measure import write_chrome

        path = WORK / "traces" / f"{name}-seed{args.seed}.json"
        count = write_chrome(path, run.spans, {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
        })
        result["notes"].append(f"{count} spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _spawn(role: str, name: str, args, workdir: Path, timeout: float) -> dict:
    """Run one role of ``name`` in a fresh process group; returns its result."""
    env = dict(os.environ, TMPDIR=str(workdir))
    cmd = [
        sys.executable, str(HERE / "bench_matrix.py"),
        "--role", role, "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise HarnessError(f"{name} {role} exceeded {timeout:.0f} s") from None
    finally:
        try:  # whatever the child left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{name} {role} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _run_workload(name: str, args) -> dict:
    workdir = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        prepared = _spawn("prepare", name, args, workdir, PREPARE_TIMEOUT_S)
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn("probe", name, args, workdir, PROBE_TIMEOUT_S))
        result = _spawn(
            "measure", name, args, workdir, args.seconds + MEASURE_SLACK_S
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result)
    if args.trace:
        result["metrics"]["loadgen.prepare_s"] = prepared["prepare_s"]
    else:
        # One speed for the run's set-ups: a few bursts after a single
        # set-up catch a moment of the host, not the second it took.
        speed = HostSpeed([burst for s in setups for burst in s["bursts"]])
        measured = statistics.median(s["setup_s"] for s in setups)
        result["metrics"]["setup_s"] = measured * speed.factor
        result["notes"].append(
            "set-up samples "
            + ", ".join(f"{s['setup_s']:.3f}" for s in setups)
            + f" s as measured, median {measured:.3f} s; set-up {speed.note()}; "
            f"input generation {prepared['prepare_s']:.2f} s"
        )
    return result


def _declared(spec: dict, trace: int) -> dict[str, str]:
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def _complete(name: str, result: dict, declared: dict[str, str], trace: int) -> None:
    """Check the measured metrics against the declared ones."""
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise HarnessError(f"{name} measured undeclared metrics: {unknown}")
    for metric in declared:
        if metric not in metrics:
            if not trace:
                raise HarnessError(f"{name} did not measure {metric}")
            # A layer this workload does not exercise.
            metrics[metric] = 0
        if not math.isfinite(metrics[metric]):
            raise HarnessError(f"{name} {metric} is {metrics[metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float,
                        help="measured window per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, help="also write the full results here")
    parser.add_argument("--role", choices=("prepare", "probe", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(
            f"error: {ROOT} is not a checkout of the repository "
            "(needs BENCHMARK.json and src/repro)",
            file=sys.stderr,
        )
        return 2
    if args.role:
        _child(args)
        return 0

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    declared = _declared(spec, args.trace)

    results = {}
    try:
        for name in names:
            results[name] = _run_workload(name, args)
            _complete(name, results[name], declared, args.trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, result in results.items():
        for metric, unit in declared.items():
            value = result["metrics"][metric]
            count = result["samples"].get(metric)
            suffix = f"  (n={count})" if count is not None else ""
            print(f"{name}  {metric}  {value:.6g}  {unit}{suffix}")
        for note in result["notes"]:
            print(f"# {name}: {note}")
        print(
            f"# {name}: {result['attempted']} items attempted, "
            f"{len(result['failures'])} failed"
        )
        for failure in result["failures"]:
            print(f"# {name} FAILED {failure}")

    prefix = len(results) > 1
    summary = {
        "correct": all(not r["failures"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(len(r["failures"]) for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {
                "value": result["metrics"][metric], "unit": unit,
            }
            for name, result in results.items()
            for metric, unit in declared.items()
        },
    }
    if args.out:
        args.out.write_text(
            json.dumps({"summary": summary, "workloads": results}, indent=1) + "\n",
            encoding="utf-8",
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
