#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: one
repetition under ``tracemalloc`` (peak memory, and it fills lazy caches),
then repetitions until ``--seconds`` is spent; each metric is the median
over repetitions.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics (mean over traced
repetitions), printing the per-layer self-time table first.  Either way
the outputs are checked against the library's reference paths after the
timed region, and one raw record (metrics, seed, machine fingerprint) is
written to ``perfbench/raw/``; ``perfbench/reduce.py`` summarizes them.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS/OpenMP thread knobs, pinned to 1 before NumPy loads so the load
#: comes from this one single-threaded process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: The host this was built on (2-core Xeon) flips between speed states
#: about 1.4x apart several times a second, and the share of slow time
#: drifts over minutes, so raw times spread up to 40% between runs.  Every
#: library call is bracketed by a fixed calibration burst
#: (probes.calibration_seconds), and its times are reported at reference
#: speed: measured seconds x REFERENCE_CALIBRATION_S / the call's
#: calibration seconds.  The constant is the burst's time in that host's
#: fast state, so a reported second is a second of that host at full speed.
#: Raw seconds and calibration times stay in the raw record.
REFERENCE_CALIBRATION_S = 0.0043
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
clock = time.perf_counter


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library():
    """Import the library from this checkout's ``src``; None if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError:
        return None
    if not Path(repro.__file__).resolve().is_relative_to(src):
        return None
    return repro


def fingerprint():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _keep_going(started, durations, seconds, minimum):
    if len(durations) < minimum:
        return True
    return clock() - started + statistics.median(durations) <= seconds


def _times(workload, calls, seconds):
    """End-to-end times of one repetition's calls; ``seconds(call, span)``
    converts a measured span of ``call``."""
    looped = [
        c for c in calls
        if c.label in workload.round_calls and c.first_round is not None
    ]
    return {
        "wall_s": sum(seconds(c, c.seconds) for c in calls if c.label != "resume"),
        "setup_s": sum(seconds(c, c.first_round - c.start) for c in looped),
        "agent_rounds_per_s": workload.agent_rounds
        / sum(seconds(c, c.last_round - c.first_round) for c in looped),
        "resume_s": [seconds(c, c.seconds) for c in calls if c.label == "resume"],
    }


def _repetition(workload, probe):
    """One workload run plus its warm-store passes, at reference speed (see
    REFERENCE_CALIBRATION_S) and in raw seconds."""
    first = len(probe.calls)
    t0 = clock()
    result = workload.run(probe)
    bad = workload.resume(probe, workload.resume_passes)
    calls = probe.calls[first:]
    summary = _times(
        workload, calls,
        lambda c, span: span * REFERENCE_CALIBRATION_S / c.calibration,
    )
    raw = _times(workload, calls, lambda c, span: span)
    summary.update(
        raw=raw,
        calibration_s=[c.calibration for c in calls],
        speed_scale=summary["wall_s"] / raw["wall_s"],
        rep_s=clock() - t0,
        resume_failed=bad,
    )
    return result, summary


def _medians(reps, key=lambda r: r):
    """Each end-to-end time metric's median over repetitions."""
    metrics = {
        name: statistics.median(key(r)[name] for r in reps)
        for name in ("wall_s", "setup_s", "agent_rounds_per_s")
    }
    metrics["resume_s"] = statistics.median(t for r in reps for t in key(r)["resume_s"])
    return metrics


def measure_untraced(workload, seconds):
    import layers
    import probes

    probe = probes.PhaseClock(layers.ENGINES)
    try:
        tracemalloc.start()
        result = workload.run(probe)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        workload.resume(probe, 0)  # the untimed cold pass fills the store
        reps = []
        started = clock()
        while _keep_going(started, [r["rep_s"] for r in reps], seconds, MIN_REPS):
            result, summary = _repetition(workload, probe)
            reps.append(summary)
    finally:
        probe.close()
    metrics = _medians(reps)
    metrics["peak_mem_mb"] = peak / 2**20
    return metrics, result, {"reps": reps, "raw_metrics": _medians(reps, lambda r: r["raw"])}


def measure_traced(workload, seconds):
    import layers
    import probes

    def untraced_rep():
        probe = probes.PhaseClock(layers.ENGINES)
        try:
            return _repetition(workload, probe)
        finally:
            probe.close()

    untraced_rep()  # fills lazy caches
    plain, traced, per_layer, tables = [], [], [], []
    started = clock()
    while _keep_going(
        started,
        [a["rep_s"] + b["rep_s"] for a, b in zip(plain, traced)],
        seconds,
        MIN_TRACED_PAIRS,
    ):
        plain.append(untraced_rep()[1])
        tracer = probes.Tracer(layers.ENGINES)
        try:
            layers.install(tracer)
            result, summary = _repetition(workload, tracer)
        finally:
            tracer.close()
        traced.append(summary)
        scale = summary["speed_scale"]
        per_layer.append(
            {
                name: value * scale if name.endswith("_s") else value
                for name, value in layers.layer_metrics(
                    tracer, workload.layer_counts(result)
                ).items()
            }
        )
        tables.append(
            {name: value * scale for name, value in tracer.self_time_table()}
        )
        spans = tracer.spans
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics = {
        name: statistics.fmean(m[name] for m in per_layer) for name in per_layer[0]
    }
    metrics["telemetry.overhead_fraction"] = traced_wall / untraced_wall - 1.0
    table = {
        name: statistics.fmean(t.get(name, 0.0) for t in tables)
        for name in {name for t in tables for name in t}
    }
    origin = spans[0][1] if spans else 0.0
    extra = {
        "reps": traced,
        "untraced_reps": plain,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "self_time_table": table,
        "spans": [
            [name, start - origin, end - origin, depth]
            for name, start, end, depth in spans
        ],
    }
    return metrics, result, extra


def render_table(workload, extra) -> str:
    table = extra["self_time_table"]
    total = sum(table.values())
    traced_wall = statistics.fmean(r["wall_s"] for r in extra["reps"])
    rows = sorted(
        ((k, v) for k, v in table.items() if k != "unattributed_s"),
        key=lambda row: -row[1],
    )
    rows.append(("unattributed_s", table.get("unattributed_s", 0.0)))
    lines = [
        f"per-layer self time, {workload}, mean of {len(extra['reps'])} traced "
        f"runs: wall_s {traced_wall:.4f} s + warm-store passes "
        f"{total - traced_wall:.4f} s (untraced wall_s median "
        f"{extra['untraced_wall_s']:.4f} s)",
        f"  {'layer':<32} {'self_s':>10} {'share':>7}",
    ]
    lines += [
        f"  {name:<32} {seconds:>10.4f} {seconds / total:>7.1%}"
        for name, seconds in rows
    ]
    lines.append(f"  {'total':<32} {total:>10.4f} {1:>7.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if _import_library() is None:
        print(
            f"perfbench: the library is not importable from {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    scratch = HERE / "scratch"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as run_scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_scratch)
        measure = measure_traced if args.trace else measure_untraced
        try:
            metrics, result, extra = measure(workload, args.seconds)
        finally:
            workload.close()
        attempted, failed = workload.check(result)
    failed = min(attempted, failed + sum(r["resume_failed"] for r in extra["reps"]))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    raw = HERE / "raw"
    raw.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fingerprint(),
        "failed_fraction": failed / attempted,
        **line,
        **extra,
    }
    path = raw / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    if args.trace:
        print(render_table(args.workload, extra))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
