"""Benchmark: the crash-safe sweep orchestrator's sharding and warm store.

Routes the Table-1 regression family through
:func:`~repro.experiments.runner.orchestrated_regression_sweep` and
reports the two headline properties of the execution layer:

* **Warm-store speedup** (the gated ``speedup`` field): a re-run of an
  already-checkpointed sweep answers every cell from the
  content-addressed store, so it must be dramatically cheaper than the
  fresh run.  The ratio is capped at 50x before emission — past that the
  warm path is pure JSON I/O and the raw ratio only measures disk cache
  noise, which would make the CI gate flaky.
* **Orchestration identity** (the gated ``degenerate_engine_gap``
  field): orchestrated rows must pin bit for bit (0.0) to the direct
  in-process :func:`~repro.experiments.runner.run_regression_sweep` —
  routing through cells, workers and JSON round trips is a pure
  execution-layer change.

Supervised multi-process sharding is also timed (1 worker vs
``min(4, cores)``); the >1.5x expectation is asserted only when the
machine actually has >= 4 cores to shard across, and the measured ratio
is reported either way as ``sharded_speedup`` (ungated: single-core CI
boxes legitimately report ~1x).
"""

import os
import shutil
import statistics
import time

import numpy as np

from conftest import emit, emit_json

from repro.experiments import paper_problem
from repro.experiments.orchestrator import OrchestratorConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    SweepSpec,
    orchestrated_regression_sweep,
    run_regression_sweep,
)

ITERATIONS = 400
SPECS = [
    SweepSpec(aggregator=aggregator, attack=attack, seed=seed)
    for aggregator in ("cge", "cwtm")
    for attack in ("gradient_reverse", "random")
    for seed in (0, 1)
]
SPEEDUP_CAP = 50.0


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_orchestrator_sharding_and_warm_store(benchmark, out_dir, tmp_path):
    problem = paper_problem()

    direct, direct_seconds = timed(
        lambda: run_regression_sweep(problem, SPECS, iterations=ITERATIONS)
    )

    store = tmp_path / "store"
    config = OrchestratorConfig(checkpoint_dir=store)

    def fresh():
        return orchestrated_regression_sweep(
            SPECS, iterations=ITERATIONS, config=config
        )

    (rows, report) = benchmark.pedantic(fresh, rounds=1, iterations=1)
    shutil.rmtree(store)
    (rows, report), fresh_seconds = timed(fresh)
    assert len(report.completed) == len(SPECS) and not report.failed_cells

    # Orchestration identity: cells + workers + JSON round trips change
    # nothing about the results.
    engine_gap = max(
        float(np.abs(a.output - b.output).max())
        for a, b in zip(direct, rows)
    )
    assert engine_gap == 0.0

    # Warm store: every cell cached; median of 5 re-runs to damp I/O noise.
    warm_samples = []
    for _ in range(5):
        (warm_rows, warm_report), seconds = timed(fresh)
        warm_samples.append(seconds)
    assert len(warm_report.cached) == len(SPECS) and not warm_report.completed
    warm_seconds = statistics.median(warm_samples)
    raw_warm_speedup = fresh_seconds / warm_seconds
    speedup = min(raw_warm_speedup, SPEEDUP_CAP)
    assert raw_warm_speedup > 2.0  # warm re-run is near-free

    # Supervised sharding: 1 worker vs min(4, cores), both uncached.
    cores = os.cpu_count() or 1
    jobs = min(4, cores)
    def supervised(n_jobs, directory):
        return orchestrated_regression_sweep(
            SPECS,
            iterations=ITERATIONS,
            config=OrchestratorConfig(jobs=n_jobs, checkpoint_dir=directory),
        )

    _, one_worker_seconds = timed(lambda: supervised(1, tmp_path / "s1"))
    _, sharded_seconds = timed(lambda: supervised(jobs, tmp_path / "sN"))
    sharded_speedup = one_worker_seconds / sharded_seconds
    if cores >= 4 and jobs >= 4:
        # Only assert where the hardware can actually shard.
        assert sharded_speedup > 1.5, (cores, jobs, sharded_speedup)

    text = format_table(
        headers=["path", "seconds", "vs direct"],
        rows=[
            ["direct in-process sweep", direct_seconds, 1.0],
            ["orchestrated, fresh store", fresh_seconds,
             fresh_seconds / direct_seconds],
            ["orchestrated, warm store (median of 5)", warm_seconds,
             warm_seconds / direct_seconds],
            ["supervised, 1 worker", one_worker_seconds,
             one_worker_seconds / direct_seconds],
            [f"supervised, {jobs} workers", sharded_seconds,
             sharded_seconds / direct_seconds],
        ],
        title=(
            "Crash-safe orchestrator on the Table-1 regression family - "
            f"{len(SPECS)} cells x {ITERATIONS} iterations "
            f"({cores} core(s) available)"
        ),
    )
    emit(out_dir, "orchestrator", text)
    emit_json(
        out_dir,
        "orchestrator",
        {
            "workload": {
                "system": "appendix-J regression (n=6, f=1, d=2)",
                "family": "regression",
                "cells": len(SPECS),
                "iterations": ITERATIONS,
                "cores": cores,
                "sharded_jobs": jobs,
            },
            "direct_seconds": round(direct_seconds, 6),
            "fresh_seconds": round(fresh_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "one_worker_seconds": round(one_worker_seconds, 6),
            "sharded_seconds": round(sharded_seconds, 6),
            "speedup": round(speedup, 3),
            "raw_warm_speedup": round(raw_warm_speedup, 3),
            "sharded_speedup": round(sharded_speedup, 3),
            "degenerate_engine_gap": engine_gap,
        },
    )
