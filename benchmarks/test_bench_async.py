"""Benchmark: batched vs per-trial asynchronous staleness × drop sweeps.

Runs the full staleness-bound × drop-rate × filter × seed sweep twice —
through the per-trial event-driven reference engine and through the
batched ``(S, n, d)`` tensor program
(:class:`~repro.distsys.batch_async.BatchAsynchronousSimulator`) — and
persists the convergence-radius report to ``benchmarks/results/async.txt``
plus machine-readable headline numbers to ``BENCH_async.json`` using the
same ``reference_seconds`` / ``batched_seconds`` / ``speedup`` /
``trials_per_second`` schema as ``BENCH_engine.json``, so the perf
trajectory is diffable across PRs (the CI bench-regression gate parses
these fields).

Also cross-checks the engine contracts inside the workload: the two sweep
engines must agree on every row, and the degenerate configuration must
land exactly where the synchronous server engine lands.
"""

import time

import numpy as np

from conftest import emit, emit_json

from repro.attacks.registry import make_attack
from repro.distsys import run_asynchronous, run_dgd
from repro.experiments import paper_problem
from repro.experiments.asynchronous import (
    asynchronous_sweep,
    render_asynchronous_report,
)

ITERATIONS = 200
STALENESS_BOUNDS = (0, 1, 2, 4)
DROP_RATES = (0.0, 0.15, 0.35)
AGGREGATORS = ("cge", "cwtm", "median")
SEEDS = (0, 1, 2, 3)
TRIALS = (
    len(STALENESS_BOUNDS) * len(DROP_RATES) * len(AGGREGATORS) * len(SEEDS)
)


def test_asynchronous_sweep_report(benchmark, results_dir, out_dir):
    problem = paper_problem()

    def batched():
        return asynchronous_sweep(
            problem=problem,
            staleness_bounds=STALENESS_BOUNDS,
            drop_rates=DROP_RATES,
            aggregators=AGGREGATORS,
            iterations=ITERATIONS,
            seeds=SEEDS,
            engine="batched",
        )

    rows = benchmark.pedantic(batched, rounds=1, iterations=1)

    t0 = time.perf_counter()
    rows = batched()
    batched_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference_rows = asynchronous_sweep(
        problem=problem,
        staleness_bounds=STALENESS_BOUNDS,
        drop_rates=DROP_RATES,
        aggregators=AGGREGATORS,
        iterations=ITERATIONS,
        seeds=SEEDS,
        engine="reference",
    )
    reference_seconds = time.perf_counter() - t0
    speedup = reference_seconds / batched_seconds

    assert len(rows) == len(STALENESS_BOUNDS) * len(DROP_RATES) * len(AGGREGATORS)
    assert all(np.isfinite(r.mean_radius) for r in rows)
    assert {r.policy for r in rows} == {"shrink", "masked"}

    # Engine parity across the whole workload: the tensor program and the
    # event-driven oracle must report the same sweep (identical network
    # realizations; 1e-9 absorbs einsum-order drift in the kernels).
    max_abs_error = 0.0
    for row, ref in zip(rows, reference_rows):
        assert row.stalled == ref.stalled
        for field in ("mean_radius", "worst_radius", "missing_rate",
                      "mean_staleness"):
            a, b = getattr(row, field), getattr(ref, field)
            if np.isnan(a) and np.isnan(b):
                continue
            max_abs_error = max(max_abs_error, abs(a - b))
    assert max_abs_error < 1e-9

    # The batched sweep must beat the per-trial event loop decisively
    # (committed headline is >8x; this floor only catches catastrophic
    # regressions on noisy CI machines — the bench-regression gate
    # compares the JSON against the committed baseline).
    assert speedup > 4.0

    # Loosening the staleness bound (no drops) can only reduce how much
    # in-flight traffic the server has to do without.
    def missing(tau, aggregator="cge"):
        return next(
            r.missing_rate
            for r in rows
            if r.staleness_bound == tau
            and r.drop_rate == 0.0
            and r.aggregator == aggregator
        )

    assert missing(0) >= missing(2) >= missing(4)

    # Engine contract inside the workload: the degenerate configuration
    # lands bit-for-bit where the server-based engine lands.
    sync = run_dgd(
        costs=problem.costs,
        faulty_ids=list(problem.faulty_ids),
        aggregator="cge",
        attack=make_attack("gradient_reverse"),
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
        iterations=ITERATIONS,
        seed=SEEDS[0],
    )
    degenerate = run_asynchronous(
        costs=problem.costs,
        faulty_ids=list(problem.faulty_ids),
        aggregator="cge",
        attack=make_attack("gradient_reverse"),
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
        iterations=ITERATIONS,
        seed=SEEDS[0],
    )
    engine_gap = float(
        np.abs(degenerate.estimates() - sync.estimates()).max()
    )
    assert engine_gap < 1e-9
    sync_radius = float(np.linalg.norm(sync.final_estimate - problem.x_h))

    text = render_asynchronous_report(rows, iterations=ITERATIONS)
    emit(results_dir, "async", text)
    emit_json(
        out_dir,
        "async",
        {
            "workload": {
                "system": "appendix-J regression (n=6, f=1, d=2)",
                "staleness_bounds": list(STALENESS_BOUNDS),
                "drop_rates": list(DROP_RATES),
                "aggregators": list(AGGREGATORS),
                "iterations": ITERATIONS,
                "seeds": len(SEEDS),
                "cells": len(rows),
                "trials": TRIALS,
            },
            "reference_seconds": round(reference_seconds, 6),
            "batched_seconds": round(batched_seconds, 6),
            "speedup": round(speedup, 2),
            "reference_trials_per_second": round(
                TRIALS / reference_seconds, 2
            ),
            "batched_trials_per_second": round(TRIALS / batched_seconds, 2),
            "max_abs_error_vs_reference": max_abs_error,
            "degenerate_engine_gap": engine_gap,
            "server_engine_radius": sync_radius,
            "worst_radius_by_tau": {
                str(tau): max(
                    r.worst_radius for r in rows if r.staleness_bound == tau
                )
                for tau in STALENESS_BOUNDS
            },
            "stalled_rounds_total": sum(r.stalled for r in rows),
        },
    )
