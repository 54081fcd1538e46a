"""Benchmark: fused vs per-trial delay-tolerant decentralized sweeps.

Runs the full topology × staleness × drop-rate × filter sweep twice —
through the per-cell per-trial reference engine
(:class:`~repro.distsys.decentralized_delay.DelayedDecentralizedSimulator`)
and through the fused ``(S, E)`` edge-tensor batch engine
(:class:`~repro.distsys.batch_decentralized_delay.BatchDelayedDecentralizedSimulator`)
— and persists the consensus-gap + convergence-radius report to
``benchmarks/results/decentralized_delay.txt`` plus machine-readable
headline numbers to ``BENCH_decentralized_delay.json`` using the same
``reference_seconds`` / ``batched_seconds`` / ``speedup`` /
``trials_per_second`` schema as ``BENCH_async.json``, so the perf
trajectory is diffable across PRs (the CI bench-regression gate parses
these fields).

Also cross-checks the engine contract inside the workload: the degenerate
configuration (τ = 0, no conditions) must pin **bit-for-bit** to the
synchronous :class:`~repro.distsys.decentralized.DecentralizedSimulator`
across aggregator × attack × topology × seed — the ``degenerate_engine_gap``
field is gated by ``benchmarks/check_bench_regression.py``.
"""

import time

import numpy as np

from conftest import emit, emit_json

from repro.aggregators import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import (
    BatchTrial,
    make_topology,
    run_decentralized,
    run_decentralized_delayed,
)
from repro.experiments import paper_problem
from repro.experiments.decentralized_delay import (
    decentralized_delay_sweep,
    default_delay_topologies,
    render_decentralized_delay_report,
)

ITERATIONS = 300
STALENESS_BOUNDS = (0, 1, 3)
DROP_RATES = (0.0, 0.2)
AGGREGATORS = ("cwtm", "cge_mean", "median")
SEEDS = (0, 1)


def degenerate_gap(problem):
    """Max |delayed - synchronous| over the degenerate grid (must be 0.0)."""
    gap = 0.0
    for topology_name, kwargs in (
        ("ring", {"hops": 2}),
        ("erdos_renyi", {"p": 0.7}),
    ):
        topology = make_topology(topology_name, problem.n, **kwargs)
        trials = [
            BatchTrial(
                aggregator=make_aggregator(agg, problem.n, problem.f),
                attack=None if attack is None else make_attack(attack),
                faulty_ids=(
                    () if attack is None else tuple(problem.faulty_ids)
                ),
                seed=seed,
            )
            for agg in ("cwtm", "median")
            for attack in (None, "gradient_reverse", "edge_equivocation")
            for seed in SEEDS
        ]
        args = (
            problem.costs, topology, trials, problem.constraint,
            problem.schedule, problem.initial_estimate, 120,
        )
        reference = run_decentralized(*args)
        delayed = run_decentralized_delayed(*args)
        gap = max(
            gap,
            float(np.abs(delayed.estimates - reference.estimates).max()),
        )
    return gap


def test_decentralized_delay_sweep_report(benchmark, results_dir, out_dir):
    problem = paper_problem()
    topologies = default_delay_topologies(problem.n)

    def sweep(engine):
        return decentralized_delay_sweep(
            problem=problem,
            topologies=topologies,
            staleness_bounds=STALENESS_BOUNDS,
            drop_rates=DROP_RATES,
            aggregators=AGGREGATORS,
            iterations=ITERATIONS,
            seeds=SEEDS,
            engine=engine,
        )

    rows = benchmark.pedantic(
        lambda: sweep("batched"), rounds=1, iterations=1
    )
    t0 = time.perf_counter()
    rows = sweep("batched")
    batched_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference_rows = sweep("reference")
    reference_seconds = time.perf_counter() - t0
    speedup = reference_seconds / batched_seconds

    cells = (
        len(topologies) * len(STALENESS_BOUNDS) * len(DROP_RATES)
        * len(AGGREGATORS)
    )
    trials = cells * len(SEEDS)
    assert len(rows) == cells
    assert all(np.isfinite(r.mean_radius) for r in rows)
    assert {r.policy for r in rows} == {"shrink", "masked"}

    # Engine parity across the whole workload: the fused edge-tensor
    # program and the per-cell per-trial oracle are pinned bit for bit,
    # so every row field must agree exactly (1e-9 is the gate's slack).
    max_abs_error = 0.0
    for row, ref in zip(rows, reference_rows):
        assert row.stalled == ref.stalled
        for field in ("mean_radius", "worst_radius", "mean_gap",
                      "missing_rate", "mean_staleness"):
            a, b = getattr(row, field), getattr(ref, field)
            if np.isnan(a) and np.isnan(b):
                continue
            max_abs_error = max(max_abs_error, abs(a - b))
    assert max_abs_error < 1e-9

    # The fused sweep must beat the per-cell engine loop decisively (the
    # acceptance floor is 5x; this in-test floor only catches catastrophic
    # regressions on noisy CI machines — the bench-regression gate
    # compares the JSON against the committed baseline).
    assert speedup > 4.0

    # Loosening the staleness bound (no drops) can only reduce how much
    # gossip the agents have to do without.
    def missing(tau, topology="ring2", aggregator="cwtm"):
        return next(
            r.missing_rate
            for r in rows
            if r.staleness_bound == tau
            and r.drop_rate == 0.0
            and r.topology == topology
            and r.aggregator == aggregator
        )

    assert missing(0) >= missing(1) >= missing(3)

    # Engine contract inside the workload: τ = 0 with no conditions is the
    # synchronous graph engine, bit for bit.
    engine_gap = degenerate_gap(problem)
    assert engine_gap == 0.0

    text = render_decentralized_delay_report(rows, iterations=ITERATIONS)
    emit(results_dir, "decentralized_delay", text)
    emit_json(
        out_dir,
        "decentralized_delay",
        {
            "workload": {
                "system": "appendix-J regression (n=6, f=1, d=2)",
                "topologies": [t.name for t in topologies],
                "staleness_bounds": list(STALENESS_BOUNDS),
                "drop_rates": list(DROP_RATES),
                "aggregators": list(AGGREGATORS),
                "iterations": ITERATIONS,
                "seeds": len(SEEDS),
                "cells": cells,
                "trials": trials,
            },
            "reference_seconds": round(reference_seconds, 6),
            "batched_seconds": round(batched_seconds, 6),
            "speedup": round(speedup, 2),
            "reference_trials_per_second": round(
                trials / reference_seconds, 2
            ),
            "batched_trials_per_second": round(trials / batched_seconds, 2),
            "max_abs_error_vs_reference": max_abs_error,
            "degenerate_engine_gap": engine_gap,
            "worst_radius_by_tau": {
                str(tau): max(
                    r.worst_radius for r in rows if r.staleness_bound == tau
                )
                for tau in STALENESS_BOUNDS
            },
            "worst_gap_by_topology": {
                topology.name: max(
                    r.mean_gap for r in rows if r.topology == topology.name
                )
                for topology in topologies
            },
            "stalled_agent_rounds_total": sum(r.stalled for r in rows),
        },
    )
