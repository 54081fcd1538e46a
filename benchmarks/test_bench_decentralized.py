"""Benchmark: the decentralized graph engine's topology sweep.

Runs the full topology × connectivity × f decentralized sweep (every
topology's aggregator × attack × seed grid as ONE batched tensor program)
and persists the convergence-radius report to
``benchmarks/results/decentralized.txt``.  Also cross-checks the engine
contract inside the workload: the complete-graph cell must land where the
server-based engine lands.
"""

import time

import numpy as np

from conftest import emit, emit_json

from repro.aggregators import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import run_dgd
from repro.experiments import paper_problem
from repro.experiments.decentralized import (
    decentralized_sweep,
    render_decentralized_report,
)

ITERATIONS = 300
SEEDS = (0,)  # the default attack set is deterministic; see decentralized_sweep


def test_decentralized_sweep_report(benchmark, results_dir, out_dir):
    problem = paper_problem()

    rows = benchmark.pedantic(
        lambda: decentralized_sweep(
            problem=problem, iterations=ITERATIONS, seeds=SEEDS
        ),
        rounds=1,
        iterations=1,
    )
    t0 = time.perf_counter()
    rows = decentralized_sweep(problem=problem, iterations=ITERATIONS, seeds=SEEDS)
    sweep_seconds = time.perf_counter() - t0

    topologies = sorted({r.topology for r in rows})
    assert len(topologies) >= 3, topologies
    assert all(np.isfinite(r.mean_radius) for r in rows)
    assert {r.f for r in rows} == {0, problem.f}

    # Engine contract inside the workload: the complete-graph CWTM cell
    # must land where the server-based engine lands.
    server = run_dgd(
        costs=problem.costs,
        faulty_ids=list(problem.faulty_ids),
        aggregator=make_aggregator("cwtm", problem.n, problem.f),
        attack=make_attack("gradient_reverse"),
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
        iterations=ITERATIONS,
        seed=SEEDS[0],
    )
    server_radius = float(np.linalg.norm(server.final_estimate - problem.x_h))
    cell = next(
        r
        for r in rows
        if r.topology == "complete"
        and r.aggregator == "cwtm"
        and r.attack == "gradient_reverse"
    )
    assert abs(cell.worst_radius - server_radius) < 1e-9

    text = render_decentralized_report(rows, iterations=ITERATIONS)
    emit(results_dir, "decentralized", text)
    emit_json(
        out_dir,
        "decentralized",
        {
            "workload": {
                "system": "appendix-J regression (n=6, f=1, d=2)",
                "topologies": topologies,
                "iterations": ITERATIONS,
                "seeds": len(SEEDS),
                "cells": len(rows),
            },
            "sweep_seconds": round(sweep_seconds, 6),
            "complete_graph_cwtm_radius": cell.worst_radius,
            "server_engine_radius": server_radius,
        },
    )
