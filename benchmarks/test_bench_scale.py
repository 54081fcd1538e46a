"""Benchmark: large-n scaling of the decentralized graph engine.

The CSR neighbor storage, degree-grouped masked kernels, and windowed
(``trace_rounds=``) traces exist so sparse graphs far beyond the paper's
appendix-J toy stay tractable.  This bench runs the decentralized CWTM
engine under the ``gradient_reverse`` attack on ring and random-regular
graphs at n ∈ {6, 64, 256, 1024} with a windowed trace, records the
throughput curve, and pins the windowed runs at small n bit for bit to
the full-trace reference engine (``max_abs_error_vs_reference`` must be
exactly 0.0 — windowing selects rounds, it never perturbs them).

``BENCH_scale.json`` carries the curve; the CI regression gate holds
every per-point throughput within threshold of the committed baseline
and the reference error at zero.
"""

import time

import numpy as np

from conftest import emit, emit_json

from repro.aggregators import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import BatchTrial, ring_topology
from repro.distsys.decentralized import run_decentralized
from repro.distsys.topology import random_regular_topology
from repro.functions.batched import stack_costs
from repro.functions.least_squares import LeastSquaresCost
from repro.optim.projections import BoxSet
from repro.optim.schedules import HarmonicSchedule

SIZES = (6, 64, 256, 1024)
ITERATIONS = 60
TRACE_STRIDE = 15
F = 1
D = 2
X_STAR = np.array([1.0, -1.0])


def scale_problem(n: int):
    """A solvable n-agent regression: rows sampled once per n, seeded."""
    rng = np.random.default_rng(2021 + n)
    designs = rng.normal(size=(n, 1, D))
    responses = designs[:, 0, :] @ X_STAR
    costs = [
        LeastSquaresCost(designs[i], responses[i : i + 1]) for i in range(n)
    ]
    return stack_costs(costs)


def make_topology(kind: str, n: int):
    if kind == "ring":
        # hops=2 keeps every closed neighborhood at 5 agents, wide
        # enough for the trim-1 CWTM filter at every n.
        return ring_topology(n, hops=2)
    return random_regular_topology(n, degree=4, seed=n)


def run_scale_cell(kind: str, n: int, trace_rounds=TRACE_STRIDE):
    return run_decentralized(
        scale_problem(n),
        make_topology(kind, n),
        [
            BatchTrial(
                aggregator=make_aggregator("cwtm", n, F),
                attack=make_attack("gradient_reverse"),
                faulty_ids=(0,),
                seed=0,
            )
        ],
        BoxSet.symmetric(3.0, dim=D),
        HarmonicSchedule(scale=0.5),
        np.zeros(D),
        ITERATIONS,
        trace_rounds=trace_rounds,
    )


def test_scale_curve_report(benchmark, out_dir):
    # The headline cell — the n=1024 ring under the windowed trace —
    # carries the pytest-benchmark timing; the sweep below times every
    # (topology, n) cell for the persisted curve.
    benchmark.pedantic(
        lambda: run_scale_cell("ring", 1024), rounds=1, iterations=1
    )

    throughput = {}
    cells = []
    for kind in ("ring", "random_regular"):
        for n in SIZES:
            t0 = time.perf_counter()
            trace = run_scale_cell(kind, n)
            seconds = time.perf_counter() - t0
            assert trace.iterations == ITERATIONS
            # Windowed storage: the stride snapshots plus round 0 and
            # the horizon — never the full (T + 1, S, n, d) history.
            assert len(trace.stored_rounds) == ITERATIONS // TRACE_STRIDE + 1
            assert np.isfinite(trace.estimates).all()
            agent_rounds = n * ITERATIONS
            throughput[f"{kind}/n={n}"] = round(agent_rounds / seconds, 1)
            cells.append(
                {
                    "topology": kind,
                    "n": n,
                    "seconds": round(seconds, 6),
                    "agent_rounds_per_second": round(
                        agent_rounds / seconds, 1
                    ),
                }
            )

    # Reference pin at small n: the windowed run must reproduce the
    # full-trace engine bit for bit on every stored round.
    max_error = 0.0
    for kind in ("ring", "random_regular"):
        for n in (6, 64):
            windowed = run_scale_cell(kind, n)
            full = run_scale_cell(kind, n, trace_rounds=None)
            diff = np.abs(
                windowed.estimates
                - full.estimates[windowed.stored_rounds]
            )
            max_error = max(max_error, float(diff.max()))
    assert max_error == 0.0

    lines = [
        f"decentralized scale curve — cwtm/gradient_reverse, "
        f"T={ITERATIONS}, windowed trace (stride {TRACE_STRIDE})",
        f"{'topology':>16} {'n':>6} {'seconds':>10} {'agent-rounds/s':>16}",
    ]
    for cell in cells:
        lines.append(
            f"{cell['topology']:>16} {cell['n']:>6} "
            f"{cell['seconds']:>10.4f} "
            f"{cell['agent_rounds_per_second']:>16.1f}"
        )
    lines.append(
        f"max abs error vs full-trace reference (n ≤ 64): {max_error:.1e}"
    )
    emit(out_dir, "scale", "\n".join(lines))
    emit_json(
        out_dir,
        "scale",
        {
            "workload": {
                "engine": "DecentralizedSimulator (cwtm, gradient_reverse)",
                "sizes": list(SIZES),
                "topologies": ["ring (hops=2)", "random_regular (degree=4)"],
                "iterations": ITERATIONS,
                "trace_stride": TRACE_STRIDE,
            },
            "cells": cells,
            "throughput": throughput,
            "max_abs_error_vs_reference": max_error,
        },
    )
