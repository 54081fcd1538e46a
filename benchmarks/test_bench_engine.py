"""Benchmark: batched sweep engine vs. per-trial reference simulator.

Times a 32-trial regression sweep (the Appendix-J system, CGE under
gradient-reverse, 500 iterations, randomized restarts) through the per-trial
``SynchronousSimulator`` and through the tensorized ``BatchSimulator``, and
writes the headline speedup to ``BENCH_engine.json``.  The acceptance bar is
a >= 10x wall-clock speedup; the batch trajectories must also match the
reference to 1e-9 (the equivalence contract of the engine).
"""

import time

import numpy as np
from conftest import emit, emit_json

from repro.aggregators import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import BatchTrial, run_dgd, run_dgd_batch
from repro.experiments import paper_problem
from repro.experiments.reporting import format_table

TRIALS = 32
ITERATIONS = 500
SPEEDUP_FLOOR = 10.0


def _starts(problem):
    rng = np.random.default_rng(42)
    return rng.normal(scale=5.0, size=(TRIALS, problem.d))


def run_reference(problem, starts):
    finals = []
    for s in range(TRIALS):
        trace = run_dgd(
            costs=problem.costs,
            faulty_ids=list(problem.faulty_ids),
            aggregator=make_aggregator("cge", problem.n, problem.f),
            attack=make_attack("gradient_reverse"),
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=starts[s],
            iterations=ITERATIONS,
            seed=s,
        )
        finals.append(trace.final_estimate)
    return np.stack(finals)


def run_batched(problem, starts):
    aggregator = make_aggregator("cge", problem.n, problem.f)
    attack = make_attack("gradient_reverse")
    trials = [
        BatchTrial(
            aggregator=aggregator,
            attack=attack,
            faulty_ids=problem.faulty_ids,
            seed=s,
            initial_estimate=starts[s],
        )
        for s in range(TRIALS)
    ]
    trace = run_dgd_batch(
        costs=problem.costs,
        trials=trials,
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
        iterations=ITERATIONS,
    )
    return trace.final_estimates


def test_engine_speedup(benchmark, out_dir):
    problem = paper_problem()
    starts = _starts(problem)

    t0 = time.perf_counter()
    reference_finals = run_reference(problem, starts)
    reference_seconds = time.perf_counter() - t0

    def timed_batch():
        return run_batched(problem, starts)

    batched_finals = benchmark.pedantic(timed_batch, rounds=3, iterations=1)
    t0 = time.perf_counter()
    run_batched(problem, starts)
    batched_seconds = time.perf_counter() - t0

    # Equivalence contract: same trials, same trajectories.
    max_error = float(np.abs(batched_finals - reference_finals).max())
    assert max_error < 1e-9

    speedup = reference_seconds / batched_seconds
    payload = {
        "workload": {
            "system": "appendix-J regression (n=6, f=1, d=2)",
            "aggregator": "cge",
            "attack": "gradient_reverse",
            "trials": TRIALS,
            "iterations": ITERATIONS,
        },
        "reference_seconds": round(reference_seconds, 6),
        "batched_seconds": round(batched_seconds, 6),
        "speedup": round(speedup, 2),
        "reference_trials_per_second": round(TRIALS / reference_seconds, 2),
        "batched_trials_per_second": round(TRIALS / batched_seconds, 2),
        "max_abs_error_vs_reference": max_error,
    }
    emit_json(out_dir, "engine", payload)
    text = format_table(
        headers=["engine", "seconds", "trials/sec", "speedup"],
        rows=[
            ["per-trial SynchronousSimulator", reference_seconds,
             TRIALS / reference_seconds, 1.0],
            ["BatchSimulator", batched_seconds,
             TRIALS / batched_seconds, speedup],
        ],
        title=(
            f"Sweep engine — {TRIALS} trials x {ITERATIONS} iterations,"
            " cge/gradient_reverse"
        ),
    )
    emit(out_dir, "engine", text)

    assert speedup >= SPEEDUP_FLOOR, (
        f"batch engine speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x floor"
    )
