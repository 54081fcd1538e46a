"""Benchmark: telemetry overhead on the batched sweep engine.

The telemetry tentpole's contract is "near-zero cost when off": with the
default ``NullRecorder`` attached, ``ProtocolEngine.run`` pays one
attribute check per round and nothing else, so trajectories and wall time
match the pre-telemetry loop.  This bench pins that contract with data:

* **disabled overhead** — times the instrumented ``sim.run(T)`` (null
  recorder) against a plain Python loop replicating the pre-telemetry run
  body (observe → fabricate → aggregate → project, no branch, no span),
  repeats interleaved, overhead summarized as the median of the
  within-repeat ratios.  The headline ``disabled_overhead_fraction`` must
  stay ≤ 3% — asserted here and gated against the committed baseline by
  ``check_bench_regression.py``.
* **recorded run** — times the same workload with a live JSONL recorder
  (per-stage wall time, per-round counters, spans) and writes the event
  stream to ``benchmarks/out/telemetry_smoke.jsonl``, which CI uploads
  as an artifact so a slow run can be post-mortemed with
  ``repro-exp telemetry summarize``.
"""

import statistics
import time

import numpy as np
from conftest import emit, emit_json

from repro.aggregators import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import BatchTrial
from repro.distsys.batch import BatchSimulator
from repro.experiments import paper_problem
from repro.experiments.reporting import format_table
from repro.telemetry.recorder import JsonlSink, Recorder

TRIALS = 16
ITERATIONS = 400
REPEATS = 31
OVERHEAD_CEILING = 0.03


def _make_sim(problem, starts):
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
    return BatchSimulator(
        costs=problem.costs,
        trials=trials,
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
    )


def _run_pre_telemetry(sim, iterations: int):
    """The pre-telemetry run body: four stages, no branch, no span."""
    sim._extend_horizon(iterations)
    for _ in range(iterations):
        round = sim.observe()
        sim.fabricate(round)
        sim.aggregate(round)
        sim._record_step(sim.project(round))
    return sim._run_result()


def _time_interleaved(make_sim, bodies) -> dict:
    """Per-repeat wall times for each body, repeats interleaved.

    Interleaving (A B C, A B C, ...) instead of timing each variant's
    repeats back-to-back keeps slow machine-level drift (thermal
    throttling, noisy CI neighbours) from landing entirely on one
    variant and masquerading as telemetry overhead.  One untimed warm-up
    pass precedes the measured repeats.  Returns ``{name: (times,
    result)}`` with the full per-repeat time list — overhead is then the
    *median over repeats of the within-repeat ratio*: adjacent-in-time
    pairs cancel drift, and the median absorbs contention bursts that hit
    a single repeat, while a real hot-path regression (which inflates
    every repeat's ratio) still trips the gate.
    """
    for _, body in bodies:
        body(make_sim())
    times = {name: [] for name, _ in bodies}
    results = {}
    for _ in range(REPEATS):
        for name, body in bodies:
            sim = make_sim()
            t0 = time.perf_counter()
            results[name] = body(sim)
            times[name].append(time.perf_counter() - t0)
    return {name: (times[name], results[name]) for name, _ in bodies}


def _overhead(times, baseline_times) -> float:
    """Median over interleaved repeats of the within-repeat overhead."""
    return statistics.median(
        t / b for t, b in zip(times, baseline_times)
    ) - 1.0


def test_telemetry_overhead(out_dir):
    problem = paper_problem()
    rng = np.random.default_rng(42)
    starts = rng.normal(scale=5.0, size=(TRIALS, problem.d))
    make_sim = lambda: _make_sim(problem, starts)  # noqa: E731

    # Recorded run: live JSONL recorder, stream kept for the CI artifact.
    smoke_path = out_dir / "telemetry_smoke.jsonl"

    def recorded_run(sim):
        recorder = Recorder(
            sinks=(JsonlSink(smoke_path),), progress_every=100
        )
        try:
            return sim.set_recorder(recorder).run(ITERATIONS)
        finally:
            recorder.close()

    timings = _time_interleaved(
        make_sim,
        [
            ("plain", lambda sim: _run_pre_telemetry(sim, ITERATIONS)),
            ("null", lambda sim: sim.run(ITERATIONS)),
            ("recorded", recorded_run),
        ],
    )
    plain_times, plain_trace = timings["plain"]
    null_times, null_trace = timings["null"]
    recorded_times, recorded_trace = timings["recorded"]
    plain_seconds = min(plain_times)
    null_seconds = min(null_times)
    recorded_seconds = min(recorded_times)

    # Determinism invariant: the instrumented loop is the same loop.
    max_error = float(
        np.abs(
            null_trace.final_estimates - plain_trace.final_estimates
        ).max()
    )
    assert max_error == 0.0, (
        f"instrumented run diverged from the plain loop by {max_error}"
    )
    assert (
        float(
            np.abs(
                recorded_trace.final_estimates
                - plain_trace.final_estimates
            ).max()
        )
        == 0.0
    ), "a live recorder perturbed the trajectory"
    events = smoke_path.read_text().count("\n")

    disabled_overhead = _overhead(null_times, plain_times)
    recorded_overhead = _overhead(recorded_times, plain_times)
    payload = {
        "workload": {
            "system": "appendix-J regression (n=6, f=1, d=2)",
            "aggregator": "cge",
            "attack": "gradient_reverse",
            "trials": TRIALS,
            "iterations": ITERATIONS,
            "repeats": REPEATS,
        },
        "plain_loop_seconds": round(plain_seconds, 6),
        "null_recorder_seconds": round(null_seconds, 6),
        "recorded_seconds": round(recorded_seconds, 6),
        "disabled_overhead_fraction": round(disabled_overhead, 4),
        "recorded_overhead_fraction": round(recorded_overhead, 4),
        "recorded_events": events,
        "max_abs_error_vs_plain_loop": max_error,
    }
    emit_json(out_dir, "telemetry", payload)
    text = format_table(
        headers=["loop", "seconds", "overhead vs plain"],
        rows=[
            ["pre-telemetry body (no branch)", plain_seconds, 0.0],
            ["instrumented run, NullRecorder", null_seconds,
             disabled_overhead],
            ["instrumented run, JSONL recorder", recorded_seconds,
             recorded_overhead],
        ],
        title=(
            f"Telemetry overhead — {TRIALS} trials x {ITERATIONS}"
            " iterations, cge/gradient_reverse"
        ),
    )
    emit(out_dir, "telemetry", text)

    assert disabled_overhead <= OVERHEAD_CEILING, (
        f"disabled-recorder overhead {disabled_overhead:.1%} exceeds the "
        f"{OVERHEAD_CEILING:.0%} ceiling"
    )
