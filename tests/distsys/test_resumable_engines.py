"""Resumable batched engines: resume ≡ uninterrupted, bit for bit.

The checkpoint/restart contract every orchestrated sweep leans on
(DESIGN.md, "resume ≡ uninterrupted"): driving an engine to its horizon
in chunks via ``run(T, start_round=k)`` — with or without a JSON
``state_dict`` round trip onto a *fresh* instance between chunks — must
reproduce the uninterrupted ``run(T)`` trajectory exactly.  The streams
are pre-sampled from per-trial tagged generators, so equality here is
``==``-level (0.0), not a tolerance.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.aggregators.registry import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import (
    AsyncBatchTrial,
    BatchAsynchronousSimulator,
    BatchDelayedDecentralizedSimulator,
    BatchSimulator,
    BatchTrial,
    BurstyDrop,
    DelayBatchTrial,
    FaultSchedule,
    IIDDrop,
    LinkDelay,
    Stragglers,
    complete_topology,
    ring_topology,
    uniform_delay,
)
from repro.functions.batched import stack_costs
from repro.optim.schedules import HarmonicSchedule, StepSchedule

ITERATIONS = 30
#: committed ``state_dict()`` of each engine at round SNAPSHOT_ROUND,
#: written by ``data/generate_engine_snapshots.py``
SNAPSHOTS = Path(__file__).parent / "data" / "engine_snapshots.json"
SNAPSHOT_ROUND = 11


def sync_engine(paper, seeds=(0, 1)):
    return BatchSimulator(
        costs=stack_costs(paper.costs),
        trials=[
            BatchTrial(
                aggregator=make_aggregator("cge", len(paper.costs), paper.f),
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                seed=seed,
            )
            for seed in seeds
        ],
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
    )


def async_engine(paper, seeds=(0, 1)):
    """Every stochastic condition type at once: the hardest resume case."""
    conditions = (
        LinkDelay(uniform_delay(0, 2)),
        IIDDrop(0.2),
        BurstyDrop(enter=0.2, exit=0.5, rate_in_burst=0.9),
        Stragglers({2: 2.0}),
    )
    return BatchAsynchronousSimulator(
        costs=stack_costs(paper.costs),
        trials=[
            AsyncBatchTrial(
                aggregator="cge",
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=conditions,
                staleness_bound=2,
                missing_policy="shrink",
                seed=seed,
            )
            for seed in seeds
        ],
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
    )


def delay_engine(paper, seeds=(0, 1), trace_rounds=None):
    """Fused graph engine over two topologies with a fault timeline:
    per-edge queues, stalls and a crash/warm-recover all in flight."""
    conditions = (
        LinkDelay(uniform_delay(0, 2)),
        IIDDrop(0.2),
        BurstyDrop(enter=0.2, exit=0.5, rate_in_burst=0.9),
    )
    return BatchDelayedDecentralizedSimulator(
        costs=stack_costs(paper.costs),
        trials=[
            DelayBatchTrial(
                aggregator="cwtm",
                topology=topology,
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=conditions,
                fault_schedule=FaultSchedule().crash(2, at=5, recover_at=15),
                staleness_bound=2,
                missing_policy=policy,
                seed=seed,
            )
            for topology, policy in (
                (complete_topology(len(paper.costs)), "masked"),
                (ring_topology(len(paper.costs), hops=2), "shrink"),
            )
            for seed in seeds
        ],
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
        trace_rounds=trace_rounds,
    )


ENGINES = [sync_engine, async_engine, delay_engine]
#: the engines that pre-sample per-trial network streams
NETWORK_ENGINES = [async_engine, delay_engine]


def chunked_estimates(make, paper, boundaries, through_json=False):
    """Drive a fresh engine across ``boundaries``, optionally serializing
    state to JSON and reloading onto a brand-new instance between chunks
    (the cross-process resume path)."""
    engine = make(paper)
    trace = None
    for boundary in boundaries:
        trace = engine.run(boundary, start_round=engine.iteration)
        if through_json and boundary != boundaries[-1]:
            state = json.loads(json.dumps(engine.state_dict()))
            engine = make(paper)
            engine.load_state(state)
    return trace.estimates


class TestResumeEqualsUninterrupted:
    @pytest.mark.parametrize("make", ENGINES)
    @pytest.mark.parametrize(
        "boundaries",
        [(7, ITERATIONS), (1, 2, ITERATIONS), (10, 20, ITERATIONS)],
    )
    def test_chunked_run_is_bit_identical(self, paper, make, boundaries):
        one_shot = make(paper).run(ITERATIONS).estimates
        chunked = chunked_estimates(make, paper, boundaries)
        assert np.array_equal(one_shot, chunked)

    @pytest.mark.parametrize("make", ENGINES)
    # delay_engine's queue has τ + 1 = 3 slots: 9, 10 and 11 meet every
    # rotation of the fused engine's circular queue.
    @pytest.mark.parametrize("boundary", [9, 10, 11])
    def test_json_state_round_trip_is_bit_identical(
        self, paper, make, boundary
    ):
        one_shot = make(paper).run(ITERATIONS).estimates
        resumed = chunked_estimates(
            make, paper, (boundary, ITERATIONS), through_json=True
        )
        assert np.array_equal(one_shot, resumed)

    @pytest.mark.parametrize("make", ENGINES)
    def test_trace_spans_full_horizon_after_resume(self, paper, make):
        engine = make(paper)
        engine.run(9, start_round=0)
        trace = engine.run(ITERATIONS, start_round=engine.iteration)
        # T+1 snapshots: the initial estimate plus one per round.
        assert trace.estimates.shape[0] == ITERATIONS + 1


class CountingSchedule(StepSchedule):
    """Wraps a schedule and counts the step sizes asked of it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def step_size(self, t):
        self.calls += 1
        return self.inner.step_size(t)

    @property
    def satisfies_robbins_monro(self):
        return self.inner.satisfies_robbins_monro


class TestChunkedRunsAreLinear:
    """A run cut into chunks asks each round's step size once, not once
    per chunk that covers it: extending the horizon fills new rounds only."""

    @pytest.mark.parametrize("make", ENGINES)
    def test_schedule_called_once_per_round(self, paper, make):
        schedule = CountingSchedule(paper.schedule)
        counted = dataclasses.replace(paper, schedule=schedule)
        engine = make(counted)
        horizon = 300
        for boundary in range(10, horizon + 1, 10):
            trace = engine.run(boundary, start_round=engine.iteration)
        # One schedule group (every trial shares the schedule).
        assert schedule.calls == horizon
        np.testing.assert_array_equal(
            trace.step_sizes, make(paper).run(horizon).step_sizes
        )

    @pytest.mark.parametrize("make", ENGINES)
    def test_resumed_engine_fills_its_prefix_once(self, paper, make):
        first = make(paper)
        first.run(SNAPSHOT_ROUND)
        state = json.loads(json.dumps(first.state_dict()))
        schedule = CountingSchedule(paper.schedule)
        engine = make(dataclasses.replace(paper, schedule=schedule))
        engine.load_state(state)
        trace = engine.run(ITERATIONS, start_round=SNAPSHOT_ROUND)
        assert schedule.calls == ITERATIONS
        np.testing.assert_array_equal(
            trace.step_sizes, make(paper).run(ITERATIONS).step_sizes
        )


class TestStepSizeFill:
    """``_grow_step_sizes`` writes each trial's own schedule bits, whether
    its group covers every trial (a slice) or only some (a scatter)."""

    @pytest.mark.parametrize("interleaved", [False, True])
    @pytest.mark.parametrize("boundaries", [(40,), (7, 8, 19, 40)])
    def test_bits_match_each_trials_schedule(
        self, paper, interleaved, boundaries
    ):
        other = HarmonicSchedule(scale=0.7, offset=3.0)
        schedules = [paper.schedule, other if interleaved else paper.schedule]
        schedules = schedules * 3
        engine = BatchSimulator(
            costs=stack_costs(paper.costs),
            trials=[
                BatchTrial(
                    aggregator=make_aggregator(
                        "cwtm", len(paper.costs), paper.f
                    ),
                    attack=make_attack("gradient_reverse"),
                    faulty_ids=tuple(paper.faulty_ids),
                    seed=seed,
                    schedule=schedule,
                )
                for seed, schedule in enumerate(schedules)
            ],
            constraint=paper.constraint,
            schedule=paper.schedule,
            initial_estimate=paper.initial_estimate,
        )
        assert len(engine._schedule_groups) == (2 if interleaved else 1)
        for boundary in boundaries:
            engine._grow_step_sizes(boundary)
        expected = np.array(
            [[schedule(t) for schedule in schedules] for t in range(40)]
        )
        assert np.array_equal(
            engine._etas.view(np.int64), expected.view(np.int64)
        )


class TestResumeValidation:
    @pytest.mark.parametrize("make", ENGINES)
    def test_start_round_must_match_engine_position(self, paper, make):
        engine = make(paper)
        engine.run(5, start_round=0)
        with pytest.raises(ValueError, match="start_round"):
            engine.run(ITERATIONS, start_round=3)

    @pytest.mark.parametrize("make", ENGINES)
    def test_horizon_must_exceed_start(self, paper, make):
        engine = make(paper)
        engine.run(10, start_round=0)
        with pytest.raises(ValueError, match="start_round"):
            engine.run(10, start_round=10)

    @pytest.mark.parametrize("make", ENGINES)
    def test_state_schema_is_checked(self, paper, make):
        engine = make(paper)
        engine.run(5, start_round=0)
        state = engine.state_dict()
        state["schema"] = "repro/other/v0"
        fresh = make(paper)
        with pytest.raises(ValueError, match="schema"):
            fresh.load_state(state)

    @pytest.mark.parametrize("make", ENGINES)
    def test_state_trial_count_is_checked(self, paper, make):
        engine = make(paper)
        engine.run(5, start_round=0)
        state = engine.state_dict()
        fresh = make(paper, seeds=(0,))
        with pytest.raises(ValueError):
            fresh.load_state(state)

    @pytest.mark.parametrize("make", ENGINES)
    def test_load_state_needs_a_fresh_engine(self, paper, make):
        engine = make(paper)
        engine.run(5, start_round=0)
        state = engine.state_dict()
        with pytest.raises(RuntimeError, match="freshly constructed"):
            engine.load_state(state)

    @pytest.mark.parametrize("make", NETWORK_ENGINES)
    def test_state_dict_needs_a_begun_run(self, paper, make):
        with pytest.raises(RuntimeError, match="begun run"):
            make(paper).state_dict()

    @pytest.mark.parametrize("make", NETWORK_ENGINES)
    @pytest.mark.parametrize(
        "name, match",
        [
            ("condition_states", "condition states"),
            ("net_rng_states", "network-stream"),
        ],
    )
    def test_per_trial_network_state_counts_are_checked(
        self, paper, make, name, match
    ):
        engine = make(paper)
        engine.run(5, start_round=0)
        state = engine.state_dict()
        state[name][0] = state[name][0][:-1]
        with pytest.raises(ValueError, match=match):
            make(paper).load_state(state)


class TestSnapshotsAcrossCommits:
    """Checkpoints written by an earlier build still load and resume.

    The fixture was captured once; an engine refactor must reproduce it
    key for key, and a fresh engine loading it must finish the run
    exactly as an uninterrupted one does.
    """

    @pytest.fixture()
    def snapshots(self):
        return json.loads(SNAPSHOTS.read_text())

    @pytest.mark.parametrize("make", ENGINES)
    def test_state_dict_matches_committed_snapshot(
        self, paper, make, snapshots
    ):
        engine = make(paper)
        engine.run(SNAPSHOT_ROUND)
        state = json.loads(json.dumps(engine.state_dict()))
        assert state == snapshots[make.__name__]

    @pytest.mark.parametrize("make", ENGINES)
    def test_committed_snapshot_resumes_to_uninterrupted(
        self, paper, make, snapshots
    ):
        one_shot = make(paper).run(ITERATIONS).estimates
        engine = make(paper)
        engine.load_state(snapshots[make.__name__])
        trace = engine.run(ITERATIONS, start_round=SNAPSHOT_ROUND)
        assert np.array_equal(one_shot, trace.estimates)

    def test_v1_delay_snapshot_resumes_to_uninterrupted(
        self, paper, snapshots
    ):
        """The fused engine's whole-run v1 snapshot still loads: its last
        rounds fill the rings, and the run finishes as if never cut."""
        state = snapshots["delay_engine_v1"]
        assert state["schema"] == "repro/batch-decentralized-delay-state/v1"
        one_shot = delay_engine(paper).run(ITERATIONS)
        engine = delay_engine(paper)
        engine.load_state(state)
        trace = engine.run(ITERATIONS, start_round=SNAPSHOT_ROUND)
        assert np.array_equal(one_shot.estimates, trace.estimates)
        assert np.array_equal(one_shot.step_sizes, trace.step_sizes)
        assert np.array_equal(one_shot.stalled, trace.stalled)
        assert np.array_equal(
            one_shot.staleness_sums, trace.staleness_sums
        )

    def test_v1_delay_snapshot_resumes_a_windowed_engine(
        self, paper, snapshots
    ):
        """A windowed engine keeps its planned rounds of the v1 snapshot's
        whole-run trajectory: a sweep cell's v1 partial resumes, not
        restarts, under the cell's final-round-only trace."""
        full = delay_engine(paper).run(ITERATIONS)
        engine = delay_engine(paper, trace_rounds=[ITERATIONS])
        engine.load_state(snapshots["delay_engine_v1"])
        trace = engine.run(ITERATIONS, start_round=SNAPSHOT_ROUND)
        kept = [0, SNAPSHOT_ROUND, ITERATIONS]
        assert trace.stored_rounds.tolist() == kept
        assert np.array_equal(trace.estimates, full.estimates[kept])
        assert np.array_equal(trace.stalled, full.stalled)

    def test_v2_delay_snapshot_holds_only_the_window(self, snapshots):
        """The v2 snapshot carries τ_max rounds of gradients and τ_max + 1
        of iterates (τ_max = 2), not the whole-run gradient history."""
        state = snapshots["delay_engine"]
        assert state["schema"] == "repro/batch-decentralized-delay-state/v2"
        assert "grad_history" not in state
        assert len(state["grad_window"]) == 2
        assert len(state["iterate_window"]) == 3
