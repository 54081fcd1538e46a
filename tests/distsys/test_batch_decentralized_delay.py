"""Fused delay-tolerant batch engine: pinning, fusion, and resume.

The headline contract of
:class:`~repro.distsys.batch_decentralized_delay.BatchDelayedDecentralizedSimulator`
is **bit-for-bit** agreement with the per-trial
:class:`~repro.distsys.decentralized_delay.DelayedDecentralizedSimulator`
across aggregator × attack × topology × τ × drop × policy × seed — not
just the degenerate τ = 0 / clean-network configuration, but lossy stale
networks, stalls, crash/warm-recover and Byzantine-from-round timelines.
Everything the engine computes is per-receiver-row, so fusing an entire
sweep onto one batch axis must not move a single bit of any trial.
"""

import json

import numpy as np
import pytest

import repro.distsys.faults as faults
from repro.aggregators import make_aggregator
from repro.attacks import CrashAttack
from repro.attacks.registry import make_attack
from repro.distsys import (
    AsyncBatchTrial,
    BatchAsynchronousSimulator,
    BatchDelayedDecentralizedSimulator,
    BatchTrial,
    DelayBatchTrial,
    DelayedDecentralizedSimulator,
    FaultSchedule,
    IIDDrop,
    LinkDelay,
    complete_topology,
    erdos_renyi_topology,
    ring_topology,
    run_decentralized_delayed,
    run_decentralized_delayed_batch,
    uniform_delay,
)

ITERATIONS = 40

AGGREGATORS = ("cwtm", "cge_mean", "median", "mean")
ATTACKS = (None, "gradient_reverse", "random", "edge_equivocation")
POLICIES = ("masked", "shrink")


def topologies(n, seed=0):
    return (
        complete_topology(n),
        ring_topology(n, hops=2),
        erdos_renyi_topology(n, p=0.7, seed=seed),
    )


def cell_conditions(tau, drop_rate):
    conditions = []
    if tau > 0 or drop_rate > 0:
        conditions.append(LinkDelay(uniform_delay(0, 3)))
    if drop_rate > 0:
        conditions.append(IIDDrop(drop_rate))
    return tuple(conditions)


def reference_cell(
    paper,
    topology,
    aggregator,
    attack,
    tau,
    drop_rate,
    policy,
    seeds=(0, 1),
    fault_schedule=None,
    mixing=True,
):
    trials = [
        BatchTrial(
            aggregator=make_aggregator(aggregator, paper.n, paper.f),
            attack=None if attack is None else make_attack(attack),
            faulty_ids=() if attack is None else tuple(paper.faulty_ids),
            seed=seed,
        )
        for seed in seeds
    ]
    return run_decentralized_delayed(
        paper.costs,
        topology,
        trials,
        paper.constraint,
        paper.schedule,
        paper.initial_estimate,
        ITERATIONS,
        mixing=mixing,
        conditions=cell_conditions(tau, drop_rate),
        fault_schedule=fault_schedule,
        staleness_bound=tau,
        missing_policy=policy,
    )


def batch_cell_trials(
    paper,
    topology,
    aggregator,
    attack,
    tau,
    drop_rate,
    policy,
    seeds=(0, 1),
    fault_schedule=None,
):
    return [
        DelayBatchTrial(
            aggregator=make_aggregator(aggregator, paper.n, paper.f),
            topology=topology,
            attack=None if attack is None else make_attack(attack),
            faulty_ids=() if attack is None else tuple(paper.faulty_ids),
            conditions=cell_conditions(tau, drop_rate),
            fault_schedule=fault_schedule,
            staleness_bound=tau,
            missing_policy=policy,
            seed=seed,
        )
        for seed in seeds
    ]


def assert_cell_matches(trace, span, reference, context):
    assert (trace.estimates[:, span] == reference.estimates).all(), context
    assert (trace.stalled[:, span] == reference.stalled).all(), context
    assert (
        trace.usable_edge_counts[:, span] == reference.usable_edge_counts
    ).all(), context
    assert (
        trace.staleness_sums[:, span] == reference.staleness_sums
    ).all(), context


class TestPinsToPerTrialEngine:
    """One fused engine == one per-trial engine per cell, bit for bit."""

    @pytest.mark.parametrize("attack", ATTACKS)
    def test_across_everything(self, paper, attack):
        # One batch fusing topology × aggregator × (τ, drop) × policy for
        # this attack: 96 trials of wildly different configurations ride
        # one tensor program, and every cell must match its own dedicated
        # per-trial engine exactly.
        cells = [
            (topology, aggregator, tau, drop_rate, policy)
            for topology in topologies(paper.n)
            for aggregator in AGGREGATORS
            for tau, drop_rate in ((0, 0.0), (2, 0.3))
            for policy in POLICIES
        ]
        trials = []
        for topology, aggregator, tau, drop_rate, policy in cells:
            trials.extend(
                batch_cell_trials(
                    paper, topology, aggregator, attack, tau, drop_rate,
                    policy,
                )
            )
        trace = run_decentralized_delayed_batch(
            paper.costs, trials, paper.constraint, paper.schedule,
            paper.initial_estimate, ITERATIONS,
        )
        for c, (topology, aggregator, tau, drop_rate, policy) in enumerate(
            cells
        ):
            reference = reference_cell(
                paper, topology, aggregator, attack, tau, drop_rate, policy,
            )
            assert_cell_matches(
                trace,
                slice(2 * c, 2 * c + 2),
                reference,
                (topology.name, aggregator, attack, tau, drop_rate, policy),
            )

    def test_degenerate_is_bit_for_bit(self, paper):
        # τ = 0 on a clean network is the synchronous limit: the exact
        # kernels run every round and the trajectories are bitwise equal
        # (asserted inside test_across_everything's (0, 0.0) cells; this
        # spells the headline out on its own).
        topology = ring_topology(paper.n, hops=2)
        trace = run_decentralized_delayed_batch(
            paper.costs,
            batch_cell_trials(
                paper, topology, "cwtm", "gradient_reverse", 0, 0.0, "masked",
            ),
            paper.constraint, paper.schedule, paper.initial_estimate,
            ITERATIONS,
        )
        reference = reference_cell(
            paper, topology, "cwtm", "gradient_reverse", 0, 0.0, "masked",
        )
        assert (trace.estimates == reference.estimates).all()
        assert not trace.stalled.any()
        assert trace.missing_fraction().max() == 0.0

    @pytest.mark.parametrize(
        "fault_schedule",
        [
            FaultSchedule().crash(2, at=5, recover_at=15),
            FaultSchedule().byzantine(4, from_round=20),
            FaultSchedule()
            .crash(2, at=5, recover_at=15)
            .byzantine(4, from_round=20),
        ],
        ids=["crash-warm-recover", "byzantine-from-round", "both"],
    )
    def test_fault_timelines(self, paper, fault_schedule):
        cells = [
            (topology, aggregator, policy)
            for topology in (
                complete_topology(paper.n),
                ring_topology(paper.n, hops=2),
            )
            for aggregator in ("cwtm", "cge_mean")
            for policy in POLICIES
        ]
        trials = []
        for topology, aggregator, policy in cells:
            trials.extend(
                batch_cell_trials(
                    paper, topology, aggregator, "gradient_reverse", 2, 0.3,
                    policy, fault_schedule=fault_schedule,
                )
            )
        trace = run_decentralized_delayed_batch(
            paper.costs, trials, paper.constraint, paper.schedule,
            paper.initial_estimate, ITERATIONS,
        )
        assert trace.stalled.any()  # the timeline must actually bite
        for c, (topology, aggregator, policy) in enumerate(cells):
            reference = reference_cell(
                paper, topology, aggregator, "gradient_reverse", 2, 0.3,
                policy, fault_schedule=fault_schedule,
            )
            assert_cell_matches(
                trace,
                slice(2 * c, 2 * c + 2),
                reference,
                (topology.name, aggregator, policy),
            )

    def test_mixing_false_also_pins(self, paper):
        topology = ring_topology(paper.n, hops=2)
        trials = batch_cell_trials(
            paper, topology, "cwtm", "gradient_reverse", 2, 0.3, "masked",
        )
        trace = run_decentralized_delayed_batch(
            paper.costs, trials, paper.constraint, paper.schedule,
            paper.initial_estimate, ITERATIONS, mixing=False,
        )
        reference = reference_cell(
            paper, topology, "cwtm", "gradient_reverse", 2, 0.3, "masked",
            mixing=False,
        )
        assert (trace.estimates == reference.estimates).all()


class TestBatchCompositionIndependence:
    def test_solo_trial_bits_survive_any_batch(self, paper):
        # The orchestrated sweep relies on this: a trial's trajectory is
        # the same whether it runs alone or fused next to peers on other
        # graphs, bounds and policies.
        solo_trials = batch_cell_trials(
            paper, ring_topology(paper.n, hops=2), "cwtm",
            "gradient_reverse", 2, 0.3, "shrink", seeds=(0,),
        )
        solo = run_decentralized_delayed_batch(
            paper.costs, solo_trials, paper.constraint, paper.schedule,
            paper.initial_estimate, ITERATIONS,
        )
        peers = batch_cell_trials(
            paper, complete_topology(paper.n), "median", "random", 1, 0.5,
            "masked", seeds=(7, 8),
        )
        fused = run_decentralized_delayed_batch(
            paper.costs, peers + solo_trials + peers, paper.constraint,
            paper.schedule, paper.initial_estimate, ITERATIONS,
        )
        assert (fused.estimates[:, 2:3] == solo.estimates).all()
        assert (fused.stalled[:, 2:3] == solo.stalled).all()


class TestTraceDiagnostics:
    def test_per_trial_edge_counts(self, paper):
        trials = batch_cell_trials(
            paper, complete_topology(paper.n), "cwtm", None, 0, 0.0,
            "masked", seeds=(0,),
        ) + batch_cell_trials(
            paper, ring_topology(paper.n, hops=2), "cwtm", None, 0, 0.0,
            "masked", seeds=(0,),
        )
        trace = run_decentralized_delayed_batch(
            paper.costs, trials, paper.constraint, paper.schedule,
            paper.initial_estimate, 5,
        )
        assert trace.edges.tolist() == [
            complete_topology(paper.n).directed_edges()[0].size,
            ring_topology(paper.n, hops=2).directed_edges()[0].size,
        ]
        # clean network: every edge usable, nothing missing, zero staleness
        assert trace.missing_fraction().max() == 0.0
        assert np.nanmax(trace.staleness_profile()) == 0.0
        assert trace.stalled_agent_rounds().tolist() == [0, 0]


class TestValidation:
    def test_rejects_missing_topology(self, paper):
        with pytest.raises(ValueError, match="needs a topology"):
            BatchDelayedDecentralizedSimulator(
                paper.costs,
                [DelayBatchTrial(aggregator="cwtm")],
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
            )

    def test_rejects_unknown_policy(self, paper):
        with pytest.raises(ValueError, match="missing-neighbor policy"):
            BatchDelayedDecentralizedSimulator(
                paper.costs,
                [
                    DelayBatchTrial(
                        aggregator="cwtm",
                        topology=complete_topology(paper.n),
                        missing_policy="ignore",
                    )
                ],
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
            )

    def test_rejects_negative_staleness(self, paper):
        with pytest.raises(ValueError, match="staleness bound"):
            BatchDelayedDecentralizedSimulator(
                paper.costs,
                [
                    DelayBatchTrial(
                        aggregator="cwtm",
                        topology=complete_topology(paper.n),
                        staleness_bound=-1,
                    )
                ],
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
            )

    def test_rejects_aggregator_without_masked_kernel(self, paper):
        with pytest.raises(ValueError, match="no masked neighborhood kernel"):
            BatchDelayedDecentralizedSimulator(
                paper.costs,
                [
                    DelayBatchTrial(
                        aggregator=make_aggregator("krum", paper.n, paper.f),
                        topology=complete_topology(paper.n),
                    )
                ],
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
            )

    def test_stand_alone_step_is_rejected(self, paper):
        engine = BatchDelayedDecentralizedSimulator(
            paper.costs,
            [
                DelayBatchTrial(
                    aggregator="cwtm", topology=complete_topology(paper.n)
                )
            ],
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
        )
        with pytest.raises(RuntimeError, match="pre-sampled horizon"):
            engine.step()


class TestResume:
    def make_engine(self, paper):
        trials = batch_cell_trials(
            paper, ring_topology(paper.n, hops=2), "cwtm",
            "gradient_reverse", 2, 0.3, "shrink",
            fault_schedule=FaultSchedule().crash(2, at=5, recover_at=15),
        )
        return BatchDelayedDecentralizedSimulator(
            paper.costs, trials, paper.constraint, paper.schedule,
            paper.initial_estimate,
        )

    def test_chunked_run_is_bit_identical(self, paper):
        full = self.make_engine(paper).run(ITERATIONS)
        engine = self.make_engine(paper)
        engine.run(7)
        engine.run(23, start_round=7)
        chunked = engine.run(ITERATIONS, start_round=23)
        assert (chunked.estimates == full.estimates).all()
        assert (chunked.stalled == full.stalled).all()
        assert (chunked.staleness_sums == full.staleness_sums).all()

    def test_json_state_round_trip_resumes_bit_identical(self, paper):
        full = self.make_engine(paper).run(ITERATIONS)
        first = self.make_engine(paper)
        first.run(13)
        state = json.loads(json.dumps(first.state_dict()))
        resumed_engine = self.make_engine(paper)
        resumed_engine.load_state(state)
        resumed = resumed_engine.run(
            ITERATIONS, start_round=resumed_engine.iteration
        )
        assert (resumed.estimates == full.estimates).all()
        assert (resumed.stalled == full.stalled).all()
        assert (
            resumed.usable_edge_counts == full.usable_edge_counts
        ).all()
        assert (resumed.staleness_sums == full.staleness_sums).all()

    def test_state_dict_rejects_mid_chunk(self, paper):
        engine = self.make_engine(paper)
        with pytest.raises(RuntimeError, match="begun run"):
            engine.state_dict()

    def test_load_state_rejects_wrong_schema(self, paper):
        engine = self.make_engine(paper)
        with pytest.raises(ValueError, match="schema"):
            engine.load_state({"schema": "nope"})

    def test_load_state_checks_the_ring_window(self, paper):
        # A snapshot must hold exactly the τ_max gradient rounds (and
        # τ_max + 1 iterate rounds) a resumed round can gather.
        engine = self.make_engine(paper)
        engine.run(13)
        state = json.loads(json.dumps(engine.state_dict()))
        state["grad_window"] = state["grad_window"][1:]
        with pytest.raises(ValueError, match="window"):
            self.make_engine(paper).load_state(state)

    def test_snapshot_queue_is_the_per_trial_queue(self, paper):
        # The fused queue is circular; a snapshot rotates it back to the
        # per-trial engine's shifted layout (slot j arrives in j rounds).
        # τ = 3 makes the queue 4 slots long, so k = 8..11 meets every
        # rotation.
        topology = ring_topology(paper.n, hops=2)
        engine = BatchDelayedDecentralizedSimulator(
            paper.costs,
            batch_cell_trials(
                paper, topology, "cwtm", "gradient_reverse", 3, 0.2,
                "masked",
            ),
            paper.constraint, paper.schedule, paper.initial_estimate,
        )
        for k in (8, 9, 10, 11):
            engine.run(k, start_round=engine.iteration)
            state = engine.state_dict()
            reference = DelayedDecentralizedSimulator(
                costs=paper.costs,
                topology=topology,
                trials=[
                    BatchTrial(
                        aggregator=make_aggregator("cwtm", paper.n, paper.f),
                        attack=make_attack("gradient_reverse"),
                        faulty_ids=tuple(paper.faulty_ids),
                        seed=seed,
                    )
                    for seed in (0, 1)
                ],
                constraint=paper.constraint,
                schedule=paper.schedule,
                initial_estimate=paper.initial_estimate,
                conditions=cell_conditions(3, 0.2),
                staleness_bound=3,
                missing_policy="masked",
            )
            reference.run(k)
            assert (reference._pending >= 0).any(), k
            assert np.array_equal(state["pending"], reference._pending), k
            assert np.array_equal(state["freshest"], reference._freshest), k

    def test_run_validates_start_round(self, paper):
        engine = self.make_engine(paper)
        engine.run(5)
        with pytest.raises(ValueError, match="start_round"):
            engine.run(10, start_round=3)
        with pytest.raises(ValueError, match="absolute horizon"):
            engine.run(5, start_round=5)


def fused_block_engine(paper):
    """Stalls and a crash-and-recover timeline under delays and drops on
    three topologies, beside clean trials silenced by the crash attack."""
    trials = []
    for topology in topologies(paper.n):
        trials += batch_cell_trials(
            paper, topology, "cwtm", "gradient_reverse", 2, 0.3,
            "shrink",
            fault_schedule=FaultSchedule().crash(2, at=5, recover_at=15),
        )
    # Clean trials (no network conditions) ride beside them.
    trials += batch_cell_trials(
        paper, ring_topology(paper.n, hops=2), "median", "crash", 0,
        0.0, "masked",
    )
    return BatchDelayedDecentralizedSimulator(
        paper.costs, trials, paper.constraint, paper.schedule,
        paper.initial_estimate,
    )


def async_block_engine(paper):
    """A warm-restart crash-and-recover timeline under delays and drops
    with both missing-value policies, beside clean trials silenced by
    the crash attack."""
    warm = FaultSchedule().crash(2, at=5, recover_at=15, recovery="warm")
    trials = [
        AsyncBatchTrial(
            aggregator=aggregator,
            attack=make_attack("gradient_reverse"),
            faulty_ids=tuple(paper.faulty_ids),
            conditions=cell_conditions(2, 0.3),
            fault_schedule=warm,
            staleness_bound=2,
            missing_policy=policy,
            seed=seed,
        )
        for aggregator, policy in (("cwtm", "masked"), ("cge", "shrink"))
        for seed in (0, 1, 2)
    ]
    trials += [
        AsyncBatchTrial(
            aggregator="cge",
            attack=CrashAttack(crash_at=3),
            faulty_ids=tuple(paper.faulty_ids),
            missing_policy="shrink",
            seed=seed,
        )
        for seed in (0, 1, 2)
    ]
    return BatchAsynchronousSimulator(
        paper.costs, trials, paper.constraint, paper.schedule,
        paper.initial_estimate,
    )


#: each batched network engine with the trace fields a run must replay
BLOCK_ENGINES = [
    pytest.param(
        fused_block_engine,
        ("estimates", "stalled", "usable_edge_counts", "staleness_sums"),
        id="fused",
    ),
    pytest.param(
        async_block_engine,
        ("estimates", "stalled", "missing_counts", "usable_counts",
         "staleness_sums"),
        id="async",
    ),
]


@pytest.mark.parametrize("make, fields", BLOCK_ENGINES)
class TestBlockPresampling:
    """Network, fault and silence realisations are sampled one bounded
    block at a time, in both batched network engines; no block length
    may move a bit of any trial."""

    def assert_replays(self, trace, whole, fields):
        for name in fields:
            assert (getattr(trace, name) == getattr(whole, name)).all(), name

    # None: the default budget.
    @pytest.mark.parametrize("budget", [1, 5_000, 20_000, None])
    def test_any_block_length_replays_the_one_shot_run(
        self, paper, monkeypatch, make, fields, budget
    ):
        # A budget past the whole horizon samples the run in one shot.
        with monkeypatch.context() as patched:
            patched.setattr(faults, "_PRESAMPLE_BUDGET", 1 << 62)
            engine = make(paper)
            whole = engine.run(ITERATIONS)
            assert engine._networks._block_rows >= ITERATIONS
        if budget is not None:
            monkeypatch.setattr(faults, "_PRESAMPLE_BUDGET", budget)
        engine = make(paper)
        blocked = engine.run(ITERATIONS)
        if budget is not None:
            assert engine._networks._block_rows < ITERATIONS
        self.assert_replays(blocked, whole, fields)

    @pytest.mark.parametrize("budget", [5_000, 20_000])
    def test_blocks_stop_at_chunk_boundaries(
        self, paper, monkeypatch, make, fields, budget
    ):
        # Blocks of several rounds never run past a chunk's horizon, so
        # every chunk boundary can snapshot and resume bit for bit.
        whole = make(paper).run(ITERATIONS)
        monkeypatch.setattr(faults, "_PRESAMPLE_BUDGET", budget)
        engine = make(paper)
        assert 1 < engine._networks._block_rows
        for boundary in (3, 13, 29):
            engine.run(boundary, start_round=engine.iteration)
            state = json.loads(json.dumps(engine.state_dict()))
            engine = make(paper)
            engine.load_state(state)
        resumed = engine.run(ITERATIONS, start_round=29)
        self.assert_replays(resumed, whole, fields)
