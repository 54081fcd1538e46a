"""Quarantine parity: batched engines pinned to per-trial under attack.

DESIGN invariant 13: a batched engine quarantines exactly the trials its
per-trial reference engine does — same round, same reason — and holds
their estimates within 1e-9 of the reference trajectory, while trials
that survive are never perturbed (bit-wise) by their frozen neighbors.
"""

import numpy as np
import pytest

from repro.aggregators import make_aggregator
from repro.attacks.registry import make_attack
from repro.attacks.simple import RandomGaussianAttack
from repro.distsys import (
    AsyncBatchTrial,
    BatchSimulator,
    BatchTrial,
    DelayBatchTrial,
    IIDDrop,
    LinkDelay,
    complete_topology,
    ring_topology,
    run_asynchronous,
    run_asynchronous_batch,
    run_decentralized_delayed,
    run_decentralized_delayed_batch,
    uniform_delay,
)
from repro.distsys.batch_async import BatchAsynchronousSimulator
from repro.functions import SquaredDistanceCost
from repro.functions.batched import stack_costs
from repro.optim import BoxSet, paper_schedule

T = 25
N = 6
FAULTY = (4, 5)
SEEDS = (0, 1)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    costs = [SquaredDistanceCost(rng.normal(size=2)) for _ in range(N)]
    return {
        "costs": costs,
        "stack": stack_costs(costs),
        "constraint": BoxSet.symmetric(50.0, dim=2),
        "schedule": paper_schedule(),
        "x0": np.zeros(2),
    }


@pytest.mark.parametrize("aggregator", ["cwtm", "mean"])
@pytest.mark.parametrize("attack_name", ["nan", "overflow"])
@pytest.mark.parametrize("policy", ["shrink", "masked"])
@pytest.mark.parametrize("tau", [0, 2])
def test_async_batch_quarantine_pins_to_per_trial(
    problem, aggregator, attack_name, policy, tau
):
    conditions = (
        () if tau == 0 else (LinkDelay(uniform_delay(0, 2)), IIDDrop(0.2))
    )
    trials = [
        AsyncBatchTrial(
            aggregator=aggregator,
            attack=make_attack(attack_name),
            faulty_ids=FAULTY,
            conditions=conditions,
            staleness_bound=tau,
            missing_policy=policy,
            seed=seed,
        )
        for seed in SEEDS
    ]
    batch = run_asynchronous_batch(
        problem["stack"], trials, problem["constraint"],
        problem["schedule"], problem["x0"], T,
    )
    quarantined = {
        r["trial"]: (r["round"], r["reason"]) for r in batch.quarantined
    }
    for s, trial in enumerate(trials):
        reference = run_asynchronous(
            costs=problem["stack"],
            faulty_ids=list(trial.faulty_ids),
            aggregator=trial.aggregator,
            attack=trial.attack,
            constraint=problem["constraint"],
            schedule=problem["schedule"],
            initial_estimate=problem["x0"],
            iterations=T,
            conditions=list(trial.conditions),
            staleness_bound=tau,
            missing_policy=policy,
            seed=trial.seed,
        )
        record = reference.quarantine
        expected = (
            None if record is None else (record["round"], record["reason"])
        )
        assert quarantined.get(s) == expected
        gap = np.abs(batch.trial_estimates(s) - reference.estimates()).max()
        assert gap < 1e-9


@pytest.mark.parametrize("aggregator", ["cwtm", "mean"])
@pytest.mark.parametrize("attack_name", ["nan", "inf"])
@pytest.mark.parametrize(
    "topology_factory",
    [lambda: complete_topology(N), lambda: ring_topology(N, hops=2)],
    ids=["complete", "ring"],
)
@pytest.mark.parametrize("tau", [0, 2])
def test_delay_batch_quarantine_pins_to_per_trial(
    problem, aggregator, attack_name, topology_factory, tau
):
    topology = topology_factory()
    conditions = (
        () if tau == 0 else (LinkDelay(uniform_delay(0, 2)), IIDDrop(0.2))
    )
    per_trial = [
        BatchTrial(
            aggregator=make_aggregator(aggregator, N, len(FAULTY)),
            attack=make_attack(attack_name),
            faulty_ids=FAULTY,
            seed=seed,
        )
        for seed in SEEDS
    ]
    reference = run_decentralized_delayed(
        problem["costs"], topology, per_trial, problem["constraint"],
        problem["schedule"], problem["x0"], T,
        conditions=conditions, staleness_bound=tau, missing_policy="masked",
    )
    batched = [
        DelayBatchTrial(
            aggregator=make_aggregator(aggregator, N, len(FAULTY)),
            topology=topology,
            attack=make_attack(attack_name),
            faulty_ids=FAULTY,
            conditions=conditions,
            staleness_bound=tau,
            missing_policy="masked",
            seed=seed,
        )
        for seed in SEEDS
    ]
    batch = run_decentralized_delayed_batch(
        problem["costs"], batched, problem["constraint"],
        problem["schedule"], problem["x0"], T,
    )
    expected = {
        r["trial"]: (r["round"], r["reason"]) for r in reference.quarantined
    }
    got = {r["trial"]: (r["round"], r["reason"]) for r in batch.quarantined}
    assert got == expected
    assert np.abs(batch.estimates - reference.estimates).max() < 1e-9


def test_quarantine_actually_fires_under_nan_mean(problem):
    """Sanity: the parity above is not vacuous — mean + NaN quarantines."""
    trials = [
        AsyncBatchTrial(
            aggregator="mean",
            attack=make_attack("nan"),
            faulty_ids=FAULTY,
            seed=0,
        )
    ]
    batch = run_asynchronous_batch(
        problem["stack"], trials, problem["constraint"],
        problem["schedule"], problem["x0"], T,
    )
    assert batch.quarantined
    assert batch.quarantined[0]["reason"] == "aggregator_refused"
    assert np.isfinite(batch.estimates).all()


def test_survivors_unperturbed_bitwise_async(problem):
    """A frozen neighbor never changes a surviving trial's trajectory."""
    clean = AsyncBatchTrial(aggregator="cwtm", faulty_ids=(), seed=1)
    hostile = AsyncBatchTrial(
        aggregator="mean",
        attack=make_attack("nan"),
        faulty_ids=FAULTY,
        seed=0,
    )
    mixed = run_asynchronous_batch(
        problem["stack"], [hostile, clean], problem["constraint"],
        problem["schedule"], problem["x0"], T,
    )
    assert any(r["trial"] == 0 for r in mixed.quarantined)
    assert all(r["trial"] != 1 for r in mixed.quarantined)
    alone = run_asynchronous_batch(
        problem["stack"], [clean], problem["constraint"],
        problem["schedule"], problem["x0"], T,
    )
    assert np.array_equal(mixed.trial_estimates(1), alone.trial_estimates(0))


def test_survivors_unperturbed_bitwise_delay(problem):
    topology = complete_topology(N)
    clean = DelayBatchTrial(
        aggregator=make_aggregator("cwtm", N, len(FAULTY)),
        topology=topology,
        faulty_ids=(),
        seed=1,
    )
    hostile = DelayBatchTrial(
        aggregator=make_aggregator("mean", N, len(FAULTY)),
        topology=topology,
        attack=make_attack("nan"),
        faulty_ids=FAULTY,
        seed=0,
    )
    mixed = run_decentralized_delayed_batch(
        problem["costs"], [hostile, clean], problem["constraint"],
        problem["schedule"], problem["x0"], T,
    )
    assert any(r["trial"] == 0 for r in mixed.quarantined)
    assert all(r["trial"] != 1 for r in mixed.quarantined)
    alone = run_decentralized_delayed_batch(
        problem["costs"], [clean], problem["constraint"],
        problem["schedule"], problem["x0"], T,
    )
    # The delayed trace's estimate axis order is (round, trial, agent, d).
    assert np.array_equal(mixed.estimates[:, 1], alone.estimates[:, 0])


def test_quarantine_state_roundtrip_async(problem):
    """state_dict/load_state carries the guard: resume ≡ uninterrupted."""
    trials = [
        AsyncBatchTrial(
            aggregator="mean",
            attack=make_attack("nan"),
            faulty_ids=FAULTY,
            seed=0,
        ),
        AsyncBatchTrial(aggregator="cwtm", faulty_ids=(), seed=1),
    ]

    def make_engine():
        return BatchAsynchronousSimulator(
            costs=problem["stack"],
            trials=trials,
            constraint=problem["constraint"],
            schedule=problem["schedule"],
            initial_estimate=problem["x0"],
        )

    full = make_engine().run(T)
    first = make_engine()
    first.run(10)
    state = first.state_dict()
    second = make_engine()
    second.load_state(state)
    resumed = second.run(T, start_round=10)
    assert np.array_equal(full.estimates, resumed.estimates)
    assert full.quarantined == resumed.quarantined
    assert resumed.quarantined  # the NaN trial froze before the snapshot


def test_frozen_server_trials_stop_consuming_their_attack_streams(problem):
    """The server engine's round plan drops a trial when it freezes: its
    attack stream stops at the quarantine round, while a surviving
    neighbour's keeps advancing one draw a round."""
    loud = RandomGaussianAttack(standard_deviation=1e120)
    trials = [
        BatchTrial(
            aggregator=make_aggregator("mean", N, len(FAULTY)),
            attack=loud,
            faulty_ids=FAULTY,
            seed=0,
        ),
        BatchTrial(
            aggregator=make_aggregator("cwtm", N, len(FAULTY)),
            attack=RandomGaussianAttack(),
            faulty_ids=FAULTY,
            seed=1,
        ),
    ]
    engine = BatchSimulator(
        costs=problem["stack"],
        trials=trials,
        constraint=problem["constraint"],
        schedule=problem["schedule"],
        initial_estimate=problem["x0"],
    )
    trace = engine.run(T)
    assert trace.quarantined == [
        {"trial": 0, "round": 0, "reason": "diverged"}
    ]
    for trial, rounds in ((0, 1), (1, T)):
        reference = np.random.default_rng(trials[trial].seed)
        for _ in range(rounds):
            reference.normal(0.0, 1.0, size=(len(FAULTY), 2))
        assert (
            engine.rngs[trial].bit_generator.state
            == reference.bit_generator.state
        )
