"""Large-n guards: the graph path and the trace diagnostics stay sparse.

A dense ``n x n`` array anywhere between the topology generators and the
decentralized engine costs ``n^2`` bytes at least (256 MiB at n = 16384),
a one-shot pairwise-difference tensor in the consensus-gap reductions
costs ``h^2 d`` floats, and a whole-run ``(T, S, E)`` or ``(T, S, n, d)``
tensor in the delay engine grows by megabytes per round (and a whole-run
``(T, S, n)`` tensor in the asynchronous engine by ≈ 17 · S · n bytes).
These tests run those paths under ``tracemalloc`` at sizes where any such
mistake would blow the bound.
"""

import tracemalloc

import numpy as np
import pytest

import repro.distsys.decentralized as decentralized
from repro.aggregators.registry import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import (
    AsyncBatchTrial,
    BatchAsynchronousSimulator,
    BatchTrial,
    DelayBatchTrial,
    IIDDrop,
    LinkDelay,
    random_regular_topology,
    ring_topology,
    run_decentralized_delayed_batch,
    uniform_delay,
)
from repro.distsys.decentralized import (
    DecentralizedSimulator,
    DecentralizedTrace,
)
from repro.functions.batched import stack_costs
from repro.functions.least_squares import LeastSquaresCost
from repro.optim.projections import BoxSet
from repro.optim.schedules import HarmonicSchedule

N = 16384


def _peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_stack():
    rng = np.random.default_rng(0)
    designs = rng.normal(size=(N, 1, 2))
    responses = designs[:, 0, :] @ np.array([0.5, -0.25])
    return stack_costs(
        [LeastSquaresCost(designs[i], responses[i : i + 1]) for i in range(N)]
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: ring_topology(N, hops=2),
        lambda: random_regular_topology(N, degree=4, seed=1),
    ],
    ids=["ring", "random_regular"],
)
def test_generator_to_engine_path_has_no_dense_matrix(large_stack, build):
    def run():
        topology = build()
        simulator = DecentralizedSimulator(
            large_stack,
            topology,
            [
                BatchTrial(
                    aggregator=make_aggregator("cwtm", N, 1),
                    attack=make_attack("gradient_reverse"),
                    faulty_ids=(3,),
                    seed=0,
                )
            ],
            BoxSet.symmetric(3.0, dim=2),
            HarmonicSchedule(scale=0.5),
            np.zeros(2),
        )
        return topology, simulator.run(2)

    (topology, trace), peak = _peak_bytes(run)
    # The dense bool adjacency alone is N^2 bytes = 256 MiB.
    assert peak < 64 * 2**20
    assert "_adjacency_cache" not in vars(topology)
    assert np.isfinite(trace.estimates).all()


def test_round_gathers_reuse_their_buffers(large_stack):
    # The (S, n, k, d) neighborhood gathers are the round's largest
    # arrays; each is written into a buffer kept across rounds, so a
    # large-n round allocates no fresh block for them.
    simulator = DecentralizedSimulator(
        large_stack,
        ring_topology(N, hops=2),
        [BatchTrial(aggregator=make_aggregator("cwtm", N, 1), seed=0)],
        BoxSet.symmetric(3.0, dim=2),
        HarmonicSchedule(scale=0.5),
        np.zeros(2),
    )
    views = []
    simulator._begin_run(2)  # the step sizes a run() fills first
    for _ in range(2):
        round = simulator.observe()
        simulator.fabricate(round)
        simulator.aggregate(round)
        simulator.project(round)
        views.append(round.views)
    assert views[0] is views[1]
    assert views[0].shape == (1, N, 5, 2)


@pytest.fixture(scope="module")
def large_graph():
    return random_regular_topology(N, degree=4, seed=1)


def test_delay_engine_memory_does_not_grow_with_the_horizon(
    large_stack, large_graph
):
    # Stale gossip under delays and drops at n = 16384: the fused engine
    # keeps (τ + 1)-round rings, one bounded block of pre-sampled network
    # realisations and, under trace_rounds=[T], two stored rounds, so
    # its peak must not grow with T.  Any whole-run (T, S, E) or
    # (T, S, n, d) tensor costs ≈ 0.5–1 MB a round here, so 30 more
    # rounds would break the 8 MB bound.
    def run(horizon):
        trials = [
            DelayBatchTrial(
                aggregator=make_aggregator("cwtm", N, 1),
                topology=large_graph,
                attack=make_attack("gradient_reverse"),
                faulty_ids=(3,),
                conditions=(LinkDelay(uniform_delay(0, 2)), IIDDrop(0.1)),
                staleness_bound=2,
                seed=seed,
            )
            for seed in (0, 1)
        ]
        return lambda: run_decentralized_delayed_batch(
            large_stack,
            trials,
            BoxSet.symmetric(3.0, dim=2),
            HarmonicSchedule(scale=0.5),
            np.zeros(2),
            horizon,
            trace_rounds=[horizon],
        )

    short, short_peak = _peak_bytes(run(10))
    long, long_peak = _peak_bytes(run(40))
    assert long_peak - short_peak <= 8 * 2**20
    assert max(short_peak, long_peak) < 80 * 2**20
    for trace, horizon in ((short, 10), (long, 40)):
        assert trace.stored_rounds.tolist() == [0, horizon]
        assert np.isfinite(trace.estimates[-1]).all()
        assert trace.stalled.shape == (horizon, 2, N)


#: the asynchronous engine's uplinks in the horizon-memory test
UPLINKS = 4096


@pytest.fixture(scope="module")
def uplink_stack():
    rng = np.random.default_rng(0)
    designs = rng.normal(size=(UPLINKS, 1, 2))
    responses = designs[:, 0, :] @ np.array([0.5, -0.25])
    return stack_costs(
        [
            LeastSquaresCost(designs[i], responses[i : i + 1])
            for i in range(UPLINKS)
        ]
    )


def _uplink_run(stack, horizon):
    """The batched asynchronous engine at n = UPLINKS, S = 2, under delays
    and drops, run to ``horizon``: ``(engine, trace)``."""
    engine = BatchAsynchronousSimulator(
        stack,
        [
            AsyncBatchTrial(
                aggregator="cwtm",
                conditions=(LinkDelay(uniform_delay(0, 2)), IIDDrop(0.1)),
                staleness_bound=2,
                missing_policy="masked",
                seed=seed,
            )
            for seed in (0, 1)
        ],
        BoxSet.symmetric(3.0, dim=2),
        HarmonicSchedule(scale=0.5),
        np.zeros(2),
    )
    return engine, engine.run(horizon)


def test_async_engine_memory_grows_only_by_its_trace(uplink_stack):
    # The batched asynchronous engine at n = 4096 uplinks, S = 2, under
    # delays and drops: its realisations are sampled in bounded blocks
    # (46 rounds here), so between two horizons the peak may grow only by
    # what every round leaves behind, its trace: the iterate trajectory,
    # the step sizes and the per-round counters, ≈ 100 B a round.  A
    # whole-run (T, S, n) delay, send or view tensor would add ≈ 8 KB to
    # 66 KB a round.  Both horizons run past two full blocks, so both
    # peaks come from refilling a block, not from its first allocation.
    def run(horizon):
        return lambda: _uplink_run(uplink_stack, horizon)

    def trace_bytes(trace):
        return sum(
            getattr(trace, name).nbytes
            for name in (
                "estimates", "step_sizes", "stalled", "missing_counts",
                "usable_counts", "staleness_sums",
            )
        )

    (engine, short), short_peak = _peak_bytes(run(100))
    (_, long), long_peak = _peak_bytes(run(170))
    assert 2 * engine._networks._block_rows < 100
    # 32 KiB covers NumPy's small internal caches, which differ by a few
    # KB between two runs of one horizon.
    assert long_peak - short_peak <= (
        trace_bytes(long) - trace_bytes(short) + 2**15
    )
    assert np.isfinite(long.estimates[-1]).all()
    assert (long.missing_counts > 0).any()


def test_async_block_sampling_writes_in_place(uplink_stack):
    # Each trial's conditions refine its rows of the block buffers in
    # place: no per-trial (rows, W) accumulator is copied in, and a
    # condition covering every link applies no mask.  The peak of a
    # 100-round run (46-round blocks) is ≈ 5.9 MiB; a fresh accumulator
    # per trial and block plus a masked copy of every condition's draws
    # took it to ≈ 10.4 MiB.
    (engine, trace), peak = _peak_bytes(lambda: _uplink_run(uplink_stack, 100))
    assert 2 * engine._networks._block_rows < 100
    assert peak <= 8 * 2**20
    assert np.isfinite(trace.estimates[-1]).all()


def _one_shot_gap(points):
    """The unblocked reduction over the agents of ``(T, h, d)``."""
    diffs = points[:, :, None, :] - points[:, None, :, :]
    return np.linalg.norm(diffs, axis=3).max(axis=(1, 2))


def _trace(rng, rounds, trials, n, d, honest_ids):
    return DecentralizedTrace(
        estimates=rng.normal(size=(rounds, trials, n, d)) * 10.0,
        step_sizes=np.zeros((rounds - 1, trials)),
        honest_ids=honest_ids,
    )


@pytest.mark.parametrize("d", [2, 9, 33])
@pytest.mark.parametrize("budget", [1, 50, 700, 1 << 24])
def test_blocked_gaps_equal_the_one_shot_formula(monkeypatch, d, budget):
    # Small budgets force blocking over rounds and over the agent axis.
    monkeypatch.setattr(decentralized, "_PAIRWISE_BLOCK", budget)
    rng = np.random.default_rng(d)
    honest_ids = [(0, 1, 2, 4, 5, 6), (0, 1, 2, 4, 5, 6), (1, 3, 5)]
    trace = _trace(rng, 5, 3, 7, d, honest_ids)
    gaps = trace.consensus_gap()
    components = [(0, 1, 2, 3), (4, 5, 6)]
    per_component = trace.component_consensus_gaps(components)
    for trial, honest in enumerate(honest_ids):
        points = trace.estimates[:, trial, list(honest), :]
        assert np.array_equal(gaps[trial], _one_shot_gap(points))
        for component, series in zip(components, per_component):
            members = [i for i in honest if i in component]
            expected = _one_shot_gap(trace.estimates[:, trial, members, :])
            assert np.array_equal(series[trial], expected)
    assert np.array_equal(
        trace.consensus_gap(rounds=[-1])[:, 0], gaps[:, -1]
    )


def test_large_n_gap_memory_is_bounded():
    n, d = 2048, 8
    rng = np.random.default_rng(1)
    trace = _trace(rng, 2, 1, n, d, [tuple(range(1, n))])

    def run():
        return (
            trace.consensus_gap(rounds=[-1]),
            trace.component_consensus_gaps([range(n)])[0],
        )

    (gap, component_gap), peak = _peak_bytes(run)
    # One unblocked round would be an (h, h, d) float tensor of 256 MiB;
    # the blocks stay within the 2^24-element (128 MiB) budget.
    assert peak < 192 * 2**20
    assert gap[0, 0] == component_gap[0, -1] > 0.0
