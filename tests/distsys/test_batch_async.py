"""Batched asynchronous engine: per-trial equivalence, policies, timelines.

The headline contract is the async mirror of the PR-1 batch/reference
equivalence: :class:`~repro.distsys.batch_async.BatchAsynchronousSimulator`
must land within 1e-9 of the per-trial
:class:`~repro.distsys.asynchronous.AsynchronousSimulator` *trajectory by
trajectory* across aggregator × attack × τ × drop × seed — including the
missing-value policies (shrink-n and masked), stalls, crash-and-recover
schedules and Byzantine-from-round timelines.  The network realizations are
bit-identical by construction (both engines pre-sample per-trial tagged
streams through :func:`~repro.distsys.faults.sample_network_run`), so the
tolerance only absorbs einsum-order drift in the batched filter kernels.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.registry import make_attack
from repro.distsys import (
    AsyncBatchTrial,
    BatchAsynchronousSimulator,
    BurstyDrop,
    FaultSchedule,
    IIDDrop,
    LinkDelay,
    Stragglers,
    fixed_delay,
    run_asynchronous,
    run_asynchronous_batch,
    uniform_delay,
)
from repro.distsys import batch_async
from repro.distsys.batch_async import _attendance_groups
from repro.experiments.asynchronous import asynchronous_sweep
from repro.functions import SquaredDistanceCost
from repro.functions.batched import stack_costs
from repro.optim import BoxSet, ConstantSchedule, paper_schedule

ITERATIONS = 40
TOL = 1e-9


def quadratic_costs(n=6, seed=7):
    rng = np.random.default_rng(seed)
    return [SquaredDistanceCost(rng.normal(size=2)) for _ in range(n)]


def reference_trace(paper, trial, iterations=ITERATIONS, costs=None):
    """Replay one batched trial through the per-trial oracle."""
    return run_asynchronous(
        costs=stack_costs(costs or paper.costs),
        faulty_ids=list(trial.faulty_ids),
        aggregator=trial.aggregator,
        attack=trial.attack,
        constraint=paper.constraint,
        schedule=trial.schedule or paper.schedule,
        initial_estimate=(
            paper.initial_estimate
            if trial.initial_estimate is None
            else trial.initial_estimate
        ),
        iterations=iterations,
        conditions=list(trial.conditions),
        fault_schedule=trial.fault_schedule,
        staleness_bound=trial.staleness_bound,
        missing_policy=trial.missing_policy,
        seed=trial.seed,
        omniscient_attack=trial.omniscient_attack,
    )


def batch_trace(paper, trials, iterations=ITERATIONS, costs=None):
    return run_asynchronous_batch(
        costs=stack_costs(costs or paper.costs),
        trials=trials,
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
        iterations=iterations,
    )


def assert_matches_reference(paper, trials, iterations=ITERATIONS, costs=None):
    """The batch pins to every per-trial trajectory and its diagnostics."""
    trace = batch_trace(paper, trials, iterations, costs=costs)
    for s, trial in enumerate(trials):
        ref = reference_trace(paper, trial, iterations, costs=costs)
        gap = np.abs(trace.trial_estimates(s) - ref.estimates()).max()
        assert gap < TOL, (s, trial.aggregator, trial.seed, gap)
        assert int(trace.stalled_rounds()[s]) == ref.stalled_rounds()
        np.testing.assert_allclose(
            trace.missing_fraction()[s], ref.missing_fraction(), atol=1e-12
        )
        batch_profile = trace.staleness_profile()[s]
        ref_profile = ref.staleness_profile()
        np.testing.assert_array_equal(
            np.isnan(batch_profile), np.isnan(ref_profile)
        )
        np.testing.assert_allclose(
            np.nan_to_num(batch_profile), np.nan_to_num(ref_profile),
            atol=1e-12,
        )


def network_conditions(drop_rate=0.0, delay_high=2):
    conditions = [LinkDelay(uniform_delay(0, delay_high))]
    if drop_rate > 0:
        conditions.append(IIDDrop(drop_rate))
    return tuple(conditions)


class TestEquivalenceGrid:
    """Aggregator × attack × τ × drop × seed against the per-trial oracle."""

    @pytest.mark.parametrize("aggregator,policy", [
        ("cge", "shrink"),
        ("cge_mean", "shrink"),
        ("cwtm", "masked"),
        ("median", "masked"),
        ("mean", "masked"),
    ])
    def test_policies_across_staleness_and_drop(self, paper, aggregator, policy):
        trials = [
            AsyncBatchTrial(
                aggregator=aggregator,
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=network_conditions(drop),
                staleness_bound=tau,
                missing_policy=policy,
                seed=seed,
            )
            for tau in (0, 2)
            for drop in (0.0, 0.3)
            for seed in (0, 1)
        ]
        assert_matches_reference(paper, trials)

    @pytest.mark.parametrize("attack", [
        "gradient_reverse", "random", "zero", "alie", "cge_evasion",
    ])
    def test_attacks_under_delay_and_loss(self, paper, attack):
        trials = [
            AsyncBatchTrial(
                aggregator="cge",
                attack=make_attack(attack),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=network_conditions(0.2),
                staleness_bound=2,
                missing_policy="shrink",
                seed=seed,
            )
            for seed in (0, 3)
        ]
        assert_matches_reference(paper, trials)

    def test_mixed_configuration_batch(self, paper):
        """One lockstep batch mixing filters, policies, taus and networks."""
        trials = [
            AsyncBatchTrial(
                aggregator="cge", attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=network_conditions(0.15),
                staleness_bound=1, missing_policy="shrink", seed=0,
            ),
            AsyncBatchTrial(
                aggregator="cwtm", attack=make_attack("random"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=(BurstyDrop(0.2, 0.4),),
                staleness_bound=2, missing_policy="masked", seed=1,
            ),
            AsyncBatchTrial(
                aggregator="median", attack=None, faulty_ids=(),
                conditions=(Stragglers({5: 4.0}),),
                staleness_bound=4, missing_policy="masked", seed=2,
            ),
            AsyncBatchTrial(
                aggregator="cge", attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=(), staleness_bound=0,
                missing_policy="shrink", seed=0,
            ),
        ]
        assert_matches_reference(paper, trials)

    def test_quadratic_system_bit_for_bit_network(self):
        """Same network streams: quadratic costs pin essentially exactly."""
        paper_like = type("P", (), {})()
        paper_like.constraint = BoxSet.symmetric(100.0, dim=2)
        paper_like.schedule = paper_schedule()
        paper_like.initial_estimate = np.zeros(2)
        paper_like.costs = quadratic_costs()
        paper_like.faulty_ids = (0,)
        trials = [
            AsyncBatchTrial(
                aggregator="cwtm", attack=make_attack("gradient_reverse"),
                faulty_ids=(0,), conditions=network_conditions(0.2),
                staleness_bound=2, missing_policy="masked", seed=seed,
            )
            for seed in (0, 1, 2)
        ]
        assert_matches_reference(paper_like, trials)

    def test_per_trial_schedule_and_start_overrides(self, paper):
        trials = [
            AsyncBatchTrial(
                aggregator="cge", attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=network_conditions(0.2), staleness_bound=2,
                missing_policy="shrink", seed=0,
                schedule=ConstantSchedule(0.01),
                initial_estimate=np.array([1.0, -1.0]),
            ),
            AsyncBatchTrial(
                aggregator="cge", attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=network_conditions(0.2), staleness_bound=2,
                missing_policy="shrink", seed=0,
            ),
        ]
        assert_matches_reference(paper, trials)


class TestStallsAndTimelines:
    def test_all_stalled_run_holds_estimate(self, paper):
        # Delivery lag 3 > τ = 1: nothing is ever usable in any trial.
        trials = [
            AsyncBatchTrial(
                aggregator="mean", conditions=(LinkDelay(fixed_delay(3)),),
                staleness_bound=1, missing_policy="masked", seed=seed,
            )
            for seed in (0, 1)
        ]
        trace = batch_trace(paper, trials, iterations=20)
        assert (trace.stalled_rounds() == 20).all()
        np.testing.assert_array_equal(
            trace.estimates[0], trace.estimates[-1]
        )
        assert np.isnan(trace.staleness_profile()).all()
        assert_matches_reference(paper, trials, iterations=20)

    def test_crash_and_recover_schedule(self, paper):
        schedule = (
            FaultSchedule()
            .crash(3, at=10, recover_at=25)
            .byzantine(0, from_round=15)
        )
        trials = [
            AsyncBatchTrial(
                aggregator="cwtm", attack=make_attack("gradient_reverse"),
                fault_schedule=schedule, staleness_bound=1,
                missing_policy="masked", seed=seed,
            )
            for seed in (0, 4)
        ]
        assert_matches_reference(paper, trials)

    def test_byzantine_from_round_timeline(self, paper):
        schedule = FaultSchedule().byzantine(0, from_round=25)
        trials = [
            AsyncBatchTrial(
                aggregator="mean", attack=make_attack("gradient_reverse"),
                fault_schedule=schedule, missing_policy="masked", seed=0,
            ),
            AsyncBatchTrial(
                aggregator="mean", missing_policy="masked", seed=0,
            ),
        ]
        trace = batch_trace(paper, trials, iterations=50)
        # Identical honest prefix until the compromise bites, then not.
        np.testing.assert_array_equal(
            trace.estimates[:26, 0], trace.estimates[:26, 1]
        )
        assert not np.array_equal(
            trace.estimates[:, 0], trace.estimates[:, 1]
        )
        assert_matches_reference(paper, trials, iterations=50)

    @pytest.mark.parametrize("policy,aggregator", [
        ("masked", "cwtm"), ("shrink", "cge"),
    ])
    def test_warm_recovery_matches_reference(self, paper, policy, aggregator):
        # Warm restarts ride the same padded queue: the recovery-round
        # dispatch carries the pre-crash view, under delays and drops.
        schedule = FaultSchedule().crash(
            3, at=8, recover_at=18, recovery="warm"
        )
        trials = [
            AsyncBatchTrial(
                aggregator=aggregator,
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=network_conditions(0.2),
                fault_schedule=schedule, staleness_bound=tau,
                missing_policy=policy, seed=seed,
            )
            for tau in (1, 4)
            for seed in (0, 2)
        ]
        assert_matches_reference(paper, trials)

    def test_warm_and_reset_recovery_diverge(self, paper):
        # The two recovery models must actually disagree: the warm
        # restart's first post-recovery message is evaluated at the stale
        # pre-crash iterate (still usable under a wide τ), the reset
        # restart's at the current broadcast.
        def trial(recovery):
            return AsyncBatchTrial(
                aggregator="mean",
                fault_schedule=FaultSchedule().crash(
                    2, at=5, recover_at=9, recovery=recovery
                ),
                staleness_bound=6, missing_policy="masked", seed=0,
            )

        trace = batch_trace(
            paper, [trial("warm"), trial("reset")], iterations=30
        )
        np.testing.assert_array_equal(
            trace.estimates[:10, 0], trace.estimates[:10, 1]
        )
        assert not np.array_equal(
            trace.estimates[:, 0], trace.estimates[:, 1]
        )
        assert_matches_reference(
            paper, [trial("warm"), trial("reset")], iterations=30
        )

    def test_crash_attack_counts_missing(self, paper):
        trials = [
            AsyncBatchTrial(
                aggregator="cge", attack=make_attack("crash"),
                faulty_ids=tuple(paper.faulty_ids),
                missing_policy="shrink", seed=0,
            )
        ]
        trace = batch_trace(paper, trials, iterations=30)
        assert (trace.missing_counts[:, 0] == 1).all()
        assert (trace.usable_counts[:, 0] == paper.n - 1).all()
        assert_matches_reference(paper, trials, iterations=30)


class TestValidation:
    def test_empty_batch_rejected(self, paper):
        with pytest.raises(ValueError, match="at least one trial"):
            BatchAsynchronousSimulator(
                costs=paper.costs, trials=[],
                constraint=paper.constraint, schedule=paper.schedule,
                initial_estimate=paper.initial_estimate,
            )

    def test_unknown_policy_rejected(self, paper):
        with pytest.raises(ValueError, match="missing-value policy"):
            batch_trace(
                paper,
                [AsyncBatchTrial(aggregator="cge", missing_policy="improvise")],
            )

    def test_masked_requires_masked_kernel(self, paper):
        with pytest.raises(ValueError, match="no masked kernel"):
            batch_trace(
                paper,
                [AsyncBatchTrial(aggregator="krum", missing_policy="masked")],
            )

    def test_shrink_requires_registry_name(self, paper):
        from repro.aggregators import make_aggregator

        trials = [
            AsyncBatchTrial(
                aggregator=make_aggregator("cge", paper.n, paper.f),
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=(IIDDrop(1.0, agents=[0]),),
                missing_policy="shrink",
            )
        ]
        with pytest.raises(RuntimeError, match="registry name"):
            batch_trace(paper, trials, iterations=5)

    def test_fault_agents_exceeding_declared_f_rejected(self, paper):
        trials = [
            AsyncBatchTrial(
                aggregator="cge", attack=make_attack("gradient_reverse"),
                faulty_ids=(0,), f=1,
                fault_schedule=FaultSchedule().crash(2, at=5),
            )
        ]
        with pytest.raises(ValueError, match="exceed the declared"):
            batch_trace(paper, trials)

    def test_byzantine_without_attack_rejected(self, paper):
        with pytest.raises(ValueError, match="no attack"):
            batch_trace(
                paper, [AsyncBatchTrial(aggregator="cge", faulty_ids=(0,))]
            )

    def test_rerun_requires_explicit_resume(self, paper):
        # Re-running without declaring the resume point would silently
        # reinterpret the horizon; the engine demands an explicit
        # start_round matching where it stopped.
        simulator = BatchAsynchronousSimulator(
            costs=paper.costs,
            trials=[AsyncBatchTrial(aggregator="cge")],
            constraint=paper.constraint, schedule=paper.schedule,
            initial_estimate=paper.initial_estimate,
        )
        simulator.run(5)
        with pytest.raises(ValueError, match="start_round"):
            simulator.run(5)
        with pytest.raises(ValueError, match="absolute horizon"):
            simulator.run(5, start_round=5)
        trace = simulator.run(10, start_round=5)
        assert trace.iterations == 10

    def test_step_without_run_rejected(self, paper):
        simulator = BatchAsynchronousSimulator(
            costs=paper.costs,
            trials=[AsyncBatchTrial(aggregator="cge")],
            constraint=paper.constraint, schedule=paper.schedule,
            initial_estimate=paper.initial_estimate,
        )
        with pytest.raises(RuntimeError, match="run\\(\\)"):
            simulator.step()

    def test_negative_staleness_bound_rejected(self, paper):
        with pytest.raises(ValueError, match="non-negative"):
            batch_trace(
                paper,
                [AsyncBatchTrial(aggregator="cge", staleness_bound=-1)],
            )


class TestSweepEngineParity:
    def test_batched_sweep_matches_reference_rows(self, paper):
        kwargs = dict(
            problem=paper,
            staleness_bounds=(0, 2),
            drop_rates=(0.0, 0.3),
            aggregators=("cge", "median"),
            iterations=40,
            seeds=(0, 1),
        )
        batched = asynchronous_sweep(engine="batched", **kwargs)
        reference = asynchronous_sweep(engine="reference", **kwargs)
        assert len(batched) == len(reference) == 8
        for rb, rr in zip(batched, reference):
            assert (
                rb.staleness_bound, rb.drop_rate, rb.aggregator, rb.policy
            ) == (
                rr.staleness_bound, rr.drop_rate, rr.aggregator, rr.policy
            )
            assert rb.stalled == rr.stalled
            for name in ("mean_radius", "worst_radius", "missing_rate"):
                assert abs(getattr(rb, name) - getattr(rr, name)) < TOL
            if np.isnan(rb.mean_staleness):
                assert np.isnan(rr.mean_staleness)
            else:
                assert abs(rb.mean_staleness - rr.mean_staleness) < TOL

    def test_unknown_engine_rejected(self, paper):
        with pytest.raises(ValueError, match="sweep engine"):
            asynchronous_sweep(problem=paper, engine="telepathy")


class TestNoHonestMessageObservable:
    """Rounds where a compromised message is usable but no honest one is.

    Common at τ = 0 under drops.  With omniscient access on — whatever the
    attack — there is then nothing to observe: the compromised agents send
    their true gradients and the attack's generator is not consumed, in
    both engines.  With three faulty agents the grid also gives every
    attack group rounds with several attendance patterns at once.
    """

    FAULTY = (1, 4, 7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("attack,omniscient", [
        ("gradient_reverse", None),
        ("random", None),
        ("random", True),
        ("alie", None),
        ("ipm", None),
        ("cge_evasion", None),
    ])
    @pytest.mark.parametrize("aggregator,policy", [
        ("cge", "shrink"), ("cwtm", "masked"),
    ])
    def test_matches_reference(
        self, paper, monkeypatch, attack, omniscient, aggregator, policy
    ):
        trials = [
            AsyncBatchTrial(
                aggregator=aggregator, attack=make_attack(attack),
                faulty_ids=self.FAULTY, conditions=network_conditions(0.3),
                staleness_bound=tau, missing_policy=policy, seed=seed,
                omniscient_attack=omniscient,
            )
            for tau in (0, 2)
            for seed in range(6)
        ]
        blocks = []

        def recording(rows):
            groups = _attendance_groups(rows)
            blocks.append(groups)
            return groups

        monkeypatch.setattr(batch_async, "_attendance_groups", recording)
        assert_matches_reference(paper, trials, 60, costs=quadratic_costs(9))
        # The grid reaches both cases it exists for.
        assert max(len(groups) for groups in blocks) > 1
        if omniscient or trials[0].attack.requires_omniscience:
            assert any(
                not pattern[9:].any()
                for groups in blocks
                for pattern, _ in groups
            )


def unique_groups(rows):
    """The grouping oracle: ``np.unique`` over the rows, members by inverse."""
    patterns, inverse = np.unique(rows, axis=0, return_inverse=True)
    positions = np.arange(rows.shape[0])
    return [
        (patterns[g], positions[inverse == g])
        for g in range(patterns.shape[0])
    ]


@st.composite
def attendance_blocks(draw):
    """Boolean ``(G, w)`` blocks: 1–64 rows, width n or 2n (2n is the
    omniscient key), random, all-equal, all-distinct or duplicate-heavy."""
    n = draw(st.integers(1, 16))
    width = draw(st.sampled_from([n, 2 * n]))
    rows = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(
        ["random", "all_equal", "all_distinct", "duplicates"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "all_equal":
        return np.repeat(rng.random((1, width)) < 0.5, rows, axis=0)
    if kind == "all_distinct":
        bits = min(width, 20)
        codes = rng.choice(2**bits, size=min(rows, 2**bits), replace=False)
        return ((codes[:, None] >> np.arange(width)) & 1) == 1
    if kind == "duplicates":
        pool = rng.random((draw(st.integers(1, 3)), width)) < 0.5
        return pool[rng.integers(0, len(pool), size=rows)]
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return rng.random((rows, width)) < density


class TestAttendanceGrouping:
    @given(attendance_blocks())
    @example(np.zeros((1, 3), dtype=bool))
    @example(np.ones((5, 4), dtype=bool))
    @example(np.eye(4, dtype=bool))
    @settings(max_examples=300, deadline=None)
    def test_matches_unique_oracle(self, rows):
        groups = _attendance_groups(rows)
        oracle = unique_groups(rows)
        assert len(groups) == len(oracle)
        for (pattern, positions), (expected, members) in zip(groups, oracle):
            assert pattern.dtype == bool
            np.testing.assert_array_equal(pattern, expected)
            np.testing.assert_array_equal(positions, members)
