"""Batch engine vs. reference oracle: trajectory equivalence.

The tensorized :class:`repro.distsys.batch.BatchSimulator` must reproduce the
per-trial :class:`repro.distsys.simulator.SynchronousSimulator` to within
1e-9 across aggregator × attack combinations and seeds — including the
stream-consuming ``random`` attack and the omniscient colluding attacks.
"""

import numpy as np
import pytest

from repro.aggregators import available_aggregators, make_aggregator
from repro.aggregators.base import GradientAggregator
from repro.attacks import AttackContext, ByzantineAttack
from repro.attacks.registry import make_attack
from repro.distsys import BatchTrial, run_dgd, run_dgd_batch
from repro.experiments.paper_regression import paper_problem
from repro.functions import SquaredDistanceCost
from repro.optim.projections import BoxSet
from repro.optim.schedules import HarmonicSchedule

TOLERANCE = 1e-9
ITERATIONS = 60


def vectorized_aggregators():
    """Registry names whose filter overrides ``aggregate_batch``."""
    names = []
    for name in available_aggregators():
        agg = make_aggregator(name, 6, 1)
        if type(agg).aggregate_batch is not GradientAggregator.aggregate_batch:
            names.append(name)
    return names


VECTORIZED = vectorized_aggregators()
ATTACKS = ("gradient_reverse", "random", "zero", "large_norm", "alie", "cge_evasion")


def reference_trajectory(problem, aggregator, attack, seed, iterations=ITERATIONS):
    trace = run_dgd(
        costs=problem.costs,
        faulty_ids=list(problem.faulty_ids),
        aggregator=make_aggregator(aggregator, problem.n, problem.f),
        attack=make_attack(attack),
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
        iterations=iterations,
        seed=seed,
    )
    return trace.estimates()


def test_vectorized_kernel_coverage():
    # The sweep engine's headline kernels are all vectorized.
    assert {"mean", "cwtm", "median", "cge", "krum", "multikrum", "geomedian"} <= set(
        VECTORIZED
    )


class TestAggregatorAttackGrid:
    @pytest.mark.parametrize("aggregator", VECTORIZED)
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_matches_reference(self, paper, aggregator, attack):
        seed = 1
        expected = reference_trajectory(paper, aggregator, attack, seed)
        trial = BatchTrial(
            aggregator=make_aggregator(aggregator, paper.n, paper.f),
            attack=make_attack(attack),
            faulty_ids=paper.faulty_ids,
            seed=seed,
        )
        trace = run_dgd_batch(
            paper.costs,
            [trial],
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            ITERATIONS,
        )
        assert np.abs(trace.trial_estimates(0) - expected).max() < TOLERANCE


class TestMixedBatch:
    def test_heterogeneous_batch_matches_per_trial_runs(self, paper):
        # One batch mixing filters, attacks and seeds — each trial must
        # still match its own per-trial reference execution.
        combos = [
            (aggregator, attack, seed)
            for aggregator in ("cge", "cwtm", "krum", "geomedian")
            for attack in ("gradient_reverse", "random")
            for seed in (0, 1, 2)
        ]
        trials = [
            BatchTrial(
                aggregator=make_aggregator(aggregator, paper.n, paper.f),
                attack=make_attack(attack),
                faulty_ids=paper.faulty_ids,
                seed=seed,
            )
            for aggregator, attack, seed in combos
        ]
        trace = run_dgd_batch(
            paper.costs,
            trials,
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            ITERATIONS,
        )
        for s, (aggregator, attack, seed) in enumerate(combos):
            expected = reference_trajectory(paper, aggregator, attack, seed)
            assert np.abs(trace.trial_estimates(s) - expected).max() < TOLERANCE

    def test_seed_isolation(self, paper):
        # Two trials of the stream-consuming random attack in one batch must
        # each see the same draws as their standalone executions.
        trials = [
            BatchTrial(
                aggregator=make_aggregator("cge", paper.n, paper.f),
                attack=make_attack("random"),
                faulty_ids=paper.faulty_ids,
                seed=seed,
            )
            for seed in (5, 6)
        ]
        trace = run_dgd_batch(
            paper.costs,
            trials,
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            ITERATIONS,
        )
        for s, seed in enumerate((5, 6)):
            expected = reference_trajectory(paper, "cge", "random", seed)
            assert np.abs(trace.trial_estimates(s) - expected).max() < TOLERANCE


class TestFallbackPaths:
    def test_non_vectorized_aggregator_falls_back(self):
        # Bulyan has no vectorized kernel: the base-class per-item fallback
        # must still match the reference on a system satisfying n >= 4f + 3.
        rng = np.random.default_rng(3)
        targets = np.array([1.0, -1.0]) + 0.1 * rng.normal(size=(7, 2))
        costs = [SquaredDistanceCost(t) for t in targets]
        constraint = BoxSet.symmetric(50.0, dim=2)
        schedule = HarmonicSchedule(scale=0.1)
        start = np.zeros(2)
        reference = run_dgd(
            costs=costs,
            faulty_ids=[6],
            aggregator=make_aggregator("bulyan", 7, 1),
            attack=make_attack("gradient_reverse"),
            constraint=constraint,
            schedule=schedule,
            initial_estimate=start,
            iterations=40,
            seed=0,
        )
        trial = BatchTrial(
            aggregator=make_aggregator("bulyan", 7, 1),
            attack=make_attack("gradient_reverse"),
            faulty_ids=(6,),
            seed=0,
        )
        trace = run_dgd_batch(costs, [trial], constraint, schedule, start, 40)
        assert np.abs(trace.trial_estimates(0) - reference.estimates()).max() < TOLERANCE

    def test_custom_attack_without_batch_override(self, paper):
        class HalfReverse(ByzantineAttack):
            name = "half_reverse"

            def fabricate(self, context: AttackContext):
                return {
                    i: -0.5 * context.true_gradients[i]
                    for i in context.faulty_ids
                }

        reference = run_dgd(
            costs=paper.costs,
            faulty_ids=list(paper.faulty_ids),
            aggregator=make_aggregator("cwtm", paper.n, paper.f),
            attack=HalfReverse(),
            constraint=paper.constraint,
            schedule=paper.schedule,
            initial_estimate=paper.initial_estimate,
            iterations=ITERATIONS,
            seed=0,
        )
        trial = BatchTrial(
            aggregator=make_aggregator("cwtm", paper.n, paper.f),
            attack=HalfReverse(),
            faulty_ids=paper.faulty_ids,
            seed=0,
        )
        trace = run_dgd_batch(
            paper.costs,
            [trial],
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            ITERATIONS,
        )
        assert np.abs(trace.trial_estimates(0) - reference.estimates()).max() < TOLERANCE


class TestTrialGrouping:
    def test_large_dim_attacks_with_equal_reprs_stay_separate(self):
        # numpy summarizes long vectors with "..." so these two attacks have
        # identical reprs; grouping must still key on the exact coefficients.
        from repro.attacks import ConstantVectorAttack
        from repro.optim.projections import UnconstrainedSet

        d = 1200
        costs = [SquaredDistanceCost(np.full(d, float(i))) for i in range(3)]
        v1 = np.ones(d)
        v2 = np.ones(d)
        v2[600] = 42.0
        assert repr(ConstantVectorAttack(v1)) == repr(ConstantVectorAttack(v2))
        constraint = UnconstrainedSet(d)
        schedule = HarmonicSchedule(scale=0.1)
        trials = [
            BatchTrial(
                aggregator=make_aggregator("mean", 3, 1),
                attack=ConstantVectorAttack(v),
                faulty_ids=(2,),
            )
            for v in (v1, v2)
        ]
        trace = run_dgd_batch(costs, trials, constraint, schedule, np.zeros(d), 15)
        for s, v in enumerate((v1, v2)):
            reference = run_dgd(
                costs=costs,
                faulty_ids=[2],
                aggregator=make_aggregator("mean", 3, 1),
                attack=ConstantVectorAttack(v),
                constraint=constraint,
                schedule=schedule,
                initial_estimate=np.zeros(d),
                iterations=15,
            )
            assert (
                np.abs(trace.trial_estimates(s) - reference.estimates()).max()
                < TOLERANCE
            )

    def test_near_equal_schedules_stay_separate(self):
        # ConstantSchedule formats its step with %g, so these two repr the
        # same; each trial must still run its own step size.
        from repro.optim.projections import UnconstrainedSet
        from repro.optim.schedules import ConstantSchedule

        s1, s2 = ConstantSchedule(0.1000001), ConstantSchedule(0.1000004)
        assert repr(s1) == repr(s2)
        costs = [SquaredDistanceCost([float(i), 0.0]) for i in range(3)]
        constraint = UnconstrainedSet(2)
        trials = [
            BatchTrial(aggregator=make_aggregator("mean", 3, 0), schedule=s)
            for s in (s1, s2)
        ]
        trace = run_dgd_batch(
            costs, trials, constraint, HarmonicSchedule(), np.zeros(2), 10
        )
        for s, sched in enumerate((s1, s2)):
            reference = run_dgd(
                costs=costs,
                faulty_ids=[],
                aggregator=make_aggregator("mean", 3, 0),
                attack=None,
                constraint=constraint,
                schedule=sched,
                initial_estimate=np.zeros(2),
                iterations=10,
            )
            assert (
                np.abs(trace.trial_estimates(s) - reference.estimates()).max()
                < 1e-12
            )
        assert (
            np.abs(trace.trial_estimates(0) - trace.trial_estimates(1)).max() > 0
        )

    def test_caller_trials_not_mutated(self, paper):
        trial = BatchTrial(
            aggregator=make_aggregator("cge", paper.n, paper.f),
            attack=make_attack("alie"),
            faulty_ids=[0],  # list on purpose: must not be rewritten
        )
        run_dgd_batch(
            paper.costs,
            [trial],
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            3,
        )
        assert trial.faulty_ids == [0]
        assert trial.omniscient_attack is None


class TestBatchTrace:
    def test_lazy_by_default_and_gradients_opt_in(self, paper):
        trial = BatchTrial(
            aggregator=make_aggregator("cge", paper.n, paper.f),
            attack=make_attack("gradient_reverse"),
            faulty_ids=paper.faulty_ids,
        )
        lazy = run_dgd_batch(
            paper.costs,
            [trial],
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            10,
        )
        assert lazy.gradients is None
        eager = run_dgd_batch(
            paper.costs,
            [BatchTrial(
                aggregator=make_aggregator("cge", paper.n, paper.f),
                attack=make_attack("gradient_reverse"),
                faulty_ids=paper.faulty_ids,
            )],
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            10,
            record_gradients=True,
        )
        assert eager.gradients is not None
        assert eager.gradients.shape == (10, 1, paper.n, paper.d)

    def test_series_shapes_and_labels(self, paper):
        trials = [
            BatchTrial(
                aggregator=make_aggregator("cge", paper.n, paper.f),
                attack=make_attack("gradient_reverse"),
                faulty_ids=paper.faulty_ids,
            ),
            BatchTrial(
                aggregator=make_aggregator("cwtm", paper.n, paper.f),
                attack=None,
                label="honest-cwtm",
            ),
        ]
        trace = run_dgd_batch(
            paper.costs,
            trials,
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            25,
        )
        assert trace.iterations == 25
        assert trace.trials == 2
        assert trace.estimates.shape == (26, 2, paper.d)
        assert trace.distances_to(paper.x_h).shape == (2, 26)
        assert trace.labels == ["cge/gradient_reverse", "honest-cwtm"]

    def test_validation_errors(self, paper):
        agg = make_aggregator("cge", paper.n, paper.f)
        with pytest.raises(ValueError):
            run_dgd_batch(
                paper.costs,
                [],
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
                10,
            )
        with pytest.raises(ValueError):
            # faulty agents but no attack
            run_dgd_batch(
                paper.costs,
                [BatchTrial(aggregator=agg, attack=None, faulty_ids=(0,))],
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
                10,
            )
        with pytest.raises(ValueError):
            # out-of-range faulty id
            run_dgd_batch(
                paper.costs,
                [
                    BatchTrial(
                        aggregator=agg,
                        attack=make_attack("gradient_reverse"),
                        faulty_ids=(99,),
                    )
                ],
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
                10,
            )


class TestEveryAgentFaulty:
    """Trials whose every agent is faulty: no honest gradient exists."""

    def _trials(self, paper, attack, faulty):
        mean = make_aggregator("mean", paper.n, paper.f)
        return [
            BatchTrial(
                aggregator=mean,
                attack=make_attack("gradient_reverse"),
                faulty_ids=paper.faulty_ids,
            ),
            BatchTrial(
                aggregator=mean, attack=make_attack(attack), faulty_ids=faulty
            ),
        ]

    @pytest.mark.parametrize("attack", ["alie", "ipm", "mimic"])
    def test_omniscient_attack_rejected_at_construction(self, paper, attack):
        trials = self._trials(paper, attack, tuple(range(paper.n)))
        with pytest.raises(
            ValueError,
            match=(
                rf"trial 1: attack '{attack}' is omniscient.*needs at least "
                "one honest gradient"
            ),
        ):
            run_dgd_batch(
                paper.costs,
                trials,
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
                5,
            )

    @pytest.mark.parametrize("attack", ["gradient_reverse", "random", "zero"])
    def test_non_omniscient_attack_runs(self, paper, attack):
        everyone = tuple(range(paper.n))
        trace = run_dgd_batch(
            paper.costs,
            self._trials(paper, attack, everyone),
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            5,
        )
        alone = run_dgd_batch(
            paper.costs,
            self._trials(paper, attack, everyone)[1:],
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            5,
        )
        assert np.isfinite(trace.estimates).all()
        assert trace.estimates[:, 1].tobytes() == alone.estimates[:, 0].tobytes()
