"""Delay-tolerant decentralized engine: degenerate pinning and gossip
semantics.

The headline contract extends the engine-equivalence suite: with τ = 0,
no network conditions and no fault schedule, every edge delivers fresh
every round and :class:`~repro.distsys.decentralized_delay.DelayedDecentralizedSimulator`
must pin **bit-for-bit** (``==``, not ``allclose``) to
:class:`~repro.distsys.decentralized.DecentralizedSimulator` across
aggregator × attack × topology × seed.
"""

import numpy as np
import pytest

import repro.distsys.decentralized as decentralized
from repro.aggregators import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import (
    BatchTrial,
    FaultSchedule,
    IIDDrop,
    LinkDelay,
    Stragglers,
    complete_topology,
    erdos_renyi_topology,
    fixed_delay,
    make_topology,
    ring_topology,
    run_decentralized,
    run_decentralized_delayed,
    uniform_delay,
)
from repro.distsys.decentralized_delay import DelayedDecentralizedSimulator

ITERATIONS = 50

AGGREGATORS = ("cwtm", "cge_mean", "median", "mean")
ATTACKS = (None, "gradient_reverse", "random", "edge_equivocation")


def topologies(n, seed=0):
    return (
        complete_topology(n),
        ring_topology(n, hops=2),
        erdos_renyi_topology(n, p=0.7, seed=seed),
    )


def paper_trials(problem, aggregator, attack, seeds=(0, 1)):
    return [
        BatchTrial(
            aggregator=make_aggregator(aggregator, problem.n, problem.f),
            attack=None if attack is None else make_attack(attack),
            faulty_ids=() if attack is None else tuple(problem.faulty_ids),
            seed=seed,
        )
        for seed in seeds
    ]


class TestDegeneratePinsBitForBit:
    """τ = 0, no conditions, no schedule == the synchronous graph engine."""

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_across_topologies_and_seeds(self, paper, aggregator, attack):
        for topology in topologies(paper.n):
            trials = paper_trials(paper, aggregator, attack)
            expected = run_decentralized(
                paper.costs, topology, trials, paper.constraint,
                paper.schedule, paper.initial_estimate, ITERATIONS,
            )
            actual = run_decentralized_delayed(
                paper.costs, topology, trials, paper.constraint,
                paper.schedule, paper.initial_estimate, ITERATIONS,
            )
            assert (actual.estimates == expected.estimates).all(), (
                topology.name, aggregator, attack,
            )
            assert not actual.stalled.any()
            assert actual.missing_fraction().max() == 0.0

    def test_mixing_false_also_pins(self, paper):
        trials = paper_trials(paper, "cwtm", "gradient_reverse")
        common = dict(
            constraint=paper.constraint,
            schedule=paper.schedule,
            initial_estimate=paper.initial_estimate,
        )
        expected = run_decentralized(
            paper.costs, ring_topology(paper.n, hops=2), trials,
            iterations=ITERATIONS, mixing=False, **common,
        )
        actual = run_decentralized_delayed(
            paper.costs, ring_topology(paper.n, hops=2), trials,
            iterations=ITERATIONS, mixing=False, **common,
        )
        assert (actual.estimates == expected.estimates).all()

    def test_any_tau_is_degenerate_on_a_fresh_network(self, paper):
        # τ only matters once messages are late: on a zero-delay, no-drop
        # network every bound gives the synchronous trajectories.
        trials = paper_trials(paper, "median", "gradient_reverse")
        expected = run_decentralized(
            paper.costs, ring_topology(paper.n, hops=2), trials,
            paper.constraint, paper.schedule, paper.initial_estimate,
            ITERATIONS,
        )
        actual = run_decentralized_delayed(
            paper.costs, ring_topology(paper.n, hops=2), trials,
            paper.constraint, paper.schedule, paper.initial_estimate,
            ITERATIONS, staleness_bound=4,
        )
        assert (actual.estimates == expected.estimates).all()


class TestStrictScreenOncePerRound:
    """A fully-attended round screens a strict filter's views once."""

    @pytest.mark.parametrize(
        "engine", ["decentralized", "delayed"]
    )
    def test_one_screen_per_filter_group_per_round(
        self, paper, monkeypatch, engine
    ):
        calls = []
        screen = decentralized._refuse_nonfinite_views

        def counted(*args, **kwargs):
            calls.append(args[-1])                     # the round index
            return screen(*args, **kwargs)

        monkeypatch.setattr(decentralized, "_refuse_nonfinite_views", counted)
        run = (
            run_decentralized if engine == "decentralized"
            else run_decentralized_delayed
        )
        trace = run(
            paper.costs, ring_topology(paper.n, hops=2),
            paper_trials(paper, "mean", None), paper.constraint,
            paper.schedule, paper.initial_estimate, ITERATIONS,
        )
        assert np.isfinite(trace.estimates).all()
        # One filter group (both trials run `mean`): one screen a round.
        assert calls == list(range(ITERATIONS))


class TestBatchCompositionIndependence:
    def test_solo_trial_bits_survive_any_batch(self, paper):
        # The full/partial kernel split is decided per trial: a trial's
        # trajectory must be bit-identical whether it runs alone or next
        # to batch peers whose rounds go partial at different times.
        topology = ring_topology(paper.n, hops=2)

        def run(trials):
            return run_decentralized_delayed(
                paper.costs, topology, trials, paper.constraint,
                paper.schedule, paper.initial_estimate, 60,
                conditions=[LinkDelay(uniform_delay(0, 1)), IIDDrop(0.05)],
                staleness_bound=2, missing_policy="masked",
            )

        trials = paper_trials(paper, "cwtm", "gradient_reverse", seeds=(0, 1))
        solo = run(trials[:1])
        batched = run(trials)
        assert (
            solo.estimates[:, 0] == batched.estimates[:, 0]
        ).all()
        assert (solo.stalled[:, 0] == batched.stalled[:, 0]).all()


class TestStalenessSemantics:
    def test_fixed_delay_within_tau_is_uniformly_stale(self, paper):
        trials = paper_trials(paper, "mean", None, seeds=(0,))
        trace = run_decentralized_delayed(
            paper.costs, ring_topology(paper.n, hops=2), trials,
            paper.constraint, paper.schedule, paper.initial_estimate, 30,
            conditions=[LinkDelay(fixed_delay(1))], staleness_bound=1,
        )
        # Round 0 has nothing in flight (agents still descend on their own
        # gradient from the self slot); afterwards every edge is exactly
        # one round stale.
        profile = trace.staleness_profile()
        assert np.isnan(profile[0, 0])
        assert (profile[:, 1:] == 1.0).all()
        assert trace.missing_fraction()[:, 1:].max() == 0.0

    def test_bound_expires_edges_and_engine_falls_back_to_self(self, paper):
        trials = paper_trials(paper, "mean", None, seeds=(0,))
        trace = run_decentralized_delayed(
            paper.costs, ring_topology(paper.n, hops=2), trials,
            paper.constraint, paper.schedule, paper.initial_estimate, 20,
            conditions=[LinkDelay(fixed_delay(3))], staleness_bound=1,
        )
        # Delivery lag 3 > τ = 1: no edge is ever usable; fault-free mean
        # agents keep descending their own gradients (DGD without gossip).
        assert trace.missing_fraction().min() == 1.0
        assert not np.array_equal(trace.estimates[0], trace.estimates[-1])

    def test_straggler_edge_falls_behind(self, paper):
        topology = ring_topology(paper.n, hops=2)
        edge = topology.edge_index(0, 1)
        trials = paper_trials(paper, "median", None, seeds=(0,))
        trace = run_decentralized_delayed(
            paper.costs, topology, trials, paper.constraint,
            paper.schedule, paper.initial_estimate, 40,
            conditions=[Stragglers({edge: 4.0})], staleness_bound=4,
        )
        # Only the one straggling edge carries stale traffic.
        profile = trace.staleness_profile()
        per_round_usable = trace.usable_edge_counts[4:]
        assert (per_round_usable == trace.edges).all()
        assert np.nanmax(profile) > 0.0
        assert np.nanmean(profile) < 0.5  # one slow edge among many

    def test_loosening_tau_cannot_increase_missing(self, paper):
        topology = ring_topology(paper.n, hops=2)
        trials = paper_trials(paper, "cwtm", "gradient_reverse")

        def missing(tau):
            trace = run_decentralized_delayed(
                paper.costs, topology, trials, paper.constraint,
                paper.schedule, paper.initial_estimate, 60,
                conditions=[LinkDelay(uniform_delay(0, 2))],
                staleness_bound=tau,
            )
            return trace.missing_fraction().mean()

        assert missing(0) >= missing(1) >= missing(3)


class TestMissingNeighborPolicies:
    def test_policies_differ_under_loss(self, paper):
        topology = ring_topology(paper.n, hops=2)
        trials = paper_trials(paper, "cwtm", "gradient_reverse")
        kwargs = dict(
            conditions=[IIDDrop(0.5)], staleness_bound=1,
        )
        masked = run_decentralized_delayed(
            paper.costs, topology, trials, paper.constraint,
            paper.schedule, paper.initial_estimate, 60,
            missing_policy="masked", **kwargs,
        )
        shrink = run_decentralized_delayed(
            paper.costs, topology, trials, paper.constraint,
            paper.schedule, paper.initial_estimate, 60,
            missing_policy="shrink", **kwargs,
        )
        assert not np.array_equal(masked.estimates, shrink.estimates)
        # Masked keeps the declared trim and therefore stalls more often
        # than shrink, which lowers the tolerance with the shortfall.
        assert masked.stalled_agent_rounds().sum() > (
            shrink.stalled_agent_rounds().sum()
        )

    def test_masked_thin_neighborhoods_stall_and_hold(self, paper):
        # Dropping everything makes every real edge dead: CWTM at f=1
        # needs 2f+1 = 3 valid messages but only the self slot remains, so
        # every agent stalls every round and the estimates never move.
        topology = ring_topology(paper.n, hops=2)
        trials = paper_trials(paper, "cwtm", "gradient_reverse", seeds=(0,))
        trace = run_decentralized_delayed(
            paper.costs, topology, trials, paper.constraint,
            paper.schedule, paper.initial_estimate, 15,
            conditions=[IIDDrop(1.0)], staleness_bound=1,
            missing_policy="masked",
        )
        assert trace.stalled.all()
        assert np.array_equal(trace.estimates[0], trace.estimates[-1])

    def test_shrink_keeps_descending_on_dead_edges(self, paper):
        # Same dead network under shrink: tolerance shrinks to zero and the
        # honest agents keep descending their own gradients.
        topology = ring_topology(paper.n, hops=2)
        trials = paper_trials(paper, "cwtm", "gradient_reverse", seeds=(0,))
        trace = run_decentralized_delayed(
            paper.costs, topology, trials, paper.constraint,
            paper.schedule, paper.initial_estimate, 15,
            conditions=[IIDDrop(1.0)], staleness_bound=1,
            missing_policy="shrink",
        )
        assert not trace.stalled.any()
        assert not np.array_equal(trace.estimates[0], trace.estimates[-1])

    def test_unknown_policy_rejected(self, paper):
        with pytest.raises(ValueError, match="missing-neighbor policy"):
            DelayedDecentralizedSimulator(
                paper.costs,
                complete_topology(paper.n),
                paper_trials(paper, "cwtm", None, seeds=(0,)),
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
                missing_policy="improvise",
            )

    def test_unmaskable_filter_rejected_by_name(self, paper):
        # krum has no masked kernel even on regular graphs: the delayed
        # engine must reject it at construction, naming the filter.
        with pytest.raises(ValueError, match="'krum'"):
            DelayedDecentralizedSimulator(
                paper.costs,
                complete_topology(paper.n),
                paper_trials(paper, "krum", "gradient_reverse", seeds=(0,)),
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
            )


class TestFaultTimelines:
    def test_crashed_agents_hold_and_resume_warm(self, paper):
        topology = ring_topology(paper.n, hops=2)
        trials = paper_trials(paper, "median", None, seeds=(0,))
        schedule = FaultSchedule().crash(2, at=5, recover_at=15)
        trace = run_decentralized_delayed(
            paper.costs, topology, trials, paper.constraint,
            paper.schedule, paper.initial_estimate, 40,
            fault_schedule=schedule, staleness_bound=1,
        )
        # The crash window holds the iterate exactly; recovery resumes
        # from the held (pre-crash) iterate — decentralized warm restart.
        held = trace.estimates[5, 0, 2]
        assert (trace.estimates[6:16, 0, 2] == held).all()
        assert trace.stalled[5:15, 0, 2].all()
        assert not trace.stalled[16:, 0, 2].any()
        assert not np.array_equal(trace.estimates[20, 0, 2], held)

    def test_byzantine_from_round_flips_behavior(self, paper):
        # No faulty agents from the start: the timeline compromises 4 at
        # round 20.  The control run declares the *same* tolerance (the
        # timeline compromises 4 past the horizon, so the adversary never
        # activates): identical trim/stream up to the takeover, divergence
        # after it.
        topology = ring_topology(paper.n, hops=2)

        def run(from_round):
            trials = [
                BatchTrial(
                    aggregator=make_aggregator("mean", paper.n, paper.f),
                    attack=make_attack("gradient_reverse"),
                    faulty_ids=(),
                    seed=0,
                )
            ]
            return run_decentralized_delayed(
                paper.costs, topology, trials, paper.constraint,
                paper.schedule, paper.initial_estimate, 40,
                fault_schedule=FaultSchedule().byzantine(
                    4, from_round=from_round
                ),
            )

        flipped = run(from_round=20)
        dormant = run(from_round=1000)
        assert np.array_equal(
            flipped.estimates[:21], dormant.estimates[:21]
        )
        assert not np.array_equal(flipped.estimates, dormant.estimates)
        # The compromised agent counts against the honest set.
        assert 4 not in flipped.honest_ids[0]

    def test_all_crashed_round_holds_and_keeps_analytics_defined(self, paper):
        # Every agent down for a window: the whole system freezes, and the
        # trace analytics stay well-defined (no NaN gaps or radii).
        topology = ring_topology(paper.n, hops=2)
        trials = paper_trials(paper, "median", None, seeds=(0,))
        schedule = FaultSchedule()
        for agent in range(paper.n):
            schedule = schedule.crash(agent, at=5, recover_at=8)
        trace = run_decentralized_delayed(
            paper.costs, topology, trials, paper.constraint,
            paper.schedule, paper.initial_estimate, 20,
            fault_schedule=schedule, staleness_bound=1,
        )
        assert trace.stalled[5:8].all()
        np.testing.assert_array_equal(
            trace.estimates[5], trace.estimates[8]
        )
        gaps = trace.consensus_gap()
        radii = trace.distances_to(paper.x_h)
        assert np.isfinite(gaps).all() and np.isfinite(radii).all()
        # The frozen window is visible as a flat segment in both series.
        np.testing.assert_array_equal(gaps[:, 5], gaps[:, 8])
        np.testing.assert_array_equal(radii[:, 5], radii[:, 8])

    def test_timeline_byzantine_needs_an_attack(self, paper):
        schedule = FaultSchedule().byzantine(4, from_round=3)
        with pytest.raises(ValueError, match="no attack"):
            DelayedDecentralizedSimulator(
                paper.costs,
                complete_topology(paper.n),
                [BatchTrial(aggregator=make_aggregator("mean", paper.n, 0))],
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
                fault_schedule=schedule,
            )

    def test_crash_attack_is_accepted_and_silences(self, paper):
        # may_be_silent attacks are representable here (unlike the parent
        # engine): the crashed-from-start agent simply never dispatches.
        topology = ring_topology(paper.n, hops=2)
        trials = [
            BatchTrial(
                aggregator=make_aggregator("median", paper.n, paper.f),
                attack=make_attack("crash"),
                faulty_ids=tuple(paper.faulty_ids),
                seed=0,
            )
        ]
        trace = run_decentralized_delayed(
            paper.costs, topology, trials, paper.constraint,
            paper.schedule, paper.initial_estimate, 20,
        )
        faulty = paper.faulty_ids[0]
        out_degree = topology.out_neighbors(faulty).size
        # Its out-edges never become usable.
        assert (
            trace.usable_edge_counts == trace.edges - out_degree
        )[1:].all()


class TestValidation:
    def test_negative_staleness_rejected(self, paper):
        with pytest.raises(ValueError, match="non-negative"):
            DelayedDecentralizedSimulator(
                paper.costs,
                complete_topology(paper.n),
                paper_trials(paper, "mean", None, seeds=(0,)),
                paper.constraint,
                paper.schedule,
                paper.initial_estimate,
                staleness_bound=-1,
            )

    def test_one_shot_engine(self, paper):
        simulator = DelayedDecentralizedSimulator(
            paper.costs,
            complete_topology(paper.n),
            paper_trials(paper, "mean", None, seeds=(0,)),
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
        )
        simulator.run(3)
        with pytest.raises(RuntimeError, match="one-shot"):
            simulator.run(3)

    def test_step_requires_run(self, paper):
        simulator = DelayedDecentralizedSimulator(
            paper.costs,
            complete_topology(paper.n),
            paper_trials(paper, "mean", None, seeds=(0,)),
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
        )
        with pytest.raises(RuntimeError, match="run"):
            simulator.step()


class TestEdgeIndexing:
    def test_directed_edges_align_with_neighborhood_slots(self):
        topology = make_topology("erdos_renyi", 8, p=0.6, seed=5)
        senders, receivers, slots = topology.directed_edges()
        index, mask = topology.neighborhoods()
        assert senders.size == int(topology.in_degrees.sum())
        for s, r, slot in zip(senders, receivers, slots):
            assert mask[r, slot]
            assert index[r, slot] == s
            assert s != r

    def test_edge_index_roundtrip_and_rejection(self):
        topology = ring_topology(6)
        e = topology.edge_index(0, 1)
        senders, receivers, _ = topology.directed_edges()
        assert senders[e] == 0 and receivers[e] == 1
        with pytest.raises(ValueError, match="no edge"):
            topology.edge_index(0, 3)  # not ring-adjacent
        with pytest.raises(ValueError, match="no edge"):
            topology.edge_index(2, 2)  # self-messages are local
