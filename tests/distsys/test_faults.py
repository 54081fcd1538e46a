"""Unit tests for the composable network conditions and fault schedules."""

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distsys.faults import (
    BurstyDrop,
    FaultEvent,
    FaultSchedule,
    IIDDrop,
    LinkDelay,
    Stragglers,
    _TrialNetworks,
    fixed_delay,
    geometric_delay,
    network_streams,
    sample_network_run,
    uniform_delay,
)

N = 6


def run_round(condition, t=0, n=N, seed=0):
    rng = np.random.default_rng(seed)
    condition.begin_run(n, rng)
    delays = np.zeros(n, dtype=int)
    dropped = np.zeros(n, dtype=bool)
    condition.condition_round(t, delays, dropped, rng)
    return delays, dropped


class TestDelaySamplers:
    def test_fixed(self):
        sample = fixed_delay(3)
        assert (sample(np.random.default_rng(0), 5) == 3).all()

    def test_uniform_range(self):
        sample = uniform_delay(1, 4)
        draws = sample(np.random.default_rng(0), 1000)
        assert draws.min() == 1 and draws.max() == 4

    def test_geometric_capped(self):
        sample = geometric_delay(0.05, cap=7)
        draws = sample(np.random.default_rng(0), 1000)
        assert draws.min() >= 0 and draws.max() == 7

    @pytest.mark.parametrize(
        "build",
        [
            lambda: fixed_delay(-1),
            lambda: uniform_delay(3, 1),
            lambda: geometric_delay(0.0),
            lambda: geometric_delay(1.5),
        ],
    )
    def test_invalid_parameters(self, build):
        with pytest.raises(ValueError):
            build()


class TestConditions:
    def test_link_delay_adds_to_selected_agents(self):
        delays, dropped = run_round(LinkDelay(fixed_delay(2), agents=[1, 3]))
        assert delays.tolist() == [0, 2, 0, 2, 0, 0]
        assert not dropped.any()

    def test_conditions_compose_in_order(self):
        rng = np.random.default_rng(0)
        first = LinkDelay(fixed_delay(1))
        second = Stragglers({2: 3.0})
        for condition in (first, second):
            condition.begin_run(N, rng)
        delays = np.zeros(N, dtype=int)
        dropped = np.zeros(N, dtype=bool)
        for condition in (first, second):
            condition.condition_round(0, delays, dropped, rng)
        # Straggler scaling applies on top of the base delay:
        # ceil(3 * (1 + 1)) - 1 = 5 for agent 2, 1 elsewhere.
        assert delays.tolist() == [1, 1, 5, 1, 1, 1]

    def test_straggler_slow_even_on_fast_network(self):
        delays, _ = run_round(Stragglers({4: 4.0}))
        assert delays.tolist() == [0, 0, 0, 0, 3, 0]

    def test_straggler_slowdown_one_is_noop(self):
        delays, _ = run_round(Stragglers({0: 1.0}))
        assert delays.tolist() == [0] * N

    def test_iid_drop_rates(self):
        rng = np.random.default_rng(0)
        condition = IIDDrop(0.5)
        condition.begin_run(N, rng)
        total = 0
        for t in range(2000):
            delays = np.zeros(N, dtype=int)
            dropped = np.zeros(N, dtype=bool)
            condition.condition_round(t, delays, dropped, rng)
            total += dropped.sum()
        assert abs(total / (2000 * N) - 0.5) < 0.02

    def test_iid_drop_only_named_links(self):
        _, dropped = run_round(IIDDrop(1.0, agents=[0, 5]))
        assert dropped.tolist() == [True, False, False, False, False, True]

    def test_bursty_drop_is_correlated(self):
        rng = np.random.default_rng(1)
        condition = BurstyDrop(enter=0.05, exit=0.3)
        condition.begin_run(1, rng)
        states = []
        for t in range(4000):
            delays = np.zeros(1, dtype=int)
            dropped = np.zeros(1, dtype=bool)
            condition.condition_round(t, delays, dropped, rng)
            states.append(bool(dropped[0]))
        arr = np.array(states)
        loss = arr.mean()
        assert 0.0 < loss < 1.0
        # Consecutive-round correlation: bursts make P(drop | drop) exceed
        # the marginal rate by a wide margin.
        joint = (arr[1:] & arr[:-1]).mean()
        assert joint > 1.5 * loss * loss

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError, match="outside range"):
            run_round(IIDDrop(0.5, agents=[17]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: IIDDrop(1.2),
            lambda: BurstyDrop(enter=-0.1, exit=0.5),
            lambda: Stragglers({}),
            lambda: Stragglers({1: 0.5}),
        ],
    )
    def test_invalid_conditions(self, build):
        with pytest.raises(ValueError):
            build()


class TestSampleRun:
    """The whole-run pre-sampling fast path of the conditions pipeline."""

    def per_round(self, conditions, rounds, n=N, seed=0):
        """The historical per-round sampling loop, for comparison."""
        rng = np.random.default_rng(seed)
        for condition in conditions:
            condition.begin_run(n, rng)
        delays = np.zeros((rounds, n), dtype=int)
        dropped = np.zeros((rounds, n), dtype=bool)
        for t in range(rounds):
            for condition in conditions:
                condition.condition_round(t, delays[t], dropped[t], rng)
        return delays, dropped

    def whole_run(self, conditions, rounds, n=N, seed=0, chunks=(None,)):
        """sample_network_run, optionally split into chunks."""
        rng = np.random.default_rng(seed)
        for condition in conditions:
            condition.begin_run(n, rng)
        if chunks == (None,):
            return sample_network_run(conditions, rng, n, rounds)
        parts = []
        start = 0
        for chunk in chunks:
            parts.append(
                sample_network_run(conditions, rng, n, chunk, start=start)
            )
            start += chunk
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
        )

    @pytest.mark.parametrize("build", [
        lambda: [LinkDelay(uniform_delay(0, 3))],
        lambda: [IIDDrop(0.4)],
        lambda: [LinkDelay(fixed_delay(2)), Stragglers({2: 3.0})],
        lambda: [BurstyDrop(enter=0.2, exit=0.4, rate_in_burst=0.9)],
        lambda: [LinkDelay(geometric_delay(0.4, cap=5))],
    ])
    def test_single_stochastic_condition_matches_per_round_stream(self, build):
        # With at most one RNG-consuming condition the whole-run block
        # consumes the stream exactly like per-round sampling did —
        # including BurstyDrop, whose block draws are round-interleaved
        # (flips then losses per round, the per-round hook's order).
        expected = self.per_round(build(), rounds=25)
        actual = self.whole_run(build(), rounds=25)
        np.testing.assert_array_equal(actual[0], expected[0])
        np.testing.assert_array_equal(actual[1], expected[1])

    @given(
        chunks=st.lists(
            st.integers(min_value=1, max_value=9), min_size=1, max_size=6
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_bursty_multi_round_chunks_reproduce_uncut_stream(
        self, chunks, seed
    ):
        """The chunked-pre-sampling drift regression: multi-round chunks of
        the stateful Gilbert–Elliott chain must reproduce the uncut
        whole-run realization bit for bit (continuous start, same rng)."""
        build = lambda: [BurstyDrop(enter=0.3, exit=0.4, rate_in_burst=0.8)]
        rounds = sum(chunks)
        uncut = self.whole_run(build(), rounds=rounds, seed=seed)
        chunked = self.whole_run(
            build(), rounds=rounds, seed=seed, chunks=tuple(chunks)
        )
        np.testing.assert_array_equal(chunked[1], uncut[1])
        # ... and both equal the historical per-round stream.
        per_round = self.per_round(build(), rounds=rounds, seed=seed)
        np.testing.assert_array_equal(uncut[1], per_round[1])

    @given(
        chunks=st.lists(
            st.integers(min_value=1, max_value=9), min_size=1, max_size=6
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        p=st.sampled_from((0.2, 0.45, 0.8)),
        cap=st.sampled_from((3, 64)),
    )
    @settings(max_examples=30, deadline=None)
    def test_geometric_delay_chunks_reproduce_uncut_stream(
        self, chunks, seed, p, cap
    ):
        """Capped geometric delays consume the bit stream one variate at a
        time (inversion for small p, search otherwise), so chunked blocks
        must reproduce the uncut and per-round streams exactly."""
        build = lambda: [LinkDelay(geometric_delay(p, cap=cap))]
        rounds = sum(chunks)
        uncut = self.whole_run(build(), rounds=rounds, seed=seed)
        chunked = self.whole_run(
            build(), rounds=rounds, seed=seed, chunks=tuple(chunks)
        )
        np.testing.assert_array_equal(chunked[0], uncut[0])
        per_round = self.per_round(build(), rounds=rounds, seed=seed)
        np.testing.assert_array_equal(uncut[0], per_round[0])

    def test_bursty_chunked_pipeline_respects_start_offsets(self):
        # A multi-condition pipeline chunked at uneven boundaries: each
        # condition's own stream is chunk-invariant, so the only ordering
        # that matters is condition-major within a chunk — identical
        # chunking must reproduce identical realizations, and the chain
        # state must carry over the boundaries (no begin_run between
        # chunks).
        build = lambda: [
            LinkDelay(geometric_delay(0.5, cap=4)),
            BurstyDrop(enter=0.3, exit=0.2),
        ]
        a = self.whole_run(build(), rounds=24, seed=9, chunks=(5, 7, 12))
        b = self.whole_run(build(), rounds=24, seed=9, chunks=(5, 7, 12))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_one_round_chunks_match_per_round_stream(self):
        # Chunked one round at a time, even a multi-consumer pipeline is
        # bit-identical to the historical per-round interleaving.
        conditions = lambda: [
            LinkDelay(uniform_delay(0, 2)),
            IIDDrop(0.3),
            BurstyDrop(enter=0.2, exit=0.4),
        ]
        expected = self.per_round(conditions(), rounds=12)
        actual = self.whole_run(conditions(), rounds=12, chunks=(1,) * 12)
        np.testing.assert_array_equal(actual[0], expected[0])
        np.testing.assert_array_equal(actual[1], expected[1])

    def test_bursty_chain_state_persists_across_chunks(self):
        # Whole-run and chunked sampling see the same chain *statistics*;
        # a begin_run between chunks would restart every link in the good
        # state and visibly reduce the loss rate.
        condition = BurstyDrop(enter=0.5, exit=0.05)
        _, whole = self.whole_run([condition], rounds=400, seed=5)
        condition = BurstyDrop(enter=0.5, exit=0.05)
        _, chunked = self.whole_run(
            [condition], rounds=400, seed=5, chunks=(100,) * 4
        )
        assert abs(whole.mean() - chunked.mean()) < 0.1
        assert chunked.mean() > 0.5  # bursts survive the chunk boundaries

    def test_begin_run_resets_the_chain(self):
        condition = BurstyDrop(enter=1.0, exit=0.0)
        rng = np.random.default_rng(0)
        condition.begin_run(N, rng)
        _, dropped = sample_network_run([condition], rng, N, 5)
        assert dropped[1:].all()  # every link burst-bound from round 1
        condition.begin_run(N, rng)
        assert not condition._in_burst.any()

    def test_straggler_stretch_applies_to_whole_block(self):
        delays, _ = self.whole_run(
            [LinkDelay(fixed_delay(1)), Stragglers({2: 3.0})], rounds=4
        )
        assert (delays[:, 2] == 5).all()
        assert (delays[:, [0, 1, 3, 4, 5]] == 1).all()

    def test_invalid_sampler_rejected_in_block_form(self):
        bad = LinkDelay(lambda rng, size: np.full(size, -1))
        bad.begin_run(N, np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-negative"):
            sample_network_run([bad], np.random.default_rng(0), N, 3)

    def test_schedule_sample_run_matches_crashed_mask(self):
        schedule = (
            FaultSchedule()
            .crash(2, at=5, recover_at=9)
            .crash(0, at=11)
        )
        active = schedule.sample_run(None, N, 20)
        for t in range(20):
            np.testing.assert_array_equal(
                ~active[t], schedule.crashed_mask(t, N)
            )

    def test_schedule_sample_run_honours_start_offset(self):
        schedule = FaultSchedule().crash(1, at=5, recover_at=9)
        active = schedule.sample_run(None, N, 6, start=6)
        # rows cover absolute rounds 6..11: crashed at 6,7,8; back at 9+.
        np.testing.assert_array_equal(
            active[:, 1], [False, False, False, True, True, True]
        )


class TestFaultSchedule:
    def test_fluent_building_is_immutable(self):
        base = FaultSchedule().crash(1, at=5)
        extended = base.byzantine(0, from_round=3)
        assert len(base.events) == 1
        assert len(extended.events) == 2

    def test_crash_window(self):
        schedule = FaultSchedule().crash(2, at=5, recover_at=9)
        assert not schedule.crashed_mask(4, N)[2]
        assert schedule.crashed_mask(5, N)[2]
        assert schedule.crashed_mask(8, N)[2]
        assert not schedule.crashed_mask(9, N)[2]

    def test_crash_without_recovery_is_forever(self):
        schedule = FaultSchedule().crash(0, at=3)
        assert schedule.crashed_mask(1000, N)[0]

    def test_compromised_since(self):
        schedule = FaultSchedule().byzantine(4, from_round=7)
        assert schedule.compromised_since() == {4: 7}

    def test_warm_restart_views(self):
        schedule = (
            FaultSchedule()
            .crash(2, at=5, recover_at=9, recovery="warm")
            .crash(3, at=10, recover_at=12)             # reset: no entry
            .crash(0, at=0, recover_at=4, recovery="warm")
        )
        assert schedule.warm_restart_views() == {
            (2, 9): 4,   # last broadcast seen: round 4
            (0, 4): 0,   # round-0 crash: the initial estimate
        }

    def test_overlapping_warm_windows_keep_stalest_view(self):
        schedule = (
            FaultSchedule()
            .crash(1, at=3, recover_at=10, recovery="warm")
            .crash(1, at=7, recover_at=10, recovery="warm")
        )
        assert schedule.warm_restart_views() == {(1, 10): 2}

    def test_warm_recovery_requires_recovery_round(self):
        with pytest.raises(ValueError, match="warm recovery"):
            FaultSchedule().crash(0, at=3, recovery="warm")

    def test_unknown_recovery_mode_rejected(self):
        with pytest.raises(ValueError, match="recovery mode"):
            FaultSchedule().crash(0, at=3, recover_at=5, recovery="tepid")

    def test_fault_agents_union(self):
        schedule = (
            FaultSchedule().crash(3, at=1).byzantine(0, from_round=2)
        )
        assert schedule.fault_agents() == (0, 3)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside range"):
            FaultSchedule().crash(9, at=0).validate(N)

    def test_validate_rejects_duplicate_compromise(self):
        schedule = (
            FaultSchedule().byzantine(1, from_round=0).byzantine(1, from_round=4)
        )
        with pytest.raises(ValueError, match="multiple byzantine"):
            schedule.validate(N)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FaultEvent("melt", 0, 0),
            lambda: FaultEvent("crash", -1, 0),
            lambda: FaultEvent("crash", 0, -2),
            lambda: FaultEvent("crash", 0, 5, end=5),
            lambda: FaultEvent("byzantine", 0, 0, end=9),
        ],
    )
    def test_invalid_events(self, build):
        with pytest.raises(ValueError):
            build()


class TestConstructionValidation:
    """Bad parameters fail loudly at construction, naming the argument.

    The orchestrated sweeps build conditions in worker processes from JSON
    payloads; a silently-accepted bad rate would surface hundreds of
    rounds later as NaN radii.  Each message must name the offending
    argument so the payload bug is findable from the cell's error string.
    """

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_iid_drop_rate_range(self, rate):
        with pytest.raises(ValueError, match=r"rate="):
            IIDDrop(rate)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(enter=-0.2, exit=0.5, rate_in_burst=1.0), "enter"),
            (dict(enter=0.2, exit=1.5, rate_in_burst=1.0), "exit"),
            (dict(enter=0.2, exit=0.5, rate_in_burst=2.0), "rate_in_burst"),
        ],
    )
    def test_bursty_drop_probabilities(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name}="):
            BurstyDrop(**kwargs)

    def test_stragglers_empty(self):
        with pytest.raises(ValueError, match="empty"):
            Stragglers({})

    @pytest.mark.parametrize("factor", [0.5, 0.0, -1.0, float("nan")])
    def test_stragglers_slowdown_below_one(self, factor):
        with pytest.raises(ValueError, match=r"slowdown\[2\]="):
            Stragglers({2: factor})

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: fixed_delay(-1), "rounds="),
            (lambda: uniform_delay(-1, 4), "low="),
            (lambda: uniform_delay(3, 1), "high="),
            (lambda: geometric_delay(0.0), "p="),
            (lambda: geometric_delay(0.5, cap=-1), "cap="),
        ],
    )
    def test_delay_samplers_name_the_argument(self, build, name):
        with pytest.raises(ValueError, match=name):
            build()

    def test_agent_subset_out_of_range(self):
        condition = IIDDrop(0.5, agents=[1, 9])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="outside range"):
            condition.begin_run(N, rng)


class TestNetworkStreams:
    def test_one_stream_per_condition(self):
        streams = network_streams(seed=3, count=4)
        assert len(streams) == 4
        draws = [s.random() for s in streams]
        assert len(set(draws)) == 4  # independent streams
        again = [s.random() for s in network_streams(seed=3, count=4)]
        assert draws == again  # and deterministic in (seed, index)

    def test_sample_run_rejects_stream_count_mismatch(self):
        conditions = [IIDDrop(0.2), IIDDrop(0.3)]
        with pytest.raises(ValueError, match="2 conditions"):
            sample_network_run(conditions, network_streams(0, 3), N, 5)

    def test_chunked_sampling_matches_one_shot_per_condition(self):
        """The chunk-invariance contract behind resumable pre-sampling."""
        conditions = [
            LinkDelay(uniform_delay(0, 2)),
            IIDDrop(0.3),
            BurstyDrop(enter=0.2, exit=0.5, rate_in_burst=0.9),
        ]
        rounds, n = 12, N

        def fresh(c):
            streams = network_streams(seed=5, count=len(c))
            for condition, stream in zip(c, streams):
                condition.begin_run(n, stream)
            return streams

        streams = fresh(conditions)
        one_delays, one_dropped = sample_network_run(
            conditions, streams, n, rounds
        )

        streams = fresh(conditions)
        head = sample_network_run(conditions, streams, n, 5)
        tail = sample_network_run(
            conditions, streams, n, rounds - 5, start=5
        )
        np.testing.assert_array_equal(
            one_delays, np.concatenate([head[0], tail[0]])
        )
        np.testing.assert_array_equal(
            one_dropped, np.concatenate([head[1], tail[1]])
        )


class TestTrialNetworks:
    """The per-trial network realisation the batched engines own."""

    ROUNDS = 12
    #: both trials share these instances, as sweep grids often do
    SHARED = (
        LinkDelay(uniform_delay(0, 2)),
        BurstyDrop(enter=0.2, exit=0.5, rate_in_burst=0.9),
    )
    WIDTHS = (N, N - 2)

    def trials(self):
        return [
            SimpleNamespace(seed=seed, conditions=self.SHARED)
            for seed in (1, 2)
        ]

    def tensors(self):
        shape = (self.ROUNDS, len(self.WIDTHS), N)
        return np.full(shape, -1), np.ones(shape, dtype=bool)

    def one_shot(self, seed, width):
        """One trial's realisation as a per-trial engine samples it."""
        conditions = copy.deepcopy(self.SHARED)
        streams = network_streams(seed, len(conditions))
        for condition, stream in zip(conditions, streams):
            condition.begin_run(width, stream)
        return sample_network_run(conditions, streams, width, self.ROUNDS)

    def test_chunks_fill_each_trial_with_its_own_realisation(self):
        delays, dropped = self.tensors()
        networks = _TrialNetworks(self.trials(), self.WIDTHS)
        for stop in (4, 5, self.ROUNDS):
            networks.sample(stop, delays, dropped)
        assert networks.horizon == self.ROUNDS
        for index, (trial, width) in enumerate(
            zip(self.trials(), self.WIDTHS)
        ):
            one_delays, one_dropped = self.one_shot(trial.seed, width)
            np.testing.assert_array_equal(
                delays[:, index, :width], one_delays
            )
            np.testing.assert_array_equal(
                dropped[:, index, :width], one_dropped
            )
        # Padding columns beyond a trial's width keep the engine's fill.
        assert (delays[:, 1, N - 2 :] == -1).all()
        assert dropped[:, 1, N - 2 :].all()

    def test_snapshot_at_a_chunk_boundary_resumes_the_realisation(self):
        delays, dropped = self.tensors()
        networks = _TrialNetworks(self.trials(), self.WIDTHS)
        networks.sample(5, delays, dropped)
        with pytest.raises(RuntimeError, match="chunk boundaries"):
            networks.state_dict(4)
        state = json.loads(json.dumps(networks.state_dict(5)))

        resumed = _TrialNetworks(self.trials(), self.WIDTHS)
        resumed.load_state(state, 5)
        assert resumed.horizon == 5
        resumed.sample(self.ROUNDS, delays, dropped)
        for index, (trial, width) in enumerate(
            zip(self.trials(), self.WIDTHS)
        ):
            one_delays, one_dropped = self.one_shot(trial.seed, width)
            np.testing.assert_array_equal(
                delays[:, index, :width], one_delays
            )
            np.testing.assert_array_equal(
                dropped[:, index, :width], one_dropped
            )
