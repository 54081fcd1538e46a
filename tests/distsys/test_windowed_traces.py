"""Windowed (``trace_rounds=``) traces: kept rounds ≡ the full trace.

The large-n engines cannot materialize a full ``(T + 1, S, n, d)``
trajectory, so ``trace_rounds=`` keeps only a planned subset of rounds.
The contract: the *dynamics* are untouched — every stored round of a
windowed run equals the same round of the full-trace run bit for bit,
diagnostics accept a ``rounds=`` selector, and asking for an unstored
round raises instead of silently interpolating.
"""

import json

import numpy as np
import pytest

from repro.aggregators.registry import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import (
    BatchDelayedDecentralizedSimulator,
    BatchSimulator,
    BatchTrial,
    DelayBatchTrial,
    IIDDrop,
    LinkDelay,
    complete_topology,
    ring_topology,
    run_decentralized_delayed_batch,
    run_dgd_batch,
    uniform_delay,
)
from repro.distsys.batch import normalize_trace_rounds, select_trace_rounds
from repro.distsys.decentralized import run_decentralized
from repro.functions.batched import stack_costs

T = 24


def make_trials(paper, seeds=(0, 1)):
    return [
        BatchTrial(
            aggregator=make_aggregator("cge", len(paper.costs), paper.f),
            attack=make_attack("gradient_reverse"),
            faulty_ids=tuple(paper.faulty_ids),
            seed=seed,
        )
        for seed in seeds
    ]


def run_batch(paper, trace_rounds=None, iterations=T):
    return run_dgd_batch(
        stack_costs(paper.costs),
        make_trials(paper),
        paper.constraint,
        paper.schedule,
        paper.initial_estimate,
        iterations,
        trace_rounds=trace_rounds,
    )


class TestNormalizeTraceRounds:
    def test_none_keeps_everything(self):
        assert normalize_trace_rounds(None) is None

    def test_stride(self):
        assert normalize_trace_rounds(5) == 5

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            normalize_trace_rounds(0)

    def test_sequence_sorted_and_deduplicated(self):
        assert normalize_trace_rounds([8, 2, 2, 5]) == (2, 5, 8)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_trace_rounds([0, -3])

    def test_select_raises_for_unstored_round(self):
        stored = np.array([0, 4, 8])
        with pytest.raises(ValueError, match=r"rounds \[3\] are not stored"):
            select_trace_rounds(stored, [3])

    def test_select_positions(self):
        stored = np.array([0, 4, 8, 24])
        assert select_trace_rounds(stored, [4, 24]).tolist() == [1, 3]


class TestBatchWindowed:
    def test_stride_keeps_planned_rounds(self, paper):
        trace = run_batch(paper, trace_rounds=5)
        assert trace.stored_rounds.tolist() == [0, 5, 10, 15, 20, T]
        assert trace.iterations == T
        assert trace.estimates.shape[0] == 6

    def test_explicit_rounds_plus_endpoints(self, paper):
        trace = run_batch(paper, trace_rounds=[7, 13])
        assert trace.stored_rounds.tolist() == [0, 7, 13, T]

    def test_full_trace_stored_rounds_span_everything(self, paper):
        trace = run_batch(paper)
        assert trace.rounds is None
        assert trace.stored_rounds.tolist() == list(range(T + 1))

    def test_windowed_rounds_match_full_trace_exactly(self, paper):
        full = run_batch(paper)
        windowed = run_batch(paper, trace_rounds=5)
        for slot, r in enumerate(windowed.stored_rounds):
            np.testing.assert_array_equal(
                windowed.estimates[slot], full.estimates[r]
            )
        # Step sizes are tiny (T, S) bookkeeping and stay complete.
        np.testing.assert_array_equal(windowed.step_sizes, full.step_sizes)

    def test_distances_selector_matches_full_trace(self, paper):
        full = run_batch(paper)
        windowed = run_batch(paper, trace_rounds=[10])
        np.testing.assert_array_equal(
            windowed.distances_to(paper.x_h, rounds=[0, 10, T]),
            full.distances_to(paper.x_h)[:, [0, 10, T]],
        )

    def test_unstored_round_raises(self, paper):
        windowed = run_batch(paper, trace_rounds=[10])
        with pytest.raises(ValueError, match="not stored"):
            windowed.distances_to(paper.x_h, rounds=[3])

    def test_resume_extends_the_window(self, paper):
        engine = BatchSimulator(
            costs=stack_costs(paper.costs),
            trials=make_trials(paper),
            constraint=paper.constraint,
            schedule=paper.schedule,
            initial_estimate=paper.initial_estimate,
            trace_rounds=5,
        )
        engine.run(12)
        trace = engine.run(T, start_round=12)
        # 12 was a horizon once, so it stays kept alongside the strides.
        assert trace.stored_rounds.tolist() == [0, 5, 10, 12, 15, 20, T]
        full = run_batch(paper)
        for slot, r in enumerate(trace.stored_rounds):
            np.testing.assert_array_equal(
                trace.estimates[slot], full.estimates[r]
            )

    def test_checkpoint_roundtrip_windowed(self, paper):
        def fresh():
            return BatchSimulator(
                costs=stack_costs(paper.costs),
                trials=make_trials(paper),
                constraint=paper.constraint,
                schedule=paper.schedule,
                initial_estimate=paper.initial_estimate,
                trace_rounds=5,
            )

        first = fresh()
        first.run(12)
        state = first.state_dict()
        resumed = fresh()
        resumed.load_state(state)
        trace = resumed.run(T, start_round=12)
        uninterrupted = fresh().run(T)
        # The chunked run additionally keeps its intermediate horizon 12;
        # on every round both store, the iterates agree bit for bit.
        shared = uninterrupted.stored_rounds
        assert set(shared.tolist()) <= set(trace.stored_rounds.tolist())
        np.testing.assert_array_equal(
            trace.estimates[
                np.searchsorted(trace.stored_rounds, shared)
            ],
            uninterrupted.estimates,
        )

    def test_checkpoint_windowedness_must_agree(self, paper):
        windowed = BatchSimulator(
            costs=stack_costs(paper.costs),
            trials=make_trials(paper),
            constraint=paper.constraint,
            schedule=paper.schedule,
            initial_estimate=paper.initial_estimate,
            trace_rounds=5,
        )
        windowed.run(12)
        state = windowed.state_dict()
        plain = BatchSimulator(
            costs=stack_costs(paper.costs),
            trials=make_trials(paper),
            constraint=paper.constraint,
            schedule=paper.schedule,
            initial_estimate=paper.initial_estimate,
        )
        with pytest.raises(ValueError, match="trace_rounds mismatch"):
            plain.load_state(state)


class TestDecentralizedWindowed:
    def run(self, paper, trace_rounds=None):
        return run_decentralized(
            stack_costs(paper.costs),
            ring_topology(len(paper.costs)),
            [
                BatchTrial(
                    aggregator=make_aggregator("cwtm", 3, paper.f),
                    attack=make_attack("gradient_reverse"),
                    faulty_ids=tuple(paper.faulty_ids),
                    seed=3,
                )
            ],
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            T,
            trace_rounds=trace_rounds,
        )

    def test_windowed_rounds_match_full_run(self, paper):
        full = self.run(paper)
        windowed = self.run(paper, trace_rounds=8)
        assert windowed.stored_rounds.tolist() == [0, 8, 16, T]
        assert windowed.iterations == T
        for slot, r in enumerate(windowed.stored_rounds):
            np.testing.assert_array_equal(
                windowed.estimates[slot], full.estimates[r]
            )

    def test_consensus_gap_positional_on_stored_snapshots(self, paper):
        full = self.run(paper)
        windowed = self.run(paper, trace_rounds=8)
        np.testing.assert_allclose(
            windowed.consensus_gap(rounds=[-1]),
            full.consensus_gap(rounds=[-1]),
            atol=1e-12,
        )
        # Stored snapshot 1 is absolute round 8 of the full run.
        np.testing.assert_allclose(
            windowed.consensus_gap(rounds=[1]),
            full.consensus_gap(rounds=[8]),
            atol=1e-12,
        )


class TestFusedDelayWindowed:
    """The fused delay engine's ``trace_rounds=``: same dynamics, fewer
    stored rounds, and window-only snapshots that round-trip."""

    @staticmethod
    def trials(paper):
        return [
            DelayBatchTrial(
                aggregator="cwtm",
                topology=topology,
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=(LinkDelay(uniform_delay(0, 2)), IIDDrop(0.2)),
                staleness_bound=2,
                seed=seed,
            )
            for topology in (
                complete_topology(len(paper.costs)),
                ring_topology(len(paper.costs), hops=2),
            )
            for seed in (0, 1)
        ]

    def engine(self, paper, trace_rounds=None):
        return BatchDelayedDecentralizedSimulator(
            stack_costs(paper.costs),
            self.trials(paper),
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            trace_rounds=trace_rounds,
        )

    def run(self, paper, trace_rounds=None):
        return run_decentralized_delayed_batch(
            stack_costs(paper.costs),
            self.trials(paper),
            paper.constraint,
            paper.schedule,
            paper.initial_estimate,
            T,
            trace_rounds=trace_rounds,
        )

    def test_stored_rounds_match_full_trace_exactly(self, paper):
        full = self.run(paper)
        windowed = self.run(paper, trace_rounds=5)
        assert windowed.stored_rounds.tolist() == [0, 5, 10, 15, 20, T]
        assert windowed.iterations == T
        for slot, r in enumerate(windowed.stored_rounds):
            np.testing.assert_array_equal(
                windowed.estimates[slot], full.estimates[r]
            )
        # The per-round bookkeeping stays complete.
        np.testing.assert_array_equal(windowed.step_sizes, full.step_sizes)
        np.testing.assert_array_equal(windowed.stalled, full.stalled)
        np.testing.assert_array_equal(
            windowed.staleness_sums, full.staleness_sums
        )

    def test_final_round_only(self, paper):
        full = self.run(paper)
        windowed = self.run(paper, trace_rounds=[T])
        assert windowed.stored_rounds.tolist() == [0, T]
        np.testing.assert_array_equal(
            windowed.consensus_gap(rounds=[-1]),
            full.consensus_gap(rounds=[-1]),
        )
        np.testing.assert_array_equal(
            windowed.distances_to(paper.x_h, rounds=[-1]),
            full.distances_to(paper.x_h, rounds=[-1]),
        )

    def test_resume_extends_the_window(self, paper):
        engine = self.engine(paper, trace_rounds=5)
        engine.run(12)
        trace = engine.run(T, start_round=12)
        # 12 was a horizon once, so it stays kept alongside the strides.
        assert trace.stored_rounds.tolist() == [0, 5, 10, 12, 15, 20, T]
        full = self.run(paper)
        for slot, r in enumerate(trace.stored_rounds):
            np.testing.assert_array_equal(
                trace.estimates[slot], full.estimates[r]
            )

    def test_checkpoint_roundtrip_windowed(self, paper):
        first = self.engine(paper, trace_rounds=5)
        first.run(12)
        state = json.loads(json.dumps(first.state_dict()))
        assert state["trace_rounds_kept"] == [0, 5, 10, 12]
        assert len(state["trajectory"]) == 4
        resumed = self.engine(paper, trace_rounds=5)
        resumed.load_state(state)
        trace = resumed.run(T, start_round=12)
        uninterrupted = self.engine(paper, trace_rounds=5).run(T)
        shared = uninterrupted.stored_rounds
        assert set(shared.tolist()) <= set(trace.stored_rounds.tolist())
        np.testing.assert_array_equal(
            trace.estimates[np.searchsorted(trace.stored_rounds, shared)],
            uninterrupted.estimates,
        )
        np.testing.assert_array_equal(
            trace.usable_edge_counts, uninterrupted.usable_edge_counts
        )

    def test_checkpoint_windowedness_must_agree(self, paper):
        windowed = self.engine(paper, trace_rounds=5)
        windowed.run(12)
        plain = self.engine(paper)
        plain.run(12)
        with pytest.raises(ValueError, match="trace_rounds mismatch"):
            self.engine(paper).load_state(windowed.state_dict())
        with pytest.raises(ValueError, match="trace_rounds mismatch"):
            self.engine(paper, trace_rounds=5).load_state(plain.state_dict())
