"""Backend contract on the engine family (DESIGN invariant 14).

Every refactored tensor path must (a) produce bit-identical results on
the default ``numpy`` backend — the shim's numpy ops ARE the numpy
functions — and (b) run end to end under the ``strict`` backend, which
turns any stray dispatched ``np.*`` call on a hot path into a
:class:`BackendBypassError` while computing bit-identically to numpy.
"""

import numpy as np
import pytest

from repro.aggregators.registry import make_aggregator
from repro.attacks.registry import make_attack
from repro.backend import use_backend
from repro.distsys import (
    AsyncBatchTrial,
    BatchAsynchronousSimulator,
    BatchDelayedDecentralizedSimulator,
    BatchSimulator,
    BatchTrial,
    DelayBatchTrial,
    FaultSchedule,
    IIDDrop,
    LinkDelay,
    complete_topology,
    erdos_renyi_topology,
    ring_topology,
    uniform_delay,
)
from repro.distsys.decentralized import DecentralizedSimulator
from repro.functions.batched import stack_costs

T = 15


def batch_engine(paper, aggregator="cge"):
    return BatchSimulator(
        costs=stack_costs(paper.costs),
        trials=[
            BatchTrial(
                aggregator=make_aggregator(
                    aggregator, len(paper.costs), paper.f
                ),
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                seed=seed,
            )
            for seed in (0, 1)
        ],
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
    )


def async_engine(paper):
    return BatchAsynchronousSimulator(
        costs=stack_costs(paper.costs),
        trials=[
            AsyncBatchTrial(
                aggregator="cge",
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=(LinkDelay(uniform_delay(0, 2)), IIDDrop(0.2)),
                staleness_bound=2,
                missing_policy="shrink",
                seed=seed,
            )
            for seed in (0, 1)
        ],
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
    )


def decentralized_engine(paper, topology):
    return DecentralizedSimulator(
        costs=stack_costs(paper.costs),
        topology=topology,
        trials=[
            BatchTrial(
                aggregator=make_aggregator(
                    "cwtm", len(paper.costs), paper.f
                ),
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                seed=seed,
            )
            for seed in (0, 1)
        ],
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
    )


def delay_engine(paper):
    return BatchDelayedDecentralizedSimulator(
        costs=stack_costs(paper.costs),
        trials=[
            DelayBatchTrial(
                aggregator="cwtm",
                topology=topology,
                attack=make_attack("gradient_reverse"),
                faulty_ids=tuple(paper.faulty_ids),
                conditions=(LinkDelay(uniform_delay(0, 2)), IIDDrop(0.2)),
                fault_schedule=FaultSchedule().crash(2, at=5, recover_at=10),
                staleness_bound=2,
                missing_policy=policy,
                seed=seed,
            )
            for topology, policy in (
                (complete_topology(len(paper.costs)), "masked"),
                (ring_topology(len(paper.costs), hops=2), "shrink"),
            )
            for seed in (0, 1)
        ],
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
    )


ENGINES = {
    "batch": batch_engine,
    "async": async_engine,
    "decentralized-ring": lambda paper: decentralized_engine(
        paper, ring_topology(len(paper.costs))
    ),
    "decentralized-irregular": lambda paper: decentralized_engine(
        paper, erdos_renyi_topology(len(paper.costs), p=0.6, seed=5)
    ),
    "delay": delay_engine,
}


class TestStrictBackendBitIdentical:
    """The engines run strict end to end, bit-identical to numpy."""

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_engine(self, paper, name):
        make = ENGINES[name]
        baseline = make(paper).run(T)
        with use_backend("strict"):
            strict = make(paper).run(T)
        assert np.array_equal(
            np.asarray(strict.estimates), np.asarray(baseline.estimates)
        )


class TestStrayNumpyDetection:
    """A hot path that bypasses the shim fails loudly, naming the call."""

    def test_bypass_is_detected(self, paper):
        from repro.backend import BackendBypassError, xp

        with use_backend("strict"):
            estimates = xp.asarray(np.zeros((2, 6, 2)))
            with pytest.raises(BackendBypassError, match="np.median"):
                np.median(estimates, axis=1)
