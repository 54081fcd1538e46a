"""Byte-for-byte pin of the batched server engine on the paper sweep.

:class:`~repro.distsys.batch.BatchSimulator` runs the Appendix-J
regression for every filter and attack of the benchmark's paper sweep
(nine filters × five attacks × two seeds) plus its hostile slice (mean,
CWTM and CGE × nan, inf and overflow), so every order-statistic kernel,
every attack stream and the quarantine path are pinned at once.  The
trajectories must match the committed ones byte for byte — signed zeros
included — both uninterrupted and resumed through a JSON
``state_dict``/``load_state`` round trip taken after the first
quarantines.

Regenerate the fixture only after an intentional semantic change::

    PYTHONPATH=src python tests/distsys/data/generate_server_sweep.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.aggregators.registry import make_aggregator
from repro.attacks.registry import make_attack
from repro.distsys import BatchSimulator, BatchTrial
from repro.functions.batched import stack_costs

DATA = Path(__file__).parent / "data" / "server_sweep_trajectories.npz"

ITERATIONS = 80
#: round of the resumed run's snapshot: every quarantine of the grid
#: happens before it
RESUME_ROUND = 30
FILTERS = (
    "cge", "cwtm", "median", "krum", "multikrum",
    "centered_clip", "meamed", "cge_mean", "norm_clip",
)
ATTACKS = ("gradient_reverse", "random", "alie", "sign_flip", "ipm")
HOSTILE_FILTERS = ("mean", "cwtm", "cge")
HOSTILE_ATTACKS = ("nan", "inf", "overflow")
SEEDS = (0, 1)
COMBOS = [
    (aggregator, attack, seed)
    for aggregator in FILTERS
    for attack in ATTACKS
    for seed in SEEDS
] + [
    (aggregator, attack, seed)
    for aggregator in HOSTILE_FILTERS
    for attack in HOSTILE_ATTACKS
    for seed in SEEDS
]


def build_engine(paper) -> BatchSimulator:
    """The pinned sweep: one trial per :data:`COMBOS` entry, in order."""
    return BatchSimulator(
        costs=stack_costs(paper.costs),
        trials=[
            BatchTrial(
                aggregator=make_aggregator(aggregator, paper.n, paper.f),
                attack=make_attack(attack),
                faulty_ids=tuple(paper.faulty_ids),
                seed=seed,
            )
            for aggregator, attack, seed in COMBOS
        ],
        constraint=paper.constraint,
        schedule=paper.schedule,
        initial_estimate=paper.initial_estimate,
    )


def quarantine_arrays(trace):
    """A trace's quarantine records as ``(trials, rounds, reasons)``."""
    records = trace.quarantined
    return (
        np.array([r["trial"] for r in records], dtype=int),
        np.array([r["round"] for r in records], dtype=int),
        np.array([r["reason"] for r in records], dtype=str),
    )


def resumed_trace(paper):
    """The sweep cut at :data:`RESUME_ROUND`, its snapshot sent through
    JSON and loaded into a fresh engine that runs to the horizon."""
    first = build_engine(paper)
    first.run(RESUME_ROUND)
    state = json.loads(json.dumps(first.state_dict()))
    second = build_engine(paper)
    second.load_state(state)
    return second.run(ITERATIONS, start_round=RESUME_ROUND)


@pytest.fixture(scope="module")
def pinned():
    with np.load(DATA) as data:
        return {key: data[key] for key in data.files}


def assert_matches_pin(trace, pinned):
    assert trace.estimates.dtype == pinned["estimates"].dtype
    assert trace.estimates.shape == pinned["estimates"].shape
    # Bytes, not ``==``: -0.0 and 0.0 compare equal but are different floats.
    assert trace.estimates.tobytes() == pinned["estimates"].tobytes()
    trials, rounds, reasons = quarantine_arrays(trace)
    assert trials.tolist() == pinned["quarantine_trial"].tolist()
    assert rounds.tolist() == pinned["quarantine_round"].tolist()
    assert reasons.tolist() == pinned["quarantine_reason"].tolist()


def test_pin_covers_the_sweep(pinned):
    labels = ["/".join(map(str, combo)) for combo in COMBOS]
    assert pinned["labels"].tolist() == labels
    # The hostile slice quarantines, and before the resume round.
    assert pinned["quarantine_trial"].size > 0
    assert pinned["quarantine_round"].max() < RESUME_ROUND


def test_uninterrupted_run_byte_for_byte(paper, pinned):
    assert_matches_pin(build_engine(paper).run(ITERATIONS), pinned)


def test_resumed_run_byte_for_byte(paper, pinned):
    assert_matches_pin(resumed_trace(paper), pinned)
