"""The decentralized-delay experiment family: topology × τ × drop sweeps.

Runs the Appendix-J regression system through the delay-tolerant
decentralized engines over a grid of communication topologies, staleness
bounds and per-edge loss rates — under a fixed per-edge delay spectrum
with the paper's gradient-reverse adversary — and reports, per
configuration, the final **convergence radius**
``max_{i honest} ||x_i^T - x_H||`` and **consensus gap**
``max_{i,j honest} ||x_i^T - x_j^T||`` together with the gossip
diagnostics the synchronous sweep cannot produce: the per-round fraction
of edges whose last delivery missed the staleness bound, the mean
staleness of the deliveries actually used, and the number of
(agent, round) stalls.

With ``engine="batched"`` (the default) the whole topology × τ × drop ×
policy × seed grid fuses onto the batch axis of one
:class:`~repro.distsys.batch_decentralized_delay.BatchDelayedDecentralizedSimulator`
tensor program; ``engine="reference"`` replays the per-trial
:class:`~repro.distsys.decentralized_delay.DelayedDecentralizedSimulator`
cell by cell.  The fused engine is pinned bit for bit to the per-trial
one, so the flag is a verification fallback, not a semantic switch.

Each filter column runs under its declared missing-neighbor policy (the
graph analogue of the asynchronous missing-value contract, sharing
:data:`repro.experiments.asynchronous.DEFAULT_POLICIES`); aggregators are
grouped by policy so every (topology, τ, drop, policy) cell is one
aggregator × attack × seed sub-grid of the fused batch (or one batched
per-cell engine run under ``"reference"``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..aggregators.registry import make_aggregator
from ..attacks.registry import make_attack
from ..distsys.batch import BatchTrial
from ..distsys.batch_decentralized_delay import (
    BatchDelayedDecentralizedSimulator,
    DelayBatchTrial,
)
from ..distsys.decentralized_delay import DelayedDecentralizedSimulator
from ..distsys.faults import IIDDrop, LinkDelay, uniform_delay
from ..distsys.topology import CommunicationTopology, make_topology
from ..functions.batched import stack_costs
from ..telemetry.recorder import current_recorder
from .asynchronous import DEFAULT_POLICIES, SWEEP_ENGINES
from .decentralized import deserialize_topology, serialize_topology
from .orchestrator import (
    OrchestratorConfig,
    SweepCell,
    SweepReport,
    _cell_quarantines,
    _run_cell_engine,
    _run_one_cell,
    _with_quarantine,
    run_sweep_cells,
)
from .paper_regression import PaperProblem, paper_problem
from .reporting import format_table

__all__ = [
    "DecentralizedDelaySweepRow",
    "default_delay_topologies",
    "decentralized_delay_sweep",
    "orchestrated_decentralized_delay_sweep",
    "render_decentralized_delay_report",
]


@dataclass
class DecentralizedDelaySweepRow:
    """One (topology, τ, drop rate, filter) cell of the delay sweep."""

    topology: str
    staleness_bound: int
    drop_rate: float
    aggregator: str
    policy: str
    attack: Optional[str]
    seeds: int
    mean_radius: float          # mean over seeds of the final radius
    worst_radius: float         # max over seeds
    mean_gap: float             # mean over seeds of the final consensus gap
    missing_rate: float         # mean per-round fraction of unusable edges
    mean_staleness: float       # mean staleness of the usable deliveries
    stalled: int                # total (agent, round) stalls across seeds


def default_delay_topologies(
    n: int, seed: int = 0
) -> List[CommunicationTopology]:
    """The delay sweep's topology spectrum: dense, regular-sparse, irregular."""
    return [
        make_topology("complete", n),
        make_topology("ring", n, hops=2),
        make_topology("erdos_renyi", n, seed=seed, p=0.7),
    ]


def _cell_conditions(drop_rate: float, delay_high: int):
    """The sweep's shared per-edge condition pipeline."""
    conditions = [LinkDelay(uniform_delay(0, delay_high))]
    if drop_rate > 0:
        conditions.append(IIDDrop(drop_rate))
    return conditions


def _policy_grouping(
    aggregators: Sequence[str], policies: Optional[Dict[str, str]]
) -> Dict[str, List[str]]:
    """Group the filter columns by missing-neighbor policy, in order."""
    resolved = dict(DEFAULT_POLICIES, **(policies or {}))
    by_policy: Dict[str, List[str]] = {}
    for aggregator in aggregators:
        by_policy.setdefault(
            resolved.get(aggregator, "masked"), []
        ).append(aggregator)
    return by_policy


class _Cell(NamedTuple):
    """One (topology, τ, drop rate, policy) configuration and its filters."""

    topology: CommunicationTopology
    tau: int
    drop_rate: float
    policy: str
    aggregators: Sequence[str]


def _trace_diagnostics(problem, trace) -> Dict[str, np.ndarray]:
    """The per-trial report reductions, computed once per trace.

    The fused engine carries the whole sweep in one trace; folding each
    cell by recomputing trace-wide diagnostics would redo the same
    reductions once per cell, so they are hoisted here and the fold
    slices the precomputed per-trial arrays.
    """
    return {
        "radii": trace.distances_to(problem.x_h, rounds=[-1])[:, -1],
        "gaps": trace.consensus_gap(rounds=[-1])[:, -1],
        "missing": _round_means(trace.missing_fraction()),
        "profile": trace.staleness_profile(),
        "stalls": trace.stalled_agent_rounds(),
    }


def _round_means(per_round: np.ndarray) -> np.ndarray:
    """Each trial's mean over its ``(S, T)`` row, summed left to right as
    ``mean(axis=1)`` sums the engines' column-major blocks when S > 1 (it
    sums a lone trial's row pairwise, which would make a one-trial cell's
    row depend on the other cells in its engine)."""
    total = np.zeros(per_round.shape[0])
    for column in per_round.T:
        total += column
    return total / per_round.shape[1]


def _fold_cell_rows(
    diagnostics, cell: _Cell, attack, seeds, offset=0
) -> List[DecentralizedDelaySweepRow]:
    """Fold one cell's slice of the diagnostics into its report rows.

    Works on both trace flavors — the per-trial engine's cell trace
    (``offset=0``) and the fused engine's multi-cell trace (``offset`` =
    the cell's first trial index) — because both expose the same
    per-trial diagnostics.
    """
    radii = diagnostics["radii"]
    gaps = diagnostics["gaps"]
    missing = diagnostics["missing"]
    profile = diagnostics["profile"]
    stalls = diagnostics["stalls"]
    rows: List[DecentralizedDelaySweepRow] = []
    for c, aggregator in enumerate(cell.aggregators):
        span = slice(
            offset + c * len(seeds), offset + (c + 1) * len(seeds)
        )
        cell_profile = profile[span]
        rows.append(
            DecentralizedDelaySweepRow(
                topology=cell.topology.name,
                staleness_bound=int(cell.tau),
                drop_rate=float(cell.drop_rate),
                aggregator=aggregator,
                policy=cell.policy,
                attack=attack,
                seeds=len(seeds),
                mean_radius=float(radii[span].mean()),
                worst_radius=float(radii[span].max()),
                mean_gap=float(gaps[span].mean()),
                missing_rate=float(missing[span].mean()),
                mean_staleness=(
                    float(np.nanmean(cell_profile))
                    if np.isfinite(cell_profile).any()
                    else float("nan")
                ),
                stalled=int(stalls[span].sum()),
            )
        )
    return rows


def _run_cells(
    problem: PaperProblem,
    cells: Sequence[_Cell],
    attack: Optional[str],
    seeds: Sequence[int],
    iterations: int,
    delay_high: int,
    checkpoint: Optional[Dict[str, object]] = None,
) -> List[Tuple[List[DecentralizedDelaySweepRow], List[Dict[str, object]]]]:
    """The delay family's one engine-and-fold path (direct sweep and
    orchestrator workers): every cell's trials in one fused engine, one
    diagnostics pass, and each cell folded from its own trials into its
    rows and quarantine records.  ``checkpoint``: see
    :func:`~repro.experiments.orchestrator._run_cell_engine`."""
    stack = stack_costs(problem.costs)
    faulty = () if attack is None else tuple(problem.faulty_ids)
    trials = [
        DelayBatchTrial(
            aggregator=make_aggregator(aggregator, problem.n, problem.f),
            topology=cell.topology,
            attack=None if attack is None else make_attack(attack),
            faulty_ids=faulty,
            conditions=tuple(_cell_conditions(cell.drop_rate, delay_high)),
            staleness_bound=int(cell.tau),
            missing_policy=cell.policy,
            seed=int(seed),
            label=(
                f"{cell.topology.name}/tau{cell.tau}"
                f"/drop{cell.drop_rate}/{aggregator}/s{seed}"
            ),
        )
        for cell in cells
        for aggregator in cell.aggregators
        for seed in seeds
    ]
    widths = (len(cell.aggregators) * len(seeds) for cell in cells)
    offsets = list(accumulate(widths, initial=0))[:-1]

    def make_engine() -> BatchDelayedDecentralizedSimulator:
        # The rows read round T only: store just it (and round 0).
        return BatchDelayedDecentralizedSimulator(
            costs=stack,
            trials=trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
            trace_rounds=[iterations],
        )

    trace = _run_cell_engine(make_engine, iterations, checkpoint)
    diagnostics = _trace_diagnostics(problem, trace)
    return [
        (_fold_cell_rows(diagnostics, cell, attack, seeds, offset), records)
        for cell, offset, records in zip(
            cells, offsets, _cell_quarantines(trace, offsets)
        )
    ]


def decentralized_delay_sweep(
    problem: Optional[PaperProblem] = None,
    topologies: Optional[Sequence[CommunicationTopology]] = None,
    staleness_bounds: Sequence[int] = (0, 1, 3),
    drop_rates: Sequence[float] = (0.0, 0.2),
    aggregators: Sequence[str] = ("cwtm", "cge_mean", "median"),
    attack: Optional[str] = "gradient_reverse",
    policies: Optional[Dict[str, str]] = None,
    iterations: int = 300,
    seeds: Sequence[int] = (0,),
    delay_high: int = 2,
    engine: str = "batched",
) -> List[DecentralizedDelaySweepRow]:
    """Run the topology × τ × drop × filter sweep; returns report rows.

    Every cell shares the same per-edge delay spectrum (uniform integer
    delays in ``0..delay_high`` on every directed edge) so the staleness
    bound τ is the axis deciding how much in-flight gossip is usable; the
    drop rate adds i.i.d. per-edge loss on top.  With ``delay_high = 0``
    and no drops every edge is fresh and the engines pin bit for bit to
    the synchronous
    :class:`~repro.distsys.decentralized.DecentralizedSimulator` — the
    benchmark asserts that degenerate identity inside the workload.

    With ``engine="batched"`` (the default) the *entire* grid — every
    (topology, τ, drop, policy, filter, seed) trial — runs as one fused
    :class:`~repro.distsys.batch_decentralized_delay.BatchDelayedDecentralizedSimulator`
    tensor program; ``engine="reference"`` replays the per-trial
    :class:`~repro.distsys.decentralized_delay.DelayedDecentralizedSimulator`
    one (topology, τ, drop, policy) cell at a time.  The fused engine is
    pinned bit for bit to the per-trial one, so the rows are identical.

    ``policies`` overrides the per-filter missing-neighbor policy
    (default: :data:`repro.experiments.asynchronous.DEFAULT_POLICIES` —
    CGE shrinks, the trim-style filters stay masked).
    """
    if engine not in SWEEP_ENGINES:
        raise ValueError(
            f"unknown sweep engine {engine!r}; known: {', '.join(SWEEP_ENGINES)}"
        )
    problem = problem or paper_problem()
    topologies = (
        list(topologies)
        if topologies is not None
        else default_delay_topologies(problem.n)
    )
    by_policy = _policy_grouping(aggregators, policies)
    cells = [
        _Cell(topology, int(tau), float(drop_rate), policy, policy_aggregators)
        for topology in topologies
        for tau in staleness_bounds
        for drop_rate in drop_rates
        for policy, policy_aggregators in by_policy.items()
    ]
    if engine == "batched":
        return [
            row
            for rows, _ in _run_cells(
                problem, cells, attack, seeds, iterations, delay_high
            )
            for row in rows
        ]

    stack = stack_costs(problem.costs)
    faulty = () if attack is None else tuple(problem.faulty_ids)
    rows: List[DecentralizedDelaySweepRow] = []
    for cell in cells:
        trials = [
            BatchTrial(
                aggregator=make_aggregator(
                    aggregator, problem.n, problem.f
                ),
                attack=None if attack is None else make_attack(attack),
                faulty_ids=faulty,
                seed=seed,
            )
            for aggregator in cell.aggregators
            for seed in seeds
        ]
        simulator = DelayedDecentralizedSimulator(
            costs=stack,
            topology=cell.topology,
            trials=trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
            conditions=_cell_conditions(cell.drop_rate, delay_high),
            staleness_bound=cell.tau,
            missing_policy=cell.policy,
        )
        simulator.set_recorder(current_recorder())
        trace = simulator.run(iterations)
        rows.extend(
            _fold_cell_rows(
                _trace_diagnostics(problem, trace), cell, attack, seeds
            )
        )
    return rows


def _run_decentralized_delay_pack(
    payloads: Sequence[Dict[str, object]],
    checkpoint: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Orchestrator pack worker: :func:`_run_cells` on the default paper
    problem, one JSON-able result per payload."""
    cells = [
        _Cell(
            deserialize_topology(payload["topology"]),
            int(payload["staleness_bound"]),
            float(payload["drop_rate"]),
            str(payload["policy"]),
            [str(a) for a in payload["aggregators"]],
        )
        for payload in payloads
    ]
    return [
        _with_quarantine({"rows": [asdict(row) for row in rows]}, quarantined)
        for rows, quarantined in _run_cells(
            paper_problem(), cells, checkpoint=checkpoint,
            **payloads[0]["sweep"],
        )
    ]


def orchestrated_decentralized_delay_sweep(
    topologies: Optional[Sequence[CommunicationTopology]] = None,
    staleness_bounds: Sequence[int] = (0, 1, 3),
    drop_rates: Sequence[float] = (0.0, 0.2),
    aggregators: Sequence[str] = ("cwtm", "cge_mean", "median"),
    attack: Optional[str] = "gradient_reverse",
    policies: Optional[Dict[str, str]] = None,
    iterations: int = 300,
    seeds: Sequence[int] = (0,),
    delay_high: int = 2,
    config: Optional[OrchestratorConfig] = None,
) -> Tuple[List[DecentralizedDelaySweepRow], SweepReport]:
    """The topology × τ × drop × filter sweep through the orchestrator.

    One crash-safe cell per (topology, τ, drop, policy) — the direct
    sweep's per-cell granularity — so rows arrive in
    :func:`decentralized_delay_sweep` order, with failed cells' rows
    absent and listed in ``report.failed_cells``.  Workers rebuild the
    default paper problem; topologies travel as explicit adjacency
    payloads.  Supervised runs send the cells to the workers in packs,
    one fused engine per pack.  With ``config.checkpoint_dir`` and
    ``config.checkpoint_every`` set, each cell checkpoints its engine
    state mid-trajectory and a killed-and-resumed sweep is bit-identical
    to an uninterrupted one.
    """
    if topologies is None:
        topologies = default_delay_topologies(paper_problem().n)
    resolved = dict(DEFAULT_POLICIES, **(policies or {}))
    by_policy = _policy_grouping(aggregators, policies)
    serialized = [serialize_topology(t) for t in topologies]
    sweep = {
        "attack": attack,
        "iterations": int(iterations),
        "seeds": [int(s) for s in seeds],
        "delay_high": int(delay_high),
    }
    spec_doc = {
        "family": "decentralized_delay",
        "topologies": serialized,
        "staleness_bounds": [int(t) for t in staleness_bounds],
        "drop_rates": [float(d) for d in drop_rates],
        "aggregators": list(aggregators),
        "policies": {k: v for k, v in sorted(resolved.items())},
        **sweep,
        # Orchestrated cells always run the fused engine; the entry keeps
        # every existing store's sweep hash.
        "engine": "batched",
    }
    cells = [
        SweepCell(
            key=(
                f"t{t}-{topology.name}/tau{int(tau)}/"
                f"drop{float(drop_rate)}/{policy}"
            ),
            payload={
                "topology": serialized[t],
                "staleness_bound": int(tau),
                "drop_rate": float(drop_rate),
                "aggregators": list(policy_aggregators),
                "policy": policy,
                "sweep": sweep,
            },
        )
        for t, topology in enumerate(topologies)
        for tau in staleness_bounds
        for drop_rate in drop_rates
        for policy, policy_aggregators in by_policy.items()
    ]
    report = run_sweep_cells(
        spec_doc,
        cells,
        partial(_run_one_cell, _run_decentralized_delay_pack),
        config,
        pack_worker=_run_decentralized_delay_pack,
    )
    rows = [
        DecentralizedDelaySweepRow(**row)
        for result in report.results().values()
        for row in result["rows"]
    ]
    return rows, report


def render_decentralized_delay_report(
    rows: Sequence[DecentralizedDelaySweepRow], iterations: int = 300
) -> str:
    """The gossip-under-delay report as an aligned text table."""
    return format_table(
        headers=[
            "topology",
            "tau",
            "drop",
            "filter",
            "policy",
            "attack",
            "radius (mean)",
            "radius (worst)",
            "gap (mean)",
            "missing",
            "staleness",
            "stalled",
        ],
        rows=[
            [
                r.topology,
                r.staleness_bound,
                r.drop_rate,
                r.aggregator,
                r.policy,
                r.attack or "honest",
                r.mean_radius,
                r.worst_radius,
                r.mean_gap,
                r.missing_rate,
                r.mean_staleness,
                r.stalled,
            ]
            for r in rows
        ],
        title=(
            "Delay-tolerant decentralized robust DGD on the Appendix-J "
            f"system - convergence radius and consensus gap after "
            f"{iterations} rounds under uniform per-edge delivery delays"
        ),
    )
