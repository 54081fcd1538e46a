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
from typing import Dict, List, Optional, Sequence, Tuple

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
from .checkpoint import CheckpointStore, spec_hash
from .decentralized import deserialize_topology, serialize_topology
from .orchestrator import (
    EngineCheckpointer,
    OrchestratorConfig,
    SweepCell,
    SweepReport,
    run_engine_checkpointed,
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


def _batched_delay_trials(
    problem,
    topology,
    tau,
    drop_rate,
    policy,
    aggregators,
    seeds,
    attack,
    delay_high,
) -> List[DelayBatchTrial]:
    """One cell's aggregator × seed trial grid for the fused engine."""
    faulty = () if attack is None else tuple(problem.faulty_ids)
    return [
        DelayBatchTrial(
            aggregator=make_aggregator(aggregator, problem.n, problem.f),
            topology=topology,
            attack=None if attack is None else make_attack(attack),
            faulty_ids=faulty,
            conditions=tuple(_cell_conditions(drop_rate, delay_high)),
            staleness_bound=int(tau),
            missing_policy=policy,
            seed=int(seed),
            label=(
                f"{topology.name}/tau{tau}/drop{drop_rate}"
                f"/{aggregator}/s{seed}"
            ),
        )
        for aggregator in aggregators
        for seed in seeds
    ]


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
        "missing": trace.missing_fraction().mean(axis=1),
        "profile": trace.staleness_profile(),
        "stalls": trace.stalled_agent_rounds(),
    }


def _fold_cell_rows(
    diagnostics,
    topology_name,
    tau,
    drop_rate,
    policy,
    aggregators,
    attack,
    seeds,
    offset=0,
) -> List[DecentralizedDelaySweepRow]:
    """Fold one cell's slice of the diagnostics into its report rows.

    Works on both trace flavors — the per-trial engine's cell trace
    (``offset=0``) and the fused engine's whole-sweep trace (``offset`` =
    the cell's first trial index) — because both expose the same
    per-trial diagnostics.
    """
    radii = diagnostics["radii"]
    gaps = diagnostics["gaps"]
    missing = diagnostics["missing"]
    profile = diagnostics["profile"]
    stalls = diagnostics["stalls"]
    rows: List[DecentralizedDelaySweepRow] = []
    for c, aggregator in enumerate(aggregators):
        span = slice(
            offset + c * len(seeds), offset + (c + 1) * len(seeds)
        )
        cell_profile = profile[span]
        rows.append(
            DecentralizedDelaySweepRow(
                topology=topology_name,
                staleness_bound=int(tau),
                drop_rate=float(drop_rate),
                aggregator=aggregator,
                policy=policy,
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
    stack = stack_costs(problem.costs)
    topologies = (
        list(topologies)
        if topologies is not None
        else default_delay_topologies(problem.n)
    )
    by_policy = _policy_grouping(aggregators, policies)
    cells = [
        (topology, int(tau), float(drop_rate), policy, policy_aggregators)
        for topology in topologies
        for tau in staleness_bounds
        for drop_rate in drop_rates
        for policy, policy_aggregators in by_policy.items()
    ]

    if engine == "batched":
        trials: List[DelayBatchTrial] = []
        offsets: List[int] = []
        for topology, tau, drop_rate, policy, policy_aggregators in cells:
            offsets.append(len(trials))
            trials.extend(
                _batched_delay_trials(
                    problem, topology, tau, drop_rate, policy,
                    policy_aggregators, seeds, attack, delay_high,
                )
            )
        # The rows read round T only: store just it (and round 0).
        trace = BatchDelayedDecentralizedSimulator(
            costs=stack,
            trials=trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
            recorder=current_recorder(),
            trace_rounds=[iterations],
        ).run(iterations)
        diagnostics = _trace_diagnostics(problem, trace)
        rows: List[DecentralizedDelaySweepRow] = []
        for offset, (topology, tau, drop_rate, policy, cell_aggs) in zip(
            offsets, cells
        ):
            rows.extend(
                _fold_cell_rows(
                    diagnostics, topology.name, tau, drop_rate, policy,
                    cell_aggs, attack, seeds, offset=offset,
                )
            )
        return rows

    rows = []
    for topology, tau, drop_rate, policy, policy_aggregators in cells:
        faulty = () if attack is None else tuple(problem.faulty_ids)
        trials = [
            BatchTrial(
                aggregator=make_aggregator(
                    aggregator, problem.n, problem.f
                ),
                attack=None if attack is None else make_attack(attack),
                faulty_ids=faulty,
                seed=seed,
            )
            for aggregator in policy_aggregators
            for seed in seeds
        ]
        simulator = DelayedDecentralizedSimulator(
            costs=stack,
            topology=topology,
            trials=trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
            conditions=_cell_conditions(drop_rate, delay_high),
            staleness_bound=int(tau),
            missing_policy=policy,
        )
        simulator.set_recorder(current_recorder())
        trace = simulator.run(iterations)
        rows.extend(
            _fold_cell_rows(
                _trace_diagnostics(problem, trace), topology.name, tau,
                drop_rate, policy, policy_aggregators, attack, seeds,
            )
        )
    return rows


def _run_decentralized_delay_cell(
    payload: Dict[str, object]
) -> Dict[str, object]:
    """Orchestrator worker: one (topology, τ, drop, policy) cell.

    Each cell is exactly one batched delay-engine run over its
    aggregator × seed grid — the same per-receiver-row kernels the fused
    direct sweep applies — so orchestrated rows pin bit for bit to
    :func:`decentralized_delay_sweep`.  Under the batched engine, a
    payload carrying a checkpoint contract runs through
    :func:`~repro.experiments.orchestrator.run_engine_checkpointed`: the
    chunk-boundary ``state_dict`` of
    :class:`~repro.distsys.batch_decentralized_delay.BatchDelayedDecentralizedSimulator`
    makes a killed-and-resumed cell bit-identical to an uninterrupted one.
    """
    policy = str(payload["policy"])
    aggregators = [str(a) for a in payload["aggregators"]]
    topology = deserialize_topology(payload["topology"])
    tau = int(payload["staleness_bound"])
    drop_rate = float(payload["drop_rate"])
    attack = payload["attack"]
    seeds = [int(s) for s in payload["seeds"]]
    iterations = int(payload["iterations"])
    delay_high = int(payload["delay_high"])
    engine = str(payload.get("engine", "batched"))
    if engine == "batched":
        problem = paper_problem()
        stack = stack_costs(problem.costs)
        trials = _batched_delay_trials(
            problem, topology, tau, drop_rate, policy, aggregators,
            seeds, attack, delay_high,
        )

        def make_engine() -> BatchDelayedDecentralizedSimulator:
            return BatchDelayedDecentralizedSimulator(
                costs=stack,
                trials=trials,
                constraint=problem.constraint,
                schedule=problem.schedule,
                initial_estimate=problem.initial_estimate,
                trace_rounds=[iterations],
            )

        checkpoint = payload.get("checkpoint")
        if checkpoint:
            trace = run_engine_checkpointed(
                make_engine,
                iterations,
                checkpoint_every=int(checkpoint["every"]),
                checkpointer=EngineCheckpointer(
                    store=CheckpointStore(checkpoint["dir"]),
                    sweep_hash=str(checkpoint["spec_hash"]),
                    key=str(checkpoint["key"]),
                ),
            )
        else:
            trace = make_engine().set_recorder(
                current_recorder()
            ).run(iterations)
        rows = _fold_cell_rows(
            _trace_diagnostics(problem, trace), topology.name, tau,
            drop_rate, policy, aggregators, attack, seeds,
        )
        result: Dict[str, object] = {
            "rows": [asdict(row) for row in rows]
        }
        quarantined = [
            {**dict(record), "label": trace.labels[int(record["trial"])]}
            for record in trace.quarantined
        ]
        if quarantined:
            result["quarantined"] = quarantined
        return result
    rows = decentralized_delay_sweep(
        problem=None,
        topologies=[topology],
        staleness_bounds=[tau],
        drop_rates=[drop_rate],
        aggregators=aggregators,
        attack=attack,
        policies={aggregator: policy for aggregator in aggregators},
        iterations=iterations,
        seeds=seeds,
        delay_high=delay_high,
        engine="reference",
    )
    return {"rows": [asdict(row) for row in rows]}


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
    engine: str = "batched",
    config: Optional[OrchestratorConfig] = None,
) -> Tuple[List[DecentralizedDelaySweepRow], SweepReport]:
    """The topology × τ × drop × filter sweep through the orchestrator.

    One crash-safe cell per (topology, τ, drop, policy) — the direct
    sweep's per-cell granularity — so rows arrive in
    :func:`decentralized_delay_sweep` order, with failed cells' rows
    absent and listed in ``report.failed_cells``.  Workers rebuild the
    default paper problem; topologies travel as explicit adjacency
    payloads.  Under the batched engine (the default) with
    ``config.checkpoint_dir`` and ``config.checkpoint_every`` set, each
    cell checkpoints its engine state mid-trajectory and a
    killed-and-resumed sweep is bit-identical to an uninterrupted one.
    """
    if engine not in SWEEP_ENGINES:
        raise ValueError(
            f"unknown sweep engine {engine!r}; "
            f"known: {', '.join(SWEEP_ENGINES)}"
        )
    config = config or OrchestratorConfig()
    problem_n = paper_problem().n
    topologies = (
        list(topologies)
        if topologies is not None
        else default_delay_topologies(problem_n)
    )
    resolved = dict(DEFAULT_POLICIES, **(policies or {}))
    by_policy = _policy_grouping(aggregators, policies)
    serialized = [serialize_topology(t) for t in topologies]
    spec_doc = {
        "family": "decentralized_delay",
        "topologies": serialized,
        "staleness_bounds": [int(t) for t in staleness_bounds],
        "drop_rates": [float(d) for d in drop_rates],
        "aggregators": list(aggregators),
        "attack": attack,
        "policies": {k: v for k, v in sorted(resolved.items())},
        "iterations": int(iterations),
        "seeds": [int(s) for s in seeds],
        "delay_high": int(delay_high),
        "engine": engine,
    }
    sweep_hash = spec_hash(spec_doc)
    cells: List[SweepCell] = []
    for t, (topology, topo_payload) in enumerate(zip(topologies, serialized)):
        for tau in staleness_bounds:
            for drop_rate in drop_rates:
                for policy, policy_aggregators in by_policy.items():
                    key = (
                        f"t{t}-{topology.name}/tau{int(tau)}/"
                        f"drop{float(drop_rate)}/{policy}"
                    )
                    payload: Dict[str, object] = {
                        "topology": topo_payload,
                        "staleness_bound": int(tau),
                        "drop_rate": float(drop_rate),
                        "aggregators": list(policy_aggregators),
                        "policy": policy,
                        "attack": attack,
                        "iterations": int(iterations),
                        "seeds": [int(s) for s in seeds],
                        "delay_high": int(delay_high),
                        "engine": engine,
                    }
                    if (
                        engine == "batched"
                        and config.checkpoint_dir is not None
                        and config.checkpoint_every is not None
                    ):
                        payload["checkpoint"] = {
                            "dir": str(config.checkpoint_dir),
                            "spec_hash": sweep_hash,
                            "key": key,
                            "every": int(config.checkpoint_every),
                        }
                    cells.append(SweepCell(key=key, payload=payload))
    report = run_sweep_cells(
        spec_doc, cells, _run_decentralized_delay_cell, config
    )
    usable = report.results()
    rows: List[DecentralizedDelaySweepRow] = []
    for cell in cells:
        payload = usable.get(cell.key)
        if payload is None:
            continue
        rows.extend(
            DecentralizedDelaySweepRow(**row) for row in payload["rows"]
        )
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
