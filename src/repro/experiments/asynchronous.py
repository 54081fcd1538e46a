"""The asynchronous experiment family: staleness × drop-rate × filter sweeps.

Runs the Appendix-J regression system through the event-driven engine
(:class:`~repro.distsys.asynchronous.AsynchronousSimulator`) on a grid of
staleness bounds and loss rates — under a fixed delay spectrum (uniform
0–2 round delivery lag) with the paper's gradient-reverse adversary — and
reports, per configuration, the final **convergence radius**
``||x_T - x_H||`` together with the asynchrony diagnostics the synchronous
sweeps cannot produce: the per-round fraction of agents whose message
missed the staleness bound, the mean staleness of the messages actually
aggregated, and the number of stalled rounds.

Each (filter) column runs under its *declared* missing-value policy — the
contract introduced by the asynchronous engine: ``"shrink"`` re-aggregates
at the round's attendance with step-S1 ``n``/``f`` bookkeeping, ``"masked"``
keeps the declared tolerance through the masked kernels of
:mod:`repro.aggregators.masked`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks.registry import make_attack
from ..distsys.asynchronous import run_asynchronous
from ..distsys.batch_async import (
    AsyncBatchTrial,
    BatchAsynchronousSimulator,
    BatchAsyncTrace,
    run_asynchronous_batch,
)
from ..distsys.faults import IIDDrop, LinkDelay, uniform_delay
from ..functions.batched import stack_costs
from ..telemetry.recorder import current_recorder
from .checkpoint import CheckpointStore, spec_hash
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
    "AsynchronousSweepRow",
    "DEFAULT_POLICIES",
    "SWEEP_ENGINES",
    "asynchronous_sweep",
    "orchestrated_asynchronous_sweep",
    "render_asynchronous_report",
]

#: The two sweep execution engines: ``"batched"`` runs every
#: (τ, drop, filter, seed) cell in lockstep through
#: :class:`~repro.distsys.batch_async.BatchAsynchronousSimulator`;
#: ``"reference"`` replays the per-trial event-driven engine cell by cell
#: (the oracle the batched engine is pinned against — and the fallback for
#: configurations the tensor program cannot express).
SWEEP_ENGINES = ("batched", "reference")

#: Declared missing-value policy per default filter: CGE shrinks (its sum
#: scales with attendance anyway), the trim-style filters keep their
#: declared tolerance through the masked kernels.
DEFAULT_POLICIES: Dict[str, str] = {
    "cge": "shrink",
    "cge_mean": "shrink",
    "cwtm": "masked",
    "median": "masked",
    "mean": "masked",
}


@dataclass
class AsynchronousSweepRow:
    """One (staleness bound, drop rate, filter) cell of the async sweep."""

    staleness_bound: int
    drop_rate: float
    aggregator: str
    policy: str
    attack: Optional[str]
    seeds: int
    mean_radius: float          # mean over seeds of the final radius
    worst_radius: float         # max over seeds
    missing_rate: float         # mean per-round fraction of missing agents
    mean_staleness: float       # mean staleness of aggregated messages
    stalled: int                # total stalled rounds across seeds


def _assemble_row(
    tau, drop_rate, aggregator, policy, attack, seeds,
    radii, missing, staleness, stalled,
) -> AsynchronousSweepRow:
    """Fold one cell's per-seed statistics into a report row."""
    finite_staleness = [s for s in staleness if not np.isnan(s)]
    return AsynchronousSweepRow(
        staleness_bound=int(tau),
        drop_rate=float(drop_rate),
        aggregator=aggregator,
        policy=policy,
        attack=attack,
        seeds=len(seeds),
        mean_radius=float(np.mean(radii)),
        worst_radius=float(np.max(radii)),
        missing_rate=float(np.mean(missing)),
        mean_staleness=(
            float(np.mean(finite_staleness))
            if finite_staleness
            else float("nan")
        ),
        stalled=int(stalled),
    )


def _cell_conditions(drop_rate: float, delay_high: int):
    """The sweep's shared per-cell condition pipeline."""
    conditions = [LinkDelay(uniform_delay(0, delay_high))]
    if drop_rate > 0:
        conditions.append(IIDDrop(drop_rate))
    return conditions


def _batched_trials(
    problem, cells, seeds, policies, attack, delay_high
) -> List[AsyncBatchTrial]:
    """The (cell × seed) trial grid for the batched engine, in cell order."""
    return [
        AsyncBatchTrial(
            aggregator=aggregator,
            attack=None if attack is None else make_attack(attack),
            faulty_ids=tuple(problem.faulty_ids),
            conditions=tuple(_cell_conditions(drop_rate, delay_high)),
            staleness_bound=int(tau),
            missing_policy=policies.get(aggregator, "shrink"),
            seed=int(seed),
            label=f"tau{tau}/drop{drop_rate}/{aggregator}/s{seed}",
        )
        for (tau, drop_rate, aggregator) in cells
        for seed in seeds
    ]


def _trace_slice(
    trace: BatchAsyncTrace, start: int, stop: int
) -> BatchAsyncTrace:
    """Trials ``start:stop`` of a batched trace as a trace of their own.

    Quarantine records keep only those trials, renumbered in the slice's
    own trial order.
    """
    trials = slice(start, stop)
    return BatchAsyncTrace(
        estimates=trace.estimates[:, trials],
        step_sizes=trace.step_sizes[:, trials],
        stalled=trace.stalled[:, trials],
        missing_counts=trace.missing_counts[:, trials],
        usable_counts=trace.usable_counts[:, trials],
        staleness_sums=trace.staleness_sums[:, trials],
        n=trace.n,
        labels=trace.labels[trials],
        quarantined=[
            {**record, "trial": int(record["trial"]) - start}
            for record in trace.quarantined
            if start <= int(record["trial"]) < stop
        ],
    )


def _cell_row(
    problem, trace, cell, seeds, policy, attack
) -> AsynchronousSweepRow:
    """Fold one cell's trace (its own trials only) into its report row.

    Each statistic reduces the cell's own ``(seeds, T)`` block: NumPy sums
    a one-row block in a different order than the same row of a wider
    one, so folding a shared block would make a row depend on which other
    cells ran in the same engine.
    """
    tau, drop_rate, aggregator = cell
    radii = np.linalg.norm(
        trace.final_estimates - np.asarray(problem.x_h), axis=1
    )
    missing = trace.missing_fraction().mean(axis=1)
    staleness = [
        float(np.nanmean(profile))
        if np.isfinite(profile).any()
        else float("nan")
        for profile in trace.staleness_profile()
    ]
    return _assemble_row(
        tau, drop_rate, aggregator, policy, attack, seeds,
        radii, missing, staleness, int(trace.stalled_rounds().sum()),
    )


def _rows_from_batch_trace(
    problem, trace, cells, seeds, policies, attack
) -> List[AsynchronousSweepRow]:
    """Fold a batched trace into one report row per (τ, drop, filter) cell."""
    k = len(seeds)
    return [
        _cell_row(
            problem, _trace_slice(trace, c * k, (c + 1) * k), cell, seeds,
            policies.get(cell[2], "shrink"), attack,
        )
        for c, cell in enumerate(cells)
    ]


def asynchronous_sweep(
    problem: Optional[PaperProblem] = None,
    staleness_bounds: Sequence[int] = (0, 1, 2, 4),
    drop_rates: Sequence[float] = (0.0, 0.15, 0.35),
    aggregators: Sequence[str] = ("cge", "cwtm", "median"),
    attack: Optional[str] = "gradient_reverse",
    policies: Optional[Dict[str, str]] = None,
    iterations: int = 200,
    seeds: Sequence[int] = (0,),
    delay_high: int = 2,
    engine: str = "batched",
) -> List[AsynchronousSweepRow]:
    """Run the staleness × drop-rate × filter sweep; returns report rows.

    Every cell shares the same delay spectrum (uniform integer delays in
    ``0..delay_high`` on every link) so the staleness bound is the axis
    that decides how much of the in-flight traffic is usable; the drop
    rate adds i.i.d. loss on top.

    With ``engine="batched"`` (the default) every (τ, drop, filter, seed)
    cell becomes one :class:`~repro.distsys.batch_async.AsyncBatchTrial`
    and the whole sweep runs in lockstep as a single ``(S, n, d)`` tensor
    program — pre-sampled network realizations, one stale-gradient einsum
    per round, batched filter kernels.  ``engine="reference"`` replays the
    per-trial event-driven engine cell by cell; the two produce the same
    rows to 1e-9 (per-trial network streams are identical), so the flag
    is a verification fallback, not a semantic switch.
    """
    if engine not in SWEEP_ENGINES:
        raise ValueError(
            f"unknown sweep engine {engine!r}; known: {', '.join(SWEEP_ENGINES)}"
        )
    problem = problem or paper_problem()
    stack = stack_costs(problem.costs)
    policies = dict(DEFAULT_POLICIES, **(policies or {}))
    cells = [
        (tau, drop_rate, aggregator)
        for tau in staleness_bounds
        for drop_rate in drop_rates
        for aggregator in aggregators
    ]

    rows: List[AsynchronousSweepRow] = []
    if engine == "batched":
        trials = _batched_trials(
            problem, cells, seeds, policies, attack, delay_high
        )
        trace = run_asynchronous_batch(
            stack,
            trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
            iterations=iterations,
        )
        return _rows_from_batch_trace(
            problem, trace, cells, seeds, policies, attack
        )

    for tau, drop_rate, aggregator in cells:
        policy = policies.get(aggregator, "shrink")
        radii, missing, staleness = [], [], []
        stalled = 0
        for seed in seeds:
            trace = run_asynchronous(
                stack,
                faulty_ids=list(problem.faulty_ids),
                aggregator=aggregator,
                attack=None if attack is None else make_attack(attack),
                constraint=problem.constraint,
                schedule=problem.schedule,
                initial_estimate=problem.initial_estimate,
                iterations=iterations,
                conditions=_cell_conditions(drop_rate, delay_high),
                staleness_bound=tau,
                missing_policy=policy,
                seed=seed,
            )
            radii.append(
                float(np.linalg.norm(trace.final_estimate - problem.x_h))
            )
            missing.append(float(trace.missing_fraction().mean()))
            profile = trace.staleness_profile()
            staleness.append(
                float(np.nanmean(profile))
                if np.isfinite(profile).any()
                else float("nan")
            )
            stalled += trace.stalled_rounds()
        rows.append(
            _assemble_row(
                tau, drop_rate, aggregator, policy, attack, seeds,
                radii, missing, staleness, stalled,
            )
        )
    return rows


def _run_asynchronous_pack(
    payloads: Sequence[Dict[str, object]],
    checkpoint: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Orchestrator pack worker: batched cells in one engine, one result each.

    Every payload's (cell × seed) trials join one
    :class:`~repro.distsys.batch_async.BatchAsynchronousSimulator`, and
    each cell is folded from its own slice of the trace, with quarantine
    records renumbered to the cell's own trial order.  Batch composition
    changes no trial's floats, so each result equals the cell run alone.
    ``checkpoint`` is a single cell's mid-trajectory contract, run through
    :func:`~repro.experiments.orchestrator.run_engine_checkpointed` (the
    chunk-boundary ``state_dict`` makes the resumed trajectory
    bit-identical to an uninterrupted run).
    """
    iterations = int(payloads[0]["iterations"])  # one sweep, one horizon
    problem = paper_problem()
    stack = stack_costs(problem.costs)
    members = []
    trials: List[AsyncBatchTrial] = []
    for payload in payloads:
        cell = (
            int(payload["tau"]),
            float(payload["drop_rate"]),
            str(payload["aggregator"]),
        )
        seeds = [int(s) for s in payload["seeds"]]
        policies = dict(payload["policies"])
        attack = payload["attack"]
        members.append((cell, seeds, policies, attack))
        trials.extend(
            _batched_trials(
                problem, [cell], seeds, policies, attack,
                int(payload["delay_high"]),
            )
        )

    def make_engine() -> BatchAsynchronousSimulator:
        return BatchAsynchronousSimulator(
            costs=stack,
            trials=trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
        )

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
        trace = make_engine().set_recorder(current_recorder()).run(iterations)
    results: List[Dict[str, object]] = []
    start = 0
    for cell, seeds, policies, attack in members:
        own = _trace_slice(trace, start, start + len(seeds))
        start += len(seeds)
        row = _cell_row(
            problem, own, cell, seeds, policies.get(cell[2], "shrink"), attack
        )
        result: Dict[str, object] = {"rows": [asdict(row)]}
        if own.quarantined:
            result["quarantined"] = [
                {**record, "label": own.labels[record["trial"]]}
                for record in own.quarantined
            ]
        results.append(result)
    return results


def _run_asynchronous_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """Orchestrator worker: one (τ, drop, filter) cell over a seed chunk.

    Rebuilds the default paper problem in-process.  The batched engine is
    the one-cell case of :func:`_run_asynchronous_pack`; the reference
    engine replays the per-trial sweep.
    """
    if str(payload["engine"]) == "batched":
        (result,) = _run_asynchronous_pack(
            [payload], payload.get("checkpoint")
        )
        return result
    rows = asynchronous_sweep(
        problem=paper_problem(),
        staleness_bounds=[int(payload["tau"])],
        drop_rates=[float(payload["drop_rate"])],
        aggregators=[str(payload["aggregator"])],
        attack=payload["attack"],
        policies=dict(payload["policies"]),
        iterations=int(payload["iterations"]),
        seeds=[int(s) for s in payload["seeds"]],
        delay_high=int(payload["delay_high"]),
        engine="reference",
    )
    return {"rows": [asdict(row) for row in rows]}


def _merge_chunk_rows(
    chunks: Sequence[AsynchronousSweepRow],
) -> AsynchronousSweepRow:
    """Fold one configuration's seed-chunk rows into its report row.

    Means are seed-weighted, worst is the max, stalled counts sum;
    ``mean_staleness`` weights the finite chunks by their seed counts (a
    chunk is ``nan`` only when *no* seed in it ever aggregated a
    message, so the weighting is exact unless a chunk mixes all-``nan``
    and finite seeds — in which case resumed and uninterrupted
    *orchestrated* runs still agree bit for bit, since they chunk
    identically).
    """
    first = chunks[0]
    total = sum(r.seeds for r in chunks)
    finite = [
        (r.mean_staleness, r.seeds)
        for r in chunks
        if not np.isnan(r.mean_staleness)
    ]
    return AsynchronousSweepRow(
        staleness_bound=first.staleness_bound,
        drop_rate=first.drop_rate,
        aggregator=first.aggregator,
        policy=first.policy,
        attack=first.attack,
        seeds=total,
        mean_radius=float(
            sum(r.mean_radius * r.seeds for r in chunks) / total
        ),
        worst_radius=float(max(r.worst_radius for r in chunks)),
        missing_rate=float(
            sum(r.missing_rate * r.seeds for r in chunks) / total
        ),
        mean_staleness=(
            float(
                sum(v * w for v, w in finite) / sum(w for _, w in finite)
            )
            if finite
            else float("nan")
        ),
        stalled=int(sum(r.stalled for r in chunks)),
    )


def orchestrated_asynchronous_sweep(
    staleness_bounds: Sequence[int] = (0, 1, 2, 4),
    drop_rates: Sequence[float] = (0.0, 0.15, 0.35),
    aggregators: Sequence[str] = ("cge", "cwtm", "median"),
    attack: Optional[str] = "gradient_reverse",
    policies: Optional[Dict[str, str]] = None,
    iterations: int = 200,
    seeds: Sequence[int] = (0,),
    delay_high: int = 2,
    engine: str = "batched",
    seed_chunk: Optional[int] = None,
    config: Optional[OrchestratorConfig] = None,
) -> Tuple[List[AsynchronousSweepRow], SweepReport]:
    """The staleness × drop × filter sweep through the orchestrator.

    Decomposes the sweep into one cell per (τ, drop rate, filter)
    configuration — times a seed chunk of at most ``seed_chunk`` seeds
    when given — and runs the cells crash-safely (checkpointed, retried,
    sharded across ``config.jobs`` processes).  Rows arrive in the same
    order as :func:`asynchronous_sweep`; a configuration whose cells all
    failed is absent from the rows and present in
    ``report.failed_cells``.  Workers rebuild the default paper problem,
    so there is no ``problem`` parameter.
    """
    if engine not in SWEEP_ENGINES:
        raise ValueError(
            f"unknown sweep engine {engine!r}; "
            f"known: {', '.join(SWEEP_ENGINES)}"
        )
    if seed_chunk is not None and seed_chunk < 1:
        raise ValueError(f"seed_chunk must be >= 1, got {seed_chunk!r}")
    config = config or OrchestratorConfig()
    policies = dict(DEFAULT_POLICIES, **(policies or {}))
    seeds = [int(s) for s in seeds]
    chunk = seed_chunk or len(seeds) or 1
    seed_chunks = [
        seeds[i : i + chunk] for i in range(0, len(seeds), chunk)
    ] or [[]]
    configurations = [
        (int(tau), float(drop_rate), str(aggregator))
        for tau in staleness_bounds
        for drop_rate in drop_rates
        for aggregator in aggregators
    ]
    spec_doc = {
        "family": "asynchronous",
        "staleness_bounds": [int(t) for t in staleness_bounds],
        "drop_rates": [float(d) for d in drop_rates],
        "aggregators": list(aggregators),
        "attack": attack,
        "policies": policies,
        "iterations": int(iterations),
        "seeds": seeds,
        "delay_high": int(delay_high),
        "engine": engine,
        "seed_chunk": seed_chunk,
    }
    sweep_hash = spec_hash(spec_doc)
    cells: List[SweepCell] = []
    cell_keys: Dict[Tuple[int, float, str], List[str]] = {}
    for tau, drop_rate, aggregator in configurations:
        for chunk_seeds in seed_chunks:
            key = f"tau{tau}/drop{drop_rate}/{aggregator}"
            if len(seed_chunks) > 1:
                key = f"{key}/seeds{chunk_seeds[0]}-{chunk_seeds[-1]}"
            payload: Dict[str, object] = {
                "tau": tau,
                "drop_rate": drop_rate,
                "aggregator": aggregator,
                "seeds": chunk_seeds,
                "policies": policies,
                "attack": attack,
                "iterations": int(iterations),
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
            cell_keys.setdefault((tau, drop_rate, aggregator), []).append(key)
    report = run_sweep_cells(
        spec_doc,
        cells,
        _run_asynchronous_cell,
        config,
        pack_worker=_run_asynchronous_pack if engine == "batched" else None,
    )
    usable = report.results()
    rows: List[AsynchronousSweepRow] = []
    for configuration in configurations:
        chunks: List[AsynchronousSweepRow] = []
        for key in cell_keys[configuration]:
            payload = usable.get(key)
            if payload is None:
                continue
            chunks.extend(
                AsynchronousSweepRow(**row) for row in payload["rows"]
            )
        if chunks:
            rows.append(_merge_chunk_rows(chunks))
    return rows, report


def render_asynchronous_report(
    rows: Sequence[AsynchronousSweepRow], iterations: int = 200
) -> str:
    """The convergence-radius report as an aligned text table."""
    return format_table(
        headers=[
            "tau",
            "drop",
            "filter",
            "policy",
            "attack",
            "radius (mean)",
            "radius (worst)",
            "missing",
            "staleness",
            "stalled",
        ],
        rows=[
            [
                r.staleness_bound,
                r.drop_rate,
                r.aggregator,
                r.policy,
                r.attack or "honest",
                r.mean_radius,
                r.worst_radius,
                r.missing_rate,
                r.mean_staleness,
                r.stalled,
            ]
            for r in rows
        ],
        title=(
            "Asynchronous robust DGD on the Appendix-J system - "
            f"convergence radius after {iterations} rounds under uniform "
            "0..2 delivery delays (radius = ||x_T - x_H||)"
        ),
    )
