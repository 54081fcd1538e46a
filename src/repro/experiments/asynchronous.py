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
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..attacks.registry import make_attack
from ..distsys.asynchronous import run_asynchronous
from ..distsys.batch_async import (
    AsyncBatchTrial,
    BatchAsynchronousSimulator,
    BatchAsyncTrace,
)
from ..distsys.faults import IIDDrop, LinkDelay, uniform_delay
from ..functions.batched import stack_costs
from .orchestrator import (
    OrchestratorConfig,
    SweepCell,
    SweepReport,
    _cell_quarantines,
    _run_cell_engine,
    _with_quarantine,
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

#: The direct sweeps' two execution engines: ``"batched"`` runs every
#: (τ, drop, filter, seed) cell in lockstep through
#: :class:`~repro.distsys.batch_async.BatchAsynchronousSimulator`;
#: ``"reference"`` replays the per-trial event-driven engine cell by cell
#: (the oracle the batched engine is pinned against).
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
    cell, attack, radii, missing, staleness, stalled
) -> AsynchronousSweepRow:
    """Fold one cell's per-seed statistics into a report row."""
    finite_staleness = [s for s in staleness if not np.isnan(s)]
    return AsynchronousSweepRow(
        staleness_bound=int(cell.tau),
        drop_rate=float(cell.drop_rate),
        aggregator=cell.aggregator,
        policy=cell.policy,
        attack=attack,
        seeds=len(cell.seeds),
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
    """The async and delay sweeps' shared per-cell condition pipeline
    (per uplink, or per directed edge)."""
    conditions = [LinkDelay(uniform_delay(0, delay_high))]
    if drop_rate > 0:
        conditions.append(IIDDrop(drop_rate))
    return conditions


class _Cell(NamedTuple):
    """One (τ, drop rate, filter) configuration over its seeds."""

    tau: int
    drop_rate: float
    aggregator: str
    policy: str
    seeds: Sequence[int]


def _trace_slice(trace: BatchAsyncTrace, trials: slice) -> BatchAsyncTrace:
    """Some trials of a batched trace as a trace of their own."""
    return BatchAsyncTrace(
        estimates=trace.estimates[:, trials],
        step_sizes=trace.step_sizes[:, trials],
        stalled=trace.stalled[:, trials],
        missing_counts=trace.missing_counts[:, trials],
        usable_counts=trace.usable_counts[:, trials],
        staleness_sums=trace.staleness_sums[:, trials],
        n=trace.n,
    )


def _cell_row(problem, trace, cell: _Cell, attack) -> AsynchronousSweepRow:
    """Fold one cell's trace (its own trials only) into its report row.

    Each statistic reduces the cell's own ``(seeds, T)`` block: NumPy sums
    a one-row block in a different order than the same row of a wider
    one, so folding a shared block would make a row depend on which other
    cells ran in the same engine.
    """
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
        cell, attack, radii, missing, staleness,
        int(trace.stalled_rounds().sum()),
    )


def _run_cells(
    problem: PaperProblem,
    cells: Sequence[_Cell],
    attack: Optional[str],
    iterations: int,
    delay_high: int,
    checkpoint: Optional[Dict[str, object]] = None,
) -> List[Tuple[AsynchronousSweepRow, List[Dict[str, object]]]]:
    """The asynchronous family's one engine-and-fold path (direct sweep
    and orchestrator workers): every cell's trials in one batched engine,
    and each cell folded from its own slice of the trace into its row and
    quarantine records.  ``checkpoint``: see
    :func:`~repro.experiments.orchestrator._run_cell_engine`."""
    stack = stack_costs(problem.costs)
    trials = [
        AsyncBatchTrial(
            aggregator=cell.aggregator,
            attack=None if attack is None else make_attack(attack),
            faulty_ids=tuple(problem.faulty_ids),
            conditions=tuple(_cell_conditions(cell.drop_rate, delay_high)),
            staleness_bound=int(cell.tau),
            missing_policy=cell.policy,
            seed=int(seed),
            label=(
                f"tau{cell.tau}/drop{cell.drop_rate}/{cell.aggregator}"
                f"/s{seed}"
            ),
        )
        for cell in cells
        for seed in cell.seeds
    ]

    def make_engine() -> BatchAsynchronousSimulator:
        return BatchAsynchronousSimulator(
            costs=stack,
            trials=trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
        )

    trace = _run_cell_engine(make_engine, iterations, checkpoint)
    offsets = list(accumulate((len(cell.seeds) for cell in cells), initial=0))
    rows = [
        _cell_row(problem, _trace_slice(trace, own), cell, attack)
        for cell, own in zip(cells, map(slice, offsets, offsets[1:]))
    ]
    return list(zip(rows, _cell_quarantines(trace, offsets[:-1])))


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
    policies = dict(DEFAULT_POLICIES, **(policies or {}))
    cells = [
        _Cell(
            tau, drop_rate, aggregator, policies.get(aggregator, "shrink"),
            seeds,
        )
        for tau in staleness_bounds
        for drop_rate in drop_rates
        for aggregator in aggregators
    ]
    if engine == "batched":
        return [
            row
            for row, _ in _run_cells(
                problem, cells, attack, iterations, delay_high
            )
        ]

    stack = stack_costs(problem.costs)
    rows: List[AsynchronousSweepRow] = []
    for cell in cells:
        radii, missing, staleness = [], [], []
        stalled = 0
        for seed in cell.seeds:
            trace = run_asynchronous(
                stack,
                faulty_ids=list(problem.faulty_ids),
                aggregator=cell.aggregator,
                attack=None if attack is None else make_attack(attack),
                constraint=problem.constraint,
                schedule=problem.schedule,
                initial_estimate=problem.initial_estimate,
                iterations=iterations,
                conditions=_cell_conditions(cell.drop_rate, delay_high),
                staleness_bound=cell.tau,
                missing_policy=cell.policy,
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
            _assemble_row(cell, attack, radii, missing, staleness, stalled)
        )
    return rows


def _run_asynchronous_pack(
    payloads: Sequence[Dict[str, object]],
    checkpoint: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """The family's orchestrator worker, for packs and single cells
    alike: :func:`_run_cells` on the default paper problem, one JSON-able
    result per payload."""
    cells = [
        _Cell(
            int(payload["tau"]),
            float(payload["drop_rate"]),
            str(payload["aggregator"]),
            str(payload["policy"]),
            [int(s) for s in payload["seeds"]],
        )
        for payload in payloads
    ]
    return [
        _with_quarantine({"rows": [asdict(row)]}, quarantined)
        for row, quarantined in _run_cells(
            paper_problem(), cells, checkpoint=checkpoint,
            **payloads[0]["sweep"],
        )
    ]


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
    so there is no ``problem`` parameter.  Supervised runs send the cells
    to the workers in packs, one batched engine per pack.
    """
    if seed_chunk is not None and seed_chunk < 1:
        raise ValueError(f"seed_chunk must be >= 1, got {seed_chunk!r}")
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
    sweep = {
        "attack": attack,
        "iterations": int(iterations),
        "delay_high": int(delay_high),
    }
    spec_doc = {
        "family": "asynchronous",
        "staleness_bounds": [int(t) for t in staleness_bounds],
        "drop_rates": [float(d) for d in drop_rates],
        "aggregators": list(aggregators),
        "policies": policies,
        "seeds": seeds,
        **sweep,
        # Orchestrated cells always run the batched engine; the entry
        # keeps every existing store's sweep hash.
        "engine": "batched",
        "seed_chunk": seed_chunk,
    }
    cells: List[SweepCell] = []
    cell_keys: Dict[Tuple[int, float, str], List[str]] = {}
    for tau, drop_rate, aggregator in configurations:
        for chunk_seeds in seed_chunks:
            key = f"tau{tau}/drop{drop_rate}/{aggregator}"
            if len(seed_chunks) > 1:
                key = f"{key}/seeds{chunk_seeds[0]}-{chunk_seeds[-1]}"
            payload = {
                "tau": tau,
                "drop_rate": drop_rate,
                "aggregator": aggregator,
                "policy": policies.get(aggregator, "shrink"),
                "seeds": chunk_seeds,
                "sweep": sweep,
            }
            cells.append(SweepCell(key=key, payload=payload))
            cell_keys.setdefault((tau, drop_rate, aggregator), []).append(key)
    report = run_sweep_cells(spec_doc, cells, _run_asynchronous_pack, config)
    usable = report.results()
    rows: List[AsynchronousSweepRow] = []
    for configuration in configurations:
        chunks = [
            AsynchronousSweepRow(**row)
            for key in cell_keys[configuration]
            if key in usable
            for row in usable[key]["rows"]
        ]
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
