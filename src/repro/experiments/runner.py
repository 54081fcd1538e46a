"""Experiment runner for the regression workloads.

Wraps the distributed simulator with the paper's measurement protocol:
run the DGD loop for a fixed budget, take ``x_out = x_T`` (the paper uses
T = 500), and report ``dist(x_H, x_out)`` together with the full trace for
the figure series.

Two execution paths coexist:

* :func:`run_regression` / :func:`run_fault_free` drive the per-trial
  :class:`~repro.distsys.simulator.SynchronousSimulator` — the reference
  oracle, with the full gradient-level :class:`ExecutionTrace`;
* :func:`run_regression_sweep` / :func:`run_fault_free_batch` drive the
  tensorized :class:`~repro.distsys.batch.BatchSimulator`, executing a whole
  (filter, attack, seed) grid in lockstep and recording only the iterate
  trajectory.  Table 1, the figure series and the sweep ablations route
  through this path; ``tests/distsys/test_batch_equivalence`` pins the two
  paths to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..aggregators.base import GradientAggregator
from ..aggregators.mean import MeanAggregator
from ..aggregators.registry import make_aggregator
from ..attacks.base import ByzantineAttack
from ..attacks.registry import make_attack
from ..distsys.batch import BatchSimulator, BatchTrial, run_dgd_batch
from ..distsys.simulator import run_dgd
from ..distsys.trace import ExecutionTrace
from ..functions.batched import stack_costs
from ..optim.schedules import StepSchedule
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
from .reporting import to_jsonable

__all__ = [
    "RegressionRunResult",
    "run_regression",
    "run_fault_free",
    "SweepSpec",
    "SweepRunResult",
    "run_regression_sweep",
    "orchestrated_regression_sweep",
    "run_fault_free_batch",
]


@dataclass
class RegressionRunResult:
    """One execution of the Appendix-J experiment."""

    label: str
    aggregator: str
    attack: Optional[str]
    output: np.ndarray
    distance: float           # dist(x_H, x_out)
    final_loss: float         # sum_{i in H} Q_i(x_out)
    trace: ExecutionTrace
    losses: np.ndarray        # per-iteration honest aggregate loss
    distances: np.ndarray     # per-iteration ||x_t - x_H||

    def __repr__(self) -> str:
        return (
            f"RegressionRunResult(label={self.label!r},"
            f" distance={self.distance:.6g})"
        )


def _series(problem: PaperProblem, trace: ExecutionTrace) -> Dict[str, np.ndarray]:
    return {
        "losses": trace.losses(problem.honest_aggregate_loss),
        "distances": trace.distances_to(problem.x_h),
    }


def run_regression(
    problem: PaperProblem,
    aggregator: Union[str, GradientAggregator],
    attack: Union[str, ByzantineAttack, None],
    iterations: int = 500,
    seed: int = 0,
    label: Optional[str] = None,
) -> RegressionRunResult:
    """Run the paper's experiment with the given filter and fault behaviour.

    ``attack=None`` keeps the Byzantine agent honest (it truthfully reports
    its gradient) while the filter still runs — useful for filter-overhead
    ablations; for the paper's *fault-free* baseline (faulty agent removed
    entirely) use :func:`run_fault_free`.
    """
    agg_name = aggregator if isinstance(aggregator, str) else aggregator.name
    if isinstance(aggregator, str):
        aggregator = make_aggregator(aggregator, problem.n, problem.f)
    attack_name: Optional[str] = None
    if isinstance(attack, str):
        attack_name = attack
        attack = make_attack(attack)
    elif attack is not None:
        attack_name = attack.name

    faulty = list(problem.faulty_ids) if attack is not None else []
    trace = run_dgd(
        costs=problem.costs,
        faulty_ids=faulty,
        aggregator=aggregator,
        attack=attack,
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
        iterations=iterations,
        seed=seed,
    )
    series = _series(problem, trace)
    output = trace.final_estimate
    return RegressionRunResult(
        label=label or f"{agg_name}/{attack_name or 'honest'}",
        aggregator=agg_name,
        attack=attack_name,
        output=output,
        distance=problem.distance_to_honest_minimizer(output),
        final_loss=problem.honest_aggregate_loss(output),
        trace=trace,
        losses=series["losses"],
        distances=series["distances"],
    )


@dataclass
class SweepSpec:
    """One cell of a batched regression sweep."""

    aggregator: Union[str, GradientAggregator]
    attack: Union[str, ByzantineAttack, None]
    seed: int = 0
    schedule: Optional[StepSchedule] = None
    label: Optional[str] = None


@dataclass
class SweepRunResult:
    """One trial's outcome from the batched sweep engine.

    Mirrors :class:`RegressionRunResult` minus the gradient-level trace —
    the batch path records iterates lazily; rerun the cell through
    :func:`run_regression` when per-iteration gradients are needed.
    """

    label: str
    aggregator: str
    attack: Optional[str]
    seed: int
    output: np.ndarray
    distance: float           # dist(x_H, x_out)
    final_loss: float         # sum_{i in H} Q_i(x_out)
    losses: np.ndarray        # per-iteration honest aggregate loss
    distances: np.ndarray     # per-iteration ||x_t - x_H||
    estimates: np.ndarray     # iterate trajectory x_0 .. x_T, (T + 1, d)

    def __repr__(self) -> str:
        return (
            f"SweepRunResult(label={self.label!r},"
            f" distance={self.distance:.6g})"
        )


def _resolve_spec(
    problem: PaperProblem, spec: SweepSpec
) -> Tuple[BatchTrial, Tuple[str, str, Optional[str]]]:
    """One spec → (engine trial, (label, aggregator name, attack name))."""
    if isinstance(spec.aggregator, str):
        agg_name = spec.aggregator
        aggregator = make_aggregator(spec.aggregator, problem.n, problem.f)
    else:
        agg_name = spec.aggregator.name
        aggregator = spec.aggregator
    attack_name: Optional[str] = None
    attack = spec.attack
    if isinstance(attack, str):
        attack_name = attack
        attack = make_attack(attack)
    elif attack is not None:
        attack_name = attack.name
    faulty = tuple(problem.faulty_ids) if attack is not None else ()
    label = spec.label or f"{agg_name}/{attack_name or 'honest'}"
    trial = BatchTrial(
        aggregator=aggregator,
        attack=attack,
        faulty_ids=faulty,
        seed=spec.seed,
        schedule=spec.schedule,
        label=label,
    )
    return trial, (label, agg_name, attack_name)


def _run_specs(
    problem: PaperProblem,
    specs: Sequence[SweepSpec],
    iterations: int,
    record_gradients: bool = False,
    checkpoint: Optional[Dict[str, object]] = None,
) -> List[Tuple[SweepRunResult, List[Dict[str, object]]]]:
    """The regression family's one engine-and-fold path (direct sweep
    and orchestrator workers): trial ``i`` is spec ``i``, and each result
    comes with its quarantine records.  ``checkpoint``: see
    :func:`~repro.experiments.orchestrator._run_cell_engine`."""
    resolved = [_resolve_spec(problem, spec) for spec in specs]
    trials = [trial for trial, _ in resolved]
    stack = stack_costs(problem.costs)

    def make_engine() -> BatchSimulator:
        return BatchSimulator(
            costs=stack,
            trials=trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
            record_gradients=record_gradients,
        )

    trace = _run_cell_engine(make_engine, iterations, checkpoint)
    honest = list(problem.honest_ids)
    losses = trace.losses(lambda pts: stack.values(pts)[:, honest].sum(axis=1))
    distances = trace.distances_to(problem.x_h)
    outputs = trace.final_estimates
    results = [
        SweepRunResult(
            label=label,
            aggregator=agg_name,
            attack=attack_name,
            seed=spec.seed,
            output=outputs[s],
            distance=float(distances[s, -1]),
            final_loss=float(losses[s, -1]),
            losses=losses[s],
            distances=distances[s],
            estimates=trace.trial_estimates(s),
        )
        for s, ((_, (label, agg_name, attack_name)), spec) in enumerate(
            zip(resolved, specs)
        )
    ]
    return list(zip(results, _cell_quarantines(trace, range(len(specs)))))


def run_regression_sweep(
    problem: PaperProblem,
    specs: Sequence[SweepSpec],
    iterations: int = 500,
    record_gradients: bool = False,
) -> List[SweepRunResult]:
    """Run every sweep cell in lockstep through the batch engine.

    All specs share the problem's costs, constraint and (unless overridden
    per spec) schedule; aggregator/attack registry names are resolved here
    so equal-config cells share vectorized kernels.  Results arrive in spec
    order.
    """
    return [
        result
        for result, _ in _run_specs(
            problem, specs, iterations, record_gradients=record_gradients
        )
    ]


def _run_regression_pack(
    payloads: Sequence[Dict[str, object]],
    checkpoint: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Orchestrator pack worker: :func:`_run_specs` on the default paper
    problem, one JSON-able result per payload."""
    specs = [
        SweepSpec(
            aggregator=str(payload["aggregator"]),
            attack=payload["attack"],
            seed=int(payload["seed"]),
            label=payload.get("label"),
        )
        for payload in payloads
    ]
    return [
        _with_quarantine(to_jsonable(vars(result)), quarantined)
        for result, quarantined in _run_specs(
            paper_problem(), specs, checkpoint=checkpoint,
            **payloads[0]["sweep"],
        )
    ]


def orchestrated_regression_sweep(
    specs: Sequence[SweepSpec],
    iterations: int = 500,
    config: Optional[OrchestratorConfig] = None,
) -> Tuple[List[SweepRunResult], SweepReport]:
    """Run a regression sweep cell-per-spec through the orchestrator.

    Each spec becomes one crash-safe cell (checkpointed, retried,
    shardable across processes, run in packs when supervised); workers
    rebuild the default paper problem from the JSON payload, so specs
    must be registry-name based (string aggregator/attack, no schedule
    override).  Returns the results of every usable cell in spec order
    plus the :class:`~repro.experiments.orchestrator.SweepReport` —
    failed cells are *absent* from the results and present in
    ``report.failed_cells``.
    """
    for spec in specs:
        if not isinstance(spec.aggregator, str):
            raise ValueError(
                "orchestrated sweeps rebuild cells from JSON payloads: "
                f"pass the aggregator by registry name, got "
                f"{spec.aggregator!r}"
            )
        if spec.attack is not None and not isinstance(spec.attack, str):
            raise ValueError(
                "orchestrated sweeps rebuild cells from JSON payloads: "
                f"pass the attack by registry name, got {spec.attack!r}"
            )
        if spec.schedule is not None:
            raise ValueError(
                "orchestrated sweeps rebuild cells from JSON payloads: "
                "per-spec schedule overrides are not serializable"
            )
    spec_doc = {
        "family": "regression",
        "iterations": int(iterations),
        "specs": [
            [s.aggregator, s.attack, int(s.seed), s.label] for s in specs
        ],
    }
    cells: List[SweepCell] = []
    for spec in specs:
        key = (
            f"{spec.aggregator}/{spec.attack or 'honest'}/s{int(spec.seed)}"
        )
        if spec.label:
            key = f"{key}/{spec.label}"
        cells.append(
            SweepCell(
                key=key,
                payload={
                    "aggregator": spec.aggregator,
                    "attack": spec.attack,
                    "seed": int(spec.seed),
                    "label": spec.label,
                    "sweep": {"iterations": int(iterations)},
                },
            )
        )
    report = run_sweep_cells(
        spec_doc,
        cells,
        partial(_run_one_cell, _run_regression_pack),
        config,
        pack_worker=_run_regression_pack,
    )
    results = [
        SweepRunResult(
            label=str(payload["label"]),
            aggregator=str(payload["aggregator"]),
            attack=payload["attack"],
            seed=int(payload["seed"]),
            output=np.asarray(payload["output"], dtype=float),
            distance=float(payload["distance"]),
            final_loss=float(payload["final_loss"]),
            losses=np.asarray(payload["losses"], dtype=float),
            distances=np.asarray(payload["distances"], dtype=float),
            estimates=np.asarray(payload["estimates"], dtype=float),
        )
        for payload in report.results().values()
    ]
    return results, report


def run_fault_free_batch(
    problem: PaperProblem,
    iterations: int = 500,
    seed: int = 0,
) -> SweepRunResult:
    """Batch-engine version of :func:`run_fault_free` (one-trial batch)."""
    honest_costs = [problem.costs[i] for i in problem.honest_ids]
    trial = BatchTrial(
        aggregator=MeanAggregator(), attack=None, seed=seed, label="fault-free"
    )
    stack = stack_costs(honest_costs)
    trace = run_dgd_batch(
        costs=stack,
        trials=[trial],
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
        iterations=iterations,
    )
    losses = trace.losses(lambda pts: stack.values(pts).sum(axis=1))
    distances = trace.distances_to(problem.x_h)
    output = trace.final_estimates[0]
    return SweepRunResult(
        label="fault-free",
        aggregator="mean",
        attack=None,
        seed=seed,
        output=output,
        distance=float(distances[0, -1]),
        final_loss=float(losses[0, -1]),
        losses=losses[0],
        distances=distances[0],
        estimates=trace.trial_estimates(0),
    )


def run_fault_free(
    problem: PaperProblem,
    iterations: int = 500,
    seed: int = 0,
) -> RegressionRunResult:
    """The paper's fault-free baseline: faulty agents omitted, plain mean.

    The remaining n − f honest agents run unfiltered DGD ("using averaging
    for aggregation", Figure 2 caption).
    """
    honest_costs = [problem.costs[i] for i in problem.honest_ids]
    trace = run_dgd(
        costs=honest_costs,
        faulty_ids=[],
        aggregator=MeanAggregator(),
        attack=None,
        constraint=problem.constraint,
        schedule=problem.schedule,
        initial_estimate=problem.initial_estimate,
        iterations=iterations,
        seed=seed,
    )
    series = _series(problem, trace)
    output = trace.final_estimate
    return RegressionRunResult(
        label="fault-free",
        aggregator="mean",
        attack=None,
        output=output,
        distance=problem.distance_to_honest_minimizer(output),
        final_loss=problem.honest_aggregate_loss(output),
        trace=trace,
        losses=series["losses"],
        distances=series["distances"],
    )
