"""The decentralized experiment family: topology × connectivity × f sweeps.

Runs the Appendix-J regression system through the decentralized graph
engine (:class:`~repro.distsys.decentralized.DecentralizedSimulator`) on a
spectrum of communication topologies and reports, per configuration, the
**convergence radius** ``max_{i honest} ||x_i^T - x_H||`` and the final
**consensus gap** ``max_{i,j honest} ||x_i^T - x_j^T||`` — the two
quantities the decentralized fault-tolerance statements bound.

Every topology's whole (aggregator × attack × seed) grid executes as *one*
batched decentralized simulation: the engine folds agents into the batch
axis of the standard ``aggregate_batch`` kernels (regular graphs) or runs
the masked neighborhood kernels (irregular graphs), so the sweep contains
no per-agent Python inner loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import groupby
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..aggregators.registry import make_aggregator
from ..attacks.registry import make_attack
from ..distsys.batch import BatchTrial
from ..distsys.decentralized import DecentralizedSimulator
from ..distsys.topology import CommunicationTopology, make_topology
from ..functions.batched import stack_costs
from ..telemetry.recorder import current_recorder
from .orchestrator import (
    OrchestratorConfig,
    SweepCell,
    SweepReport,
    _cell_quarantines,
    _with_quarantine,
    run_sweep_cells,
)
from .paper_regression import PaperProblem, paper_problem
from .reporting import format_table

__all__ = [
    "DecentralizedSweepRow",
    "default_topologies",
    "decentralized_sweep",
    "orchestrated_decentralized_sweep",
    "render_decentralized_report",
]


def serialize_topology(topology: CommunicationTopology) -> Dict[str, object]:
    """A topology as a JSON-able payload (name + adjacency rows)."""
    return {
        "name": topology.name,
        "adjacency": np.asarray(topology.adjacency, dtype=bool).tolist(),
    }


def deserialize_topology(payload: Dict[str, object]) -> CommunicationTopology:
    """Rebuild a :func:`serialize_topology` payload."""
    return CommunicationTopology(
        name=str(payload["name"]),
        adjacency=np.asarray(payload["adjacency"], dtype=bool),
    )


@dataclass
class DecentralizedSweepRow:
    """One (topology, f, filter, attack) cell of the decentralized sweep."""

    topology: str
    algebraic_connectivity: float       # λ2 of the undirected skeleton
    degree_range: str                   # closed in-degree min..max
    f: int
    aggregator: str
    attack: Optional[str]
    seeds: int
    mean_radius: float                  # mean over seeds of the final radius
    worst_radius: float                 # max over seeds
    mean_gap: float                     # mean over seeds of the final gap
    #: Disconnected topologies only (``allow_disconnected=True``): the mean
    #: final consensus gap *per connected component* (smallest-member order)
    #: — the global ``mean_gap`` is ``nan`` there, since agents in different
    #: components can never agree.  ``component_sizes`` aligns with it.
    component_gaps: Optional[Tuple[float, ...]] = None
    component_sizes: Optional[Tuple[int, ...]] = None


def default_topologies(n: int, seed: int = 0) -> List[CommunicationTopology]:
    """The sweep's topology spectrum, densest to sparsest, on ``n`` agents."""
    return [
        make_topology("complete", n),
        make_topology("torus", n),
        make_topology("ring", n, hops=2),
        make_topology("random_regular", n, seed=seed, degree=3),
        make_topology("erdos_renyi", n, seed=seed, p=0.7),
        make_topology("ring", n),
    ]


class _Cell(NamedTuple):
    """One (topology, filter, attack) configuration."""

    topology: CommunicationTopology
    aggregator: str
    attack: Optional[str]


def _run_cells(
    problem: PaperProblem,
    cells: Sequence[_Cell],
    seeds: Sequence[int],
    iterations: int,
    allow_disconnected: bool,
) -> List[Tuple[DecentralizedSweepRow, List[Dict[str, object]]]]:
    """The graph family's one engine-and-fold path (direct sweep and
    orchestrator workers): one engine per run of consecutive cells on one
    topology (same name and edges); each cell folds its own trials into
    its row and quarantine records."""
    stack = stack_costs(problem.costs)
    folded: List[Tuple[DecentralizedSweepRow, List[Dict[str, object]]]] = []
    for _, run in groupby(
        cells, key=lambda cell: (cell.topology.name, cell.topology.graph_key)
    ):
        run = list(run)
        topology = run[0].topology
        trials = [
            BatchTrial(
                aggregator=make_aggregator(
                    cell.aggregator, problem.n, problem.f
                ),
                attack=None if cell.attack is None else make_attack(
                    cell.attack
                ),
                faulty_ids=(
                    () if cell.attack is None else tuple(problem.faulty_ids)
                ),
                seed=seed,
            )
            for cell in run
            for seed in seeds
        ]
        trace = DecentralizedSimulator(
            costs=stack,
            topology=topology,
            trials=trials,
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
            allow_disconnected=allow_disconnected,
        ).set_recorder(current_recorder()).run(iterations)
        radii = trace.distances_to(problem.x_h)[:, -1]       # (S,)
        components = topology.connected_components()
        if len(components) > 1:
            gaps = np.full(len(trials), np.nan)
            component_gaps = [
                series[:, -1]
                for series in trace.component_consensus_gaps(components)
            ]
            component_sizes = tuple(len(c) for c in components)
        else:
            gaps = trace.consensus_gap()[:, -1]              # (S,)
            component_gaps = None
            component_sizes = None
        degrees = topology.closed_in_degrees
        degree_range = (
            f"{int(degrees.min())}"
            if degrees.min() == degrees.max()
            else f"{int(degrees.min())}..{int(degrees.max())}"
        )
        lambda2 = topology.algebraic_connectivity()
        offsets = range(0, len(trials), len(seeds))
        quarantined = _cell_quarantines(trace, offsets, topology=topology.name)
        for c, cell in enumerate(run):
            span = slice(c * len(seeds), (c + 1) * len(seeds))
            row = DecentralizedSweepRow(
                topology=topology.name,
                algebraic_connectivity=lambda2,
                degree_range=degree_range,
                f=0 if cell.attack is None else problem.f,
                aggregator=cell.aggregator,
                attack=cell.attack,
                seeds=len(seeds),
                mean_radius=float(radii[span].mean()),
                worst_radius=float(radii[span].max()),
                mean_gap=float(gaps[span].mean()),
                component_gaps=(
                    None
                    if component_gaps is None
                    else tuple(
                        float(np.mean(per_comp[span]))
                        for per_comp in component_gaps
                    )
                ),
                component_sizes=component_sizes,
            )
            folded.append((row, quarantined[c]))
    return folded


def decentralized_sweep(
    problem: Optional[PaperProblem] = None,
    topologies: Optional[Sequence[CommunicationTopology]] = None,
    aggregators: Sequence[str] = ("cwtm", "cge_mean", "median"),
    attacks: Sequence[Optional[str]] = (
        None,
        "gradient_reverse",
        "edge_equivocation",
    ),
    iterations: int = 300,
    seeds: Sequence[int] = (0,),
    allow_disconnected: bool = False,
) -> List[DecentralizedSweepRow]:
    """Run the topology × connectivity × f sweep; returns report rows.

    ``attacks`` containing ``None`` adds the fault-free baseline (``f = 0``,
    no Byzantine agent) for each topology × filter cell; named attacks run
    with the paper's faulty set (``f = len(problem.faulty_ids)``).

    ``allow_disconnected=True`` admits disconnected topologies: the global
    consensus gap is reported as ``nan`` (agents in different components
    can never agree) and each row instead carries the mean final gap *per
    connected component* in ``component_gaps``.

    The default filter set is *normalized* (``cwtm``, ``cge_mean``,
    ``median``): the plain ``cge`` sum is well-defined here too, but its
    magnitude scales with neighborhood size, which makes convergence radii
    incomparable across topologies of different degree.

    ``seeds`` defaults to a single seed because the default attacks are
    deterministic — extra seeds only add information for stochastic attacks
    (e.g. ``"random"``) or per-trial restart overrides.
    """
    problem = problem or paper_problem()
    topologies = (
        list(topologies) if topologies is not None else default_topologies(problem.n)
    )
    cells = [
        _Cell(topology, aggregator, attack)
        for topology in topologies
        for aggregator in aggregators
        for attack in attacks
    ]
    return [
        row
        for row, _ in _run_cells(
            problem, cells, seeds, iterations, allow_disconnected
        )
    ]


def _row_from_payload(row: Dict[str, object]) -> DecentralizedSweepRow:
    """Rebuild a report row from its JSON form (lists back to tuples)."""
    data = dict(row)
    for name in ("component_gaps", "component_sizes"):
        if data.get(name) is not None:
            data[name] = tuple(data[name])
    return DecentralizedSweepRow(**data)


def _run_decentralized_pack(
    payloads: Sequence[Dict[str, object]],
    checkpoint: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """The family's orchestrator worker, for packs and single cells
    alike: :func:`_run_cells` on the default paper problem, one JSON-able
    result per payload.  The engine is not resumable, so ``checkpoint``
    is ignored."""
    cells = [
        _Cell(
            deserialize_topology(payload["topology"]),
            str(payload["aggregator"]),
            payload["attack"],
        )
        for payload in payloads
    ]
    return [
        _with_quarantine({"rows": [asdict(row)]}, quarantined)
        for row, quarantined in _run_cells(
            paper_problem(), cells, **payloads[0]["sweep"]
        )
    ]


def orchestrated_decentralized_sweep(
    topologies: Optional[Sequence[CommunicationTopology]] = None,
    aggregators: Sequence[str] = ("cwtm", "cge_mean", "median"),
    attacks: Sequence[Optional[str]] = (
        None,
        "gradient_reverse",
        "edge_equivocation",
    ),
    iterations: int = 300,
    seeds: Sequence[int] = (0,),
    allow_disconnected: bool = False,
    config: Optional[OrchestratorConfig] = None,
) -> Tuple[List[DecentralizedSweepRow], SweepReport]:
    """The topology × filter × attack sweep through the orchestrator.

    One crash-safe cell per (topology, filter, attack); rows arrive in
    :func:`decentralized_sweep` order, with failed cells' rows absent and
    listed in ``report.failed_cells``.  Workers rebuild the default paper
    problem, so there is no ``problem`` parameter; topologies travel as
    explicit adjacency payloads.  Supervised runs send the cells to the
    workers in packs, one engine per topology in a pack.
    """
    if topologies is None:
        topologies = default_topologies(paper_problem().n)
    serialized = [serialize_topology(t) for t in topologies]
    sweep = {
        "iterations": int(iterations),
        "seeds": [int(s) for s in seeds],
        "allow_disconnected": bool(allow_disconnected),
    }
    spec_doc = {
        "family": "decentralized",
        "topologies": serialized,
        "aggregators": list(aggregators),
        "attacks": list(attacks),
        **sweep,
    }
    cells = [
        SweepCell(
            key=f"t{t}-{topology.name}/{aggregator}/{attack or 'honest'}",
            payload={
                "topology": serialized[t],
                "aggregator": str(aggregator),
                "attack": attack,
                "sweep": sweep,
            },
        )
        for t, topology in enumerate(topologies)
        for aggregator in aggregators
        for attack in attacks
    ]
    report = run_sweep_cells(spec_doc, cells, _run_decentralized_pack, config)
    rows = [
        _row_from_payload(row)
        for result in report.results().values()
        for row in result["rows"]
    ]
    return rows, report


def _gap_cell(row: DecentralizedSweepRow) -> object:
    """The gap column: global gap, or per-component gaps when disconnected."""
    if row.component_gaps is None:
        return row.mean_gap
    return " / ".join(
        f"C{k}(n={size}):{gap:.4g}"
        for k, (gap, size) in enumerate(
            zip(row.component_gaps, row.component_sizes)
        )
    )


def render_decentralized_report(
    rows: Sequence[DecentralizedSweepRow], iterations: int = 300
) -> str:
    """The convergence-radius report as an aligned text table."""
    return format_table(
        headers=[
            "topology",
            "lambda2",
            "closed deg",
            "f",
            "filter",
            "attack",
            "radius (mean)",
            "radius (worst)",
            "gap (mean)",
        ],
        rows=[
            [
                r.topology,
                r.algebraic_connectivity,
                r.degree_range,
                r.f,
                r.aggregator,
                r.attack or "honest",
                r.mean_radius,
                r.worst_radius,
                _gap_cell(r),
            ]
            for r in rows
        ],
        title=(
            "Decentralized robust DGD on the Appendix-J system - "
            f"convergence radius after {iterations} iterations "
            "(radius = max honest distance to x_H)"
        ),
    )
