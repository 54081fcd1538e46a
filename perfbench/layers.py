"""Where the traced run puts its spans, and how it folds them into metrics.

:func:`install` wraps the public functions of every layer of the library in
a :class:`~probes.Tracer` span named after the layer; :func:`layer_metrics`
turns one traced repetition (its spans plus the live recorder's metrics and
events) into the ``per_layer`` metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, List

import numpy as np

import repro.distsys.faults as faults
import repro.distsys.topology as topology
import repro.experiments as ex
import repro.experiments.checkpoint as checkpoint
import repro.experiments.orchestrator as orchestrator
import repro.functions.batched as batched
import repro.health as health
from repro.aggregators import registry as aggregator_registry
from repro.attacks import registry as attack_registry
from repro.attacks.base import ByzantineAttack
from repro.distsys.batch import BatchSimulator, BatchTrace
from repro.distsys.batch_async import BatchAsynchronousSimulator, BatchAsyncTrace
from repro.distsys.batch_decentralized_delay import (
    BatchDelayedDecentralizedSimulator,
)
from repro.distsys.decentralized import DecentralizedSimulator, DecentralizedTrace
from repro.distsys.engine import ProtocolEngine
from repro.optim.projections import ConvexSet

#: the engines the workloads run in-process
ENGINES = (
    BatchSimulator,
    DecentralizedSimulator,
    BatchDelayedDecentralizedSimulator,
    BatchAsynchronousSimulator,
)
STAGES = ("observe", "fabricate", "aggregate", "project")
#: every filter any workload runs, for the aggregators.<filter>_* metrics
FILTERS = (
    "cge", "cwtm", "median", "krum", "multikrum", "centered_clip",
    "meamed", "cge_mean", "norm_clip", "mean",
)
#: sweep entry points whose self time is the experiments-layer fold
SWEEPS = (
    ex.run_regression_sweep,
    ex.decentralized_delay_sweep,
    ex.asynchronous_sweep,
    ex.orchestrated_regression_sweep,
    ex.orchestrated_decentralized_delay_sweep,
    ex.orchestrated_asynchronous_sweep,
)
_LABEL = re.compile(r"'([^']+)'")


def _filter_name(round_index=None, aggregator=None) -> str:
    """``aggregation_round``'s label (``"'cwtm' (CWTMAggregator)"``) → span."""
    match = _LABEL.match(aggregator or "")
    return f"aggregators.{match.group(1) if match else aggregator}"


def _estimates_bytes(trace) -> int:
    return int(getattr(trace, "estimates", np.empty(0)).nbytes)


def _presampled_bytes(result) -> int:
    arrays = result if isinstance(result, tuple) else (result,)
    return sum(int(np.asarray(a).nbytes) for a in arrays)


def _own_methods(base, names):
    """``(class, name)`` for every class under ``base`` defining ``name``."""
    classes = [base]
    for cls in classes:
        classes.extend(s for s in cls.__subclasses__() if s not in classes)
    for cls in classes:
        for name in names:
            func = cls.__dict__.get(name)
            if callable(func) and not getattr(func, "__isabstractmethod__", False):
                yield cls, name


def install(tracer) -> None:
    """Span every layer boundary the benchmark reports on."""

    def methods(base, names, span, account=None):
        for cls, name in _own_methods(base, names):
            tracer.span_method(cls, name, span, account)

    for make_graph in (
        topology.ring_topology, topology.random_regular_topology,
        topology.erdos_renyi_topology, topology.complete_topology,
        topology.torus_topology, topology.make_topology,
    ):
        tracer.span_function(make_graph, "topology.build")
    methods(topology.CommunicationTopology, ["is_connected"], "topology.validate")
    methods(
        topology.CommunicationTopology,
        ["neighbor_csr", "neighborhoods", "degree_groups", "directed_edges"],
        "topology.neighbors",
    )
    tracer.span_function(batched.stack_costs, "functions.stack")
    methods(batched.CostStack, ["gradients", "gradients_each"], "functions.gradient")
    methods(batched.CostStack, ["values"], "functions.value")
    for make in (aggregator_registry.make_aggregator, attack_registry.make_attack):
        tracer.span_function(make, "registry.make")

    methods(ProtocolEngine, ["__init__"], "engine.construct")
    methods(ProtocolEngine, ["run"], "engine.run", _estimates_bytes)
    for stage in STAGES:
        methods(ProtocolEngine, [stage], f"engine.{stage}")
    methods(ByzantineAttack, ["fabricate_batch", "fabricate_edges"], "attacks.fabricate")
    tracer.span_context(health.aggregation_round, _filter_name)
    methods(ConvexSet, ["project_batch"], "optim.project")
    methods(health.TrialGuard, ["screen"], "health.screen")

    tracer.span_function(faults.sample_network_run, "faults.presample", _presampled_bytes)
    methods(faults.FaultSchedule, ["sample_run"], "faults.presample", _presampled_bytes)
    for trace_cls in (BatchTrace, DecentralizedTrace, BatchAsyncTrace):
        methods(
            trace_cls,
            ["distances_to", "losses", "consensus_gap", "missing_fraction",
             "staleness_profile", "stalled_agent_rounds", "stalled_rounds"],
            "trace.diagnostics",
        )

    for sweep in SWEEPS:
        tracer.span_function(sweep, "experiments.sweep")
    tracer.span_function(checkpoint.spec_hash, "orchestrator.spec_hash")
    tracer.span_function(orchestrator.run_sweep_cells, "orchestrator.run")
    methods(checkpoint.CheckpointStore, ["put"], "checkpoint.write")
    methods(checkpoint.CheckpointStore, ["get"], "checkpoint.read")


def _recorder_folds(events: List[Dict[str, object]]):
    """Summed counters and histogram totals, plus orchestrator waits.

    Worker processes stream their events (metrics included) back through
    the supervisor, so one pass over the stream covers every process.
    """
    counters: Counter = Counter()
    histograms: Counter = Counter()
    waits = Counter()
    scheduled: Dict[str, float] = {}
    closed: Dict[str, float] = {}
    for event in events:
        kind = event.get("type")
        if kind == "metrics":
            counters.update(event.get("counters", {}))
            for name, stats in event.get("histograms", {}).items():
                histograms[name] += stats["total"]
        elif kind == "cell_scheduled":
            scheduled[event["cell"]] = event["t"]
        elif kind == "cell_cached":
            waits["cells_cached"] += 1
        elif kind == "cell_started" and event["cell"] in scheduled:
            waits["dispatch_wait_s"] += event["t"] - scheduled.pop(event["cell"])
        elif kind == "span_close" and event.get("name") == "cell":
            waits["worker_busy_s"] += event["duration"]
            # worker streams carry their cell key as recorder context
            closed[event.get("cell")] = event["t"]
        elif kind == "cell_completed":
            waits["cells_completed"] += 1
            if event["cell"] in closed:
                waits["collect_wait_s"] += event["t"] - closed.pop(event["cell"])
    return counters, histograms, waits


def layer_metrics(tracer, counts: Dict[str, float]) -> Dict[str, float]:
    """The ``per_layer`` metrics of one traced repetition.

    ``counts`` carries the workload's own quantities (topology edges and
    dense bytes, attempted edges, quarantined trials).  A layer a workload
    never enters reports 0.
    """
    t = tracer.totals

    def inclusive(name):
        return t.inclusive.get(name, 0.0)

    def self_time(name):
        return t.self_time.get(name, 0.0)

    counters, histograms, waits = _recorder_folds(tracer.events())

    def total(prefix):
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    # Attempted deliveries: the delay engine's edges x rounds (known from
    # the workload's topologies) plus every asynchronous uplink message.
    usable = total("usable_edges") + total("usable_messages")
    attempted = (
        counts.get("faults.attempted", 0)
        + total("usable_messages")
        + total("missing_messages")
    )
    metrics = {
        f"engine.{stage}_s": histograms[f"stage_seconds{{stage={stage}}}"]
        for stage in STAGES
    }
    metrics.update(
        {
            "engine.rounds": counters["rounds"],
            "engine.construct_s": inclusive("engine.construct"),
            "engine.unattributed_s": self_time("engine.run"),
            "aggregators.masked_kernel_calls": total("masked_kernel_calls"),
            "attacks.fabricate_s": inclusive("attacks.fabricate"),
            "attacks.calls": t.calls["attacks.fabricate"],
            "functions.gradient_s": inclusive("functions.gradient"),
            "functions.gradient_calls": t.calls["functions.gradient"],
            "optim.project_s": inclusive("optim.project"),
            "topology.build_s": inclusive("topology.build"),
            "topology.validate_s": inclusive("topology.validate"),
            "topology.neighbors_s": inclusive("topology.neighbors"),
            "topology.edges": counts.get("topology.edges", 0),
            "topology.dense_bytes": counts.get("topology.dense_bytes", 0),
            "faults.presample_s": inclusive("faults.presample"),
            "faults.presampled_bytes": t.bytes["faults.presample"],
            "faults.usable_ratio": usable / attempted if attempted else 0.0,
            "faults.stalled": total("stalled_agents") + total("stalled_trials"),
            "health.screen_s": inclusive("health.screen"),
            "health.quarantined_trials": counts.get("health.quarantined_trials", 0),
            "trace.diagnostics_s": inclusive("trace.diagnostics"),
            "trace.stored_bytes": t.bytes["engine.run"],
            "experiments.fold_s": self_time("experiments.sweep"),
            "orchestrator.spec_hash_s": inclusive("orchestrator.spec_hash"),
            "orchestrator.cells": waits["cells_completed"],
            "orchestrator.cells_cached": waits["cells_cached"],
            "orchestrator.cell_retries": counters["cell_retries"],
            "orchestrator.worker_busy_s": waits["worker_busy_s"],
            "orchestrator.dispatch_wait_s": waits["dispatch_wait_s"],
            "orchestrator.collect_wait_s": waits["collect_wait_s"],
            "checkpoint.write_s": inclusive("checkpoint.write"),
            "checkpoint.read_s": inclusive("checkpoint.read"),
            "checkpoint.bytes_written": counters["checkpoint_bytes_written"],
        }
    )
    for name in FILTERS:
        metrics[f"aggregators.{name}_s"] = inclusive(f"aggregators.{name}")
        metrics[f"aggregators.{name}_calls"] = t.calls[f"aggregators.{name}"]
    return metrics
