"""Fused edge-tensor execution of delay-tolerant decentralized sweeps.

:class:`~repro.distsys.decentralized_delay.DelayedDecentralizedSimulator`
already runs its trials in lockstep, but it fixes (topology, τ, network
conditions, missing policy, fault timeline) per engine instance — a sweep
still builds one engine per (topology, τ, drop, policy) cell and replays
the whole protocol loop per cell.  :class:`BatchDelayedDecentralizedSimulator`
is the `batch_async` treatment for the graph family: every trial of an
entire topology × τ × drop × policy × seed sweep rides one batch axis
``S`` of a single lockstep tensor program.

* **Per-edge queues are padded, circular ``(S, E_max, τ_max + 1)``
  tensors** keyed on each topology's
  :meth:`~repro.distsys.topology.CommunicationTopology.directed_edges`
  enumeration (the ``edge_index`` convention): slot ``r mod (τ_max + 1)``
  holds the newest view round arriving at round ``r``, ``-1`` = empty, so
  a round folds and clears one slot instead of shifting the queue.
  Snapshots store the per-trial engine's shifted layout (slot ``j``
  arriving in ``j`` rounds).  Trials on smaller graphs pad their edge
  rows; padded columns are born dropped and can never enqueue.
* **Views are flat index operations.**  A round's per-slot view rounds
  are one take from a vector of the usable per-edge views, the current
  round and ``-1``; both payload channels stay factored — each is one
  flat take over a ``(τ_max + 1, S, n, d)`` ring, the iterates and the
  gradients of the last ``τ_max + 1`` rounds, which hold every round a
  usable view can name.  The stall and tolerance rules are evaluated for
  every trial at once from per-trial constants.
* **Network and fault realizations** come from the chunk-invariant
  :func:`~repro.distsys.faults.sample_network_run` /
  :meth:`~repro.distsys.faults.FaultSchedule.sample_run` pre-sampling,
  per-trial streams identical to the per-trial engine's, stacked into
  ``(B, S, E_max)`` / ``(B, S, n)`` tensors one bounded block of ``B``
  rounds at a time by the :class:`~repro.distsys.faults._TrialNetworks`
  the batched asynchronous engine shares, so no tensor of the engine
  grows with the horizon but the per-round counters, the step sizes and
  the trace.
* **Windowed traces** (``trace_rounds=``) store only the planned rounds
  of the ``(S, n, d)`` iterates, as in the other graph engines.
* **Fabrication is grouped per (attack, faulty set, omniscience,
  topology)** — each trial's generator is consumed exactly as the
  per-trial engine consumes it, and equivocating attacks see their own
  topology's delivery structure.
* **Masked and shrink missing-neighbor policies** ride the
  tolerance-parameterized masked kernels' receiver axis with per-trial
  policy flags; fully-attended trials always take the synchronous graph
  engine's exact kernels sliced to their topology's true ``k`` — the
  bit-for-bit path.  The stale trimmed-mean consensus mix is batched the
  same way.

The engine is pinned to the per-trial
:class:`~repro.distsys.decentralized_delay.DelayedDecentralizedSimulator`
at 1e-9 (degenerate τ=0 / clean-network configs bit-for-bit) across
aggregator × attack × topology × τ × drop × policy × seed — including
stalls, crash/warm-recover and Byzantine-from-round timelines
(``tests/distsys/test_batch_decentralized_delay.py``) — and keeps the
resumable contract of the other batched engines: ``run(T, start_round=…)``
re-pre-samples only the remaining rounds from the persisted per-trial
network streams, and JSON ``state_dict()``/``load_state()`` round trips
— which carry only the rings' window, not the whole run — resume
bit-identically (``tests/distsys/test_resumable_engines.py``).
Every computation is per-receiver-row, so a trial's trajectory is
bit-identical whether it runs solo, inside one sweep cell, or fused into
the whole sweep — the composition-independence contract the orchestrated
sweep relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..aggregators.base import GradientAggregator
from ..aggregators.masked import (
    aggregator_label,
    masked_min_attendance_for_tolerance,
    masked_partial_kernel_for,
    masked_trimmed_mean_batch,
)
from ..aggregators.registry import make_aggregator
from ..attacks.base import ByzantineAttack
from ..backend import xp
from ..functions.base import CostFunction
from ..functions.batched import CostStack, stack_costs
from ..health import (
    TrialGuard,
    aggregation_round,
)
from ..optim.projections import ConvexSet
from ..optim.schedules import StepSchedule
from ..telemetry.recorder import Recorder, current_recorder
from .asynchronous import MISSING_POLICIES
from .batch import _IterateTrace, _config_key, group_indices
from .decentralized import (
    _DelayTrace,
    _check_connected,
    _check_consensus_trim,
    _edge_attack_groups,
    _edge_fabrications,
    _exact_kernels,
    _filter_neighborhoods,
    _mix_neighborhoods,
    _refuse_nonfinite_views,
    _self_slots,
)
from .engine import (
    ProtocolEngine,
    ProtocolRound,
    validate_attack_plan,
    validate_faulty_ids,
    validate_initial_estimate,
)
from .faults import FaultSchedule, NetworkCondition, _TrialNetworks
from .topology import CommunicationTopology

__all__ = [
    "DelayBatchTrial",
    "BatchDelayedDecentralizedTrace",
    "BatchDelayedDecentralizedSimulator",
    "run_decentralized_delayed_batch",
]

_STATE_V1 = "repro/batch-decentralized-delay-state/v1"
#: the window-only snapshot: ring window, kept trace rounds, counters
_STATE_V2 = "repro/batch-decentralized-delay-state/v2"


@dataclass
class DelayBatchTrial:
    """One delay-tolerant decentralized trial of a fused sweep.

    Mirrors the :class:`~repro.distsys.decentralized_delay.DelayedDecentralizedSimulator`
    constructor per trial: each trial carries its own communication
    topology, staleness bound, per-edge network conditions, fault
    timeline, attack, filter and missing-neighbor policy — the engine
    groups equal configurations so a sweep varying only seeds still runs
    one kernel per stage.  ``aggregator`` may be a registry name, built as
    ``make_aggregator(name, n, len(faulty set))``.
    """

    aggregator: Union[GradientAggregator, str]
    topology: CommunicationTopology = None
    attack: Optional[ByzantineAttack] = None
    faulty_ids: Tuple[int, ...] = ()
    conditions: Tuple[NetworkCondition, ...] = ()
    fault_schedule: Optional[FaultSchedule] = None
    staleness_bound: int = 0
    missing_policy: str = "masked"
    seed: int = 0
    schedule: Optional[StepSchedule] = None
    initial_estimate: Optional[np.ndarray] = None
    omniscient_attack: Optional[bool] = None
    label: Optional[str] = None


@dataclass
class BatchDelayedDecentralizedTrace(_DelayTrace):
    """Decentralized trace plus per-trial gossip-under-delay diagnostics.

    The fused analogue of
    :class:`~repro.distsys.decentralized_delay.DelayedDecentralizedTrace`:
    trials may live on different topologies, so ``edges`` is a per-trial
    ``(S,)`` edge count instead of a scalar.
    """

    edges: np.ndarray = field(default=None)                # (S,)

    def missing_fraction(self) -> np.ndarray:
        """Per-trial per-round fraction of edges with no usable message.

        Shape ``(S, T)``; an edgeless trial (single-agent topology)
        reports 0.
        """
        edges = self.edges.astype(float)[:, None]          # (S, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            fraction = (edges - self.usable_edge_counts.T) / edges
        return np.where(edges > 0, fraction, 0.0)


class BatchDelayedDecentralizedSimulator(ProtocolEngine):
    """Run ``S`` delay-tolerant decentralized trials in lockstep.

    ``trace_rounds`` (``None``, a stride or a sequence of rounds; see
    :func:`~repro.distsys.batch.normalize_trace_rounds`) stores only
    those iterate rounds, plus 0 and the horizon; the per-round counters
    and step sizes always cover every round.
    """

    def __init__(
        self,
        costs: Union[Sequence[CostFunction], CostStack],
        trials: Sequence[DelayBatchTrial],
        constraint: ConvexSet,
        schedule: StepSchedule,
        initial_estimate: Sequence[float],
        mixing: bool = True,
        allow_disconnected: bool = False,
        trace_rounds=None,
    ):
        if not trials:
            raise ValueError("need at least one trial")
        self.mixing = bool(mixing)
        self.stack: CostStack = (
            costs if isinstance(costs, CostStack) else stack_costs(costs)
        )
        self.n = self.stack.n
        self.d = self.stack.dim
        self.trials: List[DelayBatchTrial] = list(trials)
        self.constraint = constraint

        default_initial = validate_initial_estimate(initial_estimate, self.d)
        s = len(self.trials)

        # -- per-trial normalized state (trial objects stay read-only) ----
        starts = []
        self.rngs: List[np.random.Generator] = []
        self._schedules: List[StepSchedule] = []
        self._omniscient: List[bool] = []
        self._aggregators: List[GradientAggregator] = []
        self._fault_schedules: List[FaultSchedule] = []
        self._faulty: List[Tuple[int, ...]] = []
        self._tau = np.zeros(s, dtype=int)
        self._shrink = np.zeros(s, dtype=bool)
        #: first compromise round per (trial, agent); int64 — the
        #: never-compromised sentinel overflows a 32-bit default int.
        self._since = np.full(
            (s, self.n), np.iinfo(np.int64).max, dtype=np.int64
        )

        for index, trial in enumerate(self.trials):
            if trial.topology is None:
                raise ValueError("every DelayBatchTrial needs a topology")
            if trial.topology.n != self.n:
                raise ValueError(
                    f"trial {index} topology covers {trial.topology.n} "
                    f"agents but {self.n} costs given"
                )
            fault_schedule = (
                trial.fault_schedule or FaultSchedule()
            ).validate(self.n)
            self._fault_schedules.append(fault_schedule)
            base_faulty = validate_faulty_ids(trial.faulty_ids, self.n)
            since_map = fault_schedule.compromised_since()
            faulty = tuple(sorted(set(base_faulty) | set(since_map)))
            if len(faulty) >= self.n:
                raise ValueError("at least one agent must be honest")
            self._faulty.append(faulty)
            for agent, start_round in since_map.items():
                self._since[index, agent] = start_round
            for agent in base_faulty:
                self._since[index, agent] = 0  # from-the-start wins
            # This engine represents silence, so crash-capable attacks are
            # legal (full_attendance_engine=None), like the per-trial one.
            self._omniscient.append(
                validate_attack_plan(
                    trial.attack,
                    len(faulty),
                    trial.omniscient_attack,
                    full_attendance_engine=None,
                )
            )
            if trial.staleness_bound < 0:
                raise ValueError("staleness bound must be non-negative")
            self._tau[index] = int(trial.staleness_bound)
            if trial.missing_policy not in MISSING_POLICIES:
                raise ValueError(
                    f"unknown missing-neighbor policy "
                    f"{trial.missing_policy!r}; "
                    f"known: {', '.join(MISSING_POLICIES)}"
                )
            self._shrink[index] = trial.missing_policy == "shrink"
            if isinstance(trial.aggregator, str):
                aggregator = make_aggregator(
                    trial.aggregator, self.n, len(faulty)
                )
            else:
                aggregator = trial.aggregator
            self._aggregators.append(aggregator)
            start = (
                default_initial
                if trial.initial_estimate is None
                else validate_initial_estimate(trial.initial_estimate, self.d)
            )
            starts.append(start)
            self.rngs.append(np.random.default_rng(trial.seed))
            self._schedules.append(trial.schedule or schedule)

        #: per-trial Byzantine count — the declared consensus/outvote
        #: tolerance (crashes are availability faults, not adversarial).
        self._fault_counts = np.array(
            [len(f) for f in self._faulty], dtype=int
        )

        # -- topology groups and padded gather/edge structure -------------
        self._build_topology_structure(allow_disconnected)

        # Every agent starts from the trial's initial estimate: (S, n, d).
        tiled = np.repeat(np.stack(starts)[:, None, :], self.n, axis=1)
        self.estimates = self._project_all(tiled)
        self.iteration = 0
        self.guard = TrialGuard(s)

        self._attack_groups = _edge_attack_groups(
            self.trials,
            self._faulty,
            self._omniscient,
            self._topo_of,
            [group["topology"] for group in self._topo_groups],
        )
        self._partial_groups = self._group_aggregators()
        self._partial_merged = self._merge_partial_groups()
        # Per-trial constants of the stall rule: the filter's declared f
        # and its kernel's attendance floor, linear in the tolerance and
        # read off the masked module's rule at tolerances 0 and 1.
        self._filter_f = np.zeros(s, dtype=int)
        self._floor_slope = np.zeros(s, dtype=int)
        self._floor_intercept = np.zeros(s, dtype=int)
        for aggregator, _, declared, idx in self._partial_merged:
            low, high = (
                int(masked_min_attendance_for_tolerance(aggregator, tol))
                for tol in (0, 1)
            )
            self._filter_f[idx] = declared
            self._floor_slope[idx] = high - low
            self._floor_intercept[idx] = low
        self._mixing_groups = self._group_mixing() if self.mixing else []
        self._schedule_groups = [
            (self._schedules[rep], idx)
            for rep, idx in group_indices(
                s, lambda index: _config_key(self._schedules[index])
            )
        ]

        # The circular per-edge queue, W = τ_max + 1 slots: slot r % W
        # holds the newest view (send round) arriving at round r; -1 =
        # empty.  A usable delay is at most τ_max, so no two pending
        # arrival rounds share a slot.  Queue state is
        # horizon-independent, so it lives here and persists across
        # chunked runs (and through state_dict/load_state, which rotate
        # it to the shifted layout: slot j arriving in j rounds).
        self._tau_max = int(self._tau.max())
        self._window = self._tau_max + 1
        self._pending = np.full(
            (s, self._edge_max, self._window), -1, dtype=int
        )
        self._freshest = np.full((s, self._edge_max), -1, dtype=int)

        # Both payload channels live in (W, S, n, d) rings: round v's
        # gradients and iterates sit in slot v % W, and a usable view is
        # at most τ_max rounds old, so the rings hold every round observe
        # can gather.  Zero-initialised, so a dead or padded slot gathers
        # a finite row that no kernel reads (invariant 9).
        self._grad_ring = np.zeros((self._window, s, self.n, self.d))
        self._iterate_ring = np.zeros((self._window, s, self.n, self.d))
        self._iterate_ring[0] = self.estimates

        #: Each trial's network realization over its topology's directed
        #: edges and its senders, sampled block by block as the rounds
        #: arrive (padded edge columns are born dropped).
        self._networks = _TrialNetworks(
            self.trials, self._edge_count, self.n, self._fault_schedules,
            self._since,
        )

        # Whole-run bookkeeping, grown by each run() chunk: step sizes and
        # the per-round trace counters.
        self._etas = np.empty((0, s))
        self._stalled = np.zeros((0, s, self.n), dtype=bool)
        self._usable_edge_counts = np.zeros((0, s), dtype=int)
        self._staleness_sums = np.zeros((0, s))
        # The iterate trace: every round 0..T, or under a ``trace_rounds``
        # plan only the kept rounds.
        self._trace = _IterateTrace(trace_rounds, self.estimates)

    # -- construction helpers ---------------------------------------------
    def _build_topology_structure(self, allow_disconnected: bool) -> None:
        """Group trials by topology; build padded per-trial gather tensors."""
        s = len(self.trials)
        self._topo_groups = []
        self._topo_of = np.empty(s, dtype=int)
        for rep, idx in group_indices(
            s, lambda index: self.trials[index].topology.graph_key
        ):
            topology = self.trials[rep].topology
            _check_connected(topology, allow_disconnected)
            index, mask = topology.neighborhoods()
            senders, receivers, slots = topology.directed_edges()
            self._topo_of[idx] = len(self._topo_groups)
            self._topo_groups.append(
                {
                    "topology": topology,
                    "idx": idx,
                    "k": int(index.shape[1]),
                    "neighbor_index": index,
                    "neighbor_mask": mask,
                    "buckets": (
                        None if topology.is_regular
                        else topology.degree_groups()
                    ),
                    "senders": senders,
                    "receivers": receivers,
                    "slots": slots,
                    "edges": int(senders.size),
                    "self_slots": _self_slots(index),
                }
            )

        self._k_max = max(g["k"] for g in self._topo_groups)
        self._edge_max = max(g["edges"] for g in self._topo_groups)
        self._edge_count = np.array(
            [g["edges"] for g in self._topo_groups], dtype=int
        )[self._topo_of]

        # Padded per-trial structure.  Pad indices are 0 (their slots are
        # never valid) and padded edge columns are born dropped.
        n, k_max, e_max = self.n, self._k_max, self._edge_max
        neighbor_index = np.zeros((s, n, k_max), dtype=int)
        edge_senders = np.zeros((s, e_max), dtype=int)
        self._neighbor_mask = np.zeros((s, n, k_max), dtype=bool)
        self._self_onehot = np.zeros((s, n, k_max), dtype=bool)
        # Each slot's source in observe's per-round view vector: entry
        # trial·E_max + edge holds that edge's usable view round, entry
        # S·E_max the current round (own message), S·E_max + 1 the empty
        # view -1 (padding).
        self._view_source = np.full((s, n, k_max), s * e_max + 1, dtype=int)
        for group in self._topo_groups:
            idx, k, e = group["idx"], group["k"], group["edges"]
            rows = idx[:, None]
            neighbor_index[idx, :, :k] = group["neighbor_index"]
            edge_senders[idx, :e] = group["senders"]
            self._neighbor_mask[idx, :, :k] = group["neighbor_mask"]
            self._self_onehot[rows, np.arange(n), group["self_slots"]] = True
            self._view_source[rows, group["receivers"], group["slots"]] = (
                rows * e_max + np.arange(e)
            )
        self._view_source[self._self_onehot] = s * e_max
        self._expected_counts = self._neighbor_mask.sum(axis=2)  # (S, n)

        # Flat gather indices: slot (trial, i, j) reads row
        # trial·n + neighbor_index of a (·, S·n, d) ring slot, and edge
        # (trial, e) its sender's row of the (S, n) send mask.
        trials = np.arange(s)[:, None]
        self._gather_base = trials[:, :, None] * n + neighbor_index
        self._sender_flat = trials * n + edge_senders

    def _group_aggregators(self):
        """(aggregator, topology) groups with exact + partial kernels.

        The exact kernel (:func:`~repro.distsys.decentralized._exact_kernels`,
        the synchronous graph engine's) serves fully-attended trials,
        sliced to the topology's true ``k``.  Partial rounds always run the
        tolerance-parameterized masked kernel; filters without one are
        rejected at construction, naming the offender.
        """
        groups = []
        for rep, idx in group_indices(
            len(self.trials),
            lambda index: (
                _config_key(self._aggregators[index]),
                self.trials[index].topology.graph_key,
            ),
        ):
            aggregator = self._aggregators[rep]
            group = self._topo_groups[self._topo_of[rep]]
            kernel, grouped = _exact_kernels(
                aggregator, group["topology"], self.d
            )
            partial = masked_partial_kernel_for(aggregator)
            if partial is None:
                raise ValueError(
                    f"aggregator {aggregator_label(aggregator)} has no "
                    "masked neighborhood kernel; the delay-tolerant "
                    "decentralized engine supports mean, cwtm, median, "
                    "cge and cge_mean"
                )
            declared = int(getattr(aggregator, "f", 0))
            groups.append(
                (aggregator, kernel, grouped, partial, declared, idx, group)
            )
        return groups

    def _merge_partial_groups(self):
        """Partial-path groups keyed by aggregator config alone.

        The tolerance-parameterized masked kernels sort invalid slots past
        every valid order statistic and index order statistics through the
        per-row attendance counts, so all-invalid padding columns beyond a
        topology's true ``k`` never reach a kept slot — trials over
        different topologies can share one padded ``k_max``-wide kernel
        call per round without moving a bit.  That collapses the partial
        path from one call per (aggregator, topology) group to one per
        aggregator config.
        """
        merged: Dict[object, Tuple] = {}
        for aggregator, _, _, partial, declared, idx, _ in self._partial_groups:
            key = _config_key(aggregator)
            entry = merged.setdefault(key, (aggregator, partial, declared, []))
            entry[3].append(idx)
        return [
            (aggregator, partial, declared, np.sort(np.concatenate(chunks)))
            for aggregator, partial, declared, chunks in merged.values()
        ]

    def _group_mixing(self):
        """(consensus trim, topology) mixing groups, degree-validated."""
        groups = []
        for rep, idx in group_indices(
            len(self.trials),
            lambda index: (
                len(self._faulty[index]),
                self.trials[index].topology.graph_key,
            ),
        ):
            group = self._topo_groups[self._topo_of[rep]]
            trim = len(self._faulty[rep])
            _check_consensus_trim(group["topology"], trim)
            groups.append((trim, idx, group))
        return groups

    # -- per-run bookkeeping ----------------------------------------------
    def _extend_horizon(self, t_total: int) -> None:
        """Grow the run's bookkeeping to the chunk horizon ``t_total``.

        Only what every round leaves behind is whole-run: the step sizes,
        the per-round trace counters and the (kept) iterate trace, each
        filled for the new rounds only.  The network and fault
        realisations are sampled block by block as the rounds arrive,
        never past ``t_total``.
        """
        self._networks.limit = t_total
        start = self.iteration
        s = len(self.trials)
        self._grow_step_sizes(t_total)
        for name, shape, dtype in (
            ("_stalled", (t_total, s, self.n), bool),
            ("_usable_edge_counts", (t_total, s), int),
            ("_staleness_sums", (t_total, s), float),
        ):
            grown = np.zeros(shape, dtype=dtype)
            grown[:start] = getattr(self, name)[:start]
            setattr(self, name, grown)

        self._trace.extend(t_total)

    # -- protocol stages --------------------------------------------------
    def observe(self) -> ProtocolRound:
        """Dispatch on every live edge, deliver, and gather the views."""
        t = self.iteration
        s = len(self.trials)
        delay_e, dropped_e, active, sends = self._networks.round(t)

        # Quarantined trials are masked out of the einsum — their held
        # iterates are never differentiated again — and dispatch nothing.
        if self.guard.any_quarantined:
            gradients = xp.zeros((s, self.n, self.d))
            act = self.guard.active
            gradients[act] = self.stack.gradients_each(self.estimates[act])
        else:
            gradients = self.stack.gradients_each(self.estimates)  # (S, n, d)
        self._grad_ring[t % self._window] = gradients

        # Dispatch: live senders put this round's message on each out-edge
        # whose sampled delay keeps it usable, in the slot of its arrival
        # round; the send round t is newer than every pending view, so
        # overwrite wins.
        sends = sends & self.guard.active[:, None]  # (S, n)
        sent_e = (
            sends.ravel()[self._sender_flat] & ~dropped_e
        )  # (S, E_max); padded columns are born dropped
        enqueue = np.flatnonzero(sent_e & (delay_e <= self._tau[:, None]))
        window = self._window
        np.put(
            self._pending,
            enqueue * window + (t + delay_e.ravel()[enqueue]) % window,
            t,
        )

        # Deliver the slot arriving now, then free it for round t + W.
        arriving = self._pending[:, :, t % window]
        np.maximum(self._freshest, arriving, out=self._freshest)
        arriving[...] = -1

        usable_e = (self._freshest >= 0) & (
            t - self._freshest <= self._tau[:, None]
        )  # (S, E_max); padded columns never delivered, so never usable

        # Per-slot view rounds in one take: own message always fresh;
        # real edges carry their last usable delivery; padding and dead
        # edges read -1.
        source = np.concatenate(
            (np.where(usable_e, self._freshest, -1).ravel(), (t, -1))
        )
        views = source[self._view_source]                # (S, n, k_max)
        valid = views >= 0

        # Gather both payload channels from the rings: one flat take each
        # over the (W·S·n, d) ring rows.  A dead or padded slot (view -1)
        # reads ring slot W - 1, a finite row its mask keeps out of every
        # kernel.
        rows = (views % window) * (s * self.n) + self._gather_base
        grad_views = xp.take(
            self._grad_ring.reshape(-1, self.d), rows, axis=0
        )
        est_views = xp.take(
            self._iterate_ring.reshape(-1, self.d), rows, axis=0
        )

        return ProtocolRound(
            iteration=t,
            gradients=gradients,
            extras={
                "valid": valid,
                "views": views,
                "grad_views": grad_views,
                "est_views": est_views,
                "usable_edges": usable_e,
                "crashed": ~active,                           # (S, n)
            },
        )

    def fabricate(self, round: ProtocolRound) -> None:
        """Rewrite usable slots of currently-compromised senders.

        The attack context and stream consumption match the per-trial
        engine round for round; fabrications only land on valid slots
        whose sender's compromise has started.
        """
        t = round.iteration
        gradients = round.gradients
        neighborhoods = round.extras["grad_views"]
        valid = round.extras["valid"]
        live = self._since <= t  # (S, n)
        for (
            attack,
            faulty,
            honest,
            omniscient,
            idx,
            scatter,
            receivers,
        ) in self._attack_groups:
            # Frozen trials fabricate nothing and consume no stream.
            active = self.guard.live(idx)
            if not active.size:
                continue
            fabricated = _edge_fabrications(
                self, attack, faulty, honest, omniscient, receivers,
                active, t, gradients,
            )
            rows, slots, columns = scatter
            keep = (
                valid[active][:, rows, slots]
                & live[active][:, faulty[columns]]
            )
            current = neighborhoods[
                active[:, None], rows[None, :], slots[None, :]
            ]
            neighborhoods[active[:, None], rows[None, :], slots[None, :]] = (
                xp.where(keep[:, :, None], fabricated[:, columns, rows], current)
            )
        round.views = neighborhoods

    def aggregate(self, round: ProtocolRound) -> None:
        """Filter + mix through the missing-neighbor policies; mark stalls.

        The fully-attended / partial split is decided **per trial**, never
        batch-globally, and every kernel input is sliced to the trial's
        topology's true ``k`` — so each trial's trajectory is bit-identical
        whether it runs solo, per sweep cell, or fused into the whole
        sweep.
        """
        s = len(self.trials)
        valid = round.extras["valid"]                   # (S, n, k_max)
        est_views = round.extras["est_views"]
        crashed = round.extras["crashed"]               # (S, n)

        self._screen_strict_views(round.views, valid, round.iteration)

        full_trials = (
            (valid == self._neighbor_mask).all(axis=(1, 2))
            & ~crashed.any(axis=1)
        )  # (S,)
        if full_trials.all():
            # Every trial fully attended: the bit-for-bit degenerate path.
            stalled = np.zeros((s, self.n), dtype=bool)
            round.aggregates = self._aggregate_exact(
                round.views, np.arange(s), round.iteration
            )
            if self.mixing:
                round.extras["mix"] = self._mix(
                    est_views, np.arange(s), None, None, full_only=True
                )
            round.extras["stalled_agents"] = stalled
            return

        partial_trials = np.flatnonzero(~full_trials)
        counts = valid.sum(axis=2)                      # (S, n)
        missing = self._expected_counts - counts
        shrink = self._shrink[:, None]                  # (S, 1) per trial

        # Consensus/outvote trim and filter tolerance per (trial, agent):
        # the trial's Byzantine count and its filter's f, shrunk with the
        # neighborhood's shortfall under the shrink policy (missing ≈ the
        # faulty ones staying silent).
        def per_agent(declared):
            return np.where(
                shrink, np.maximum(0, declared[:, None] - missing),
                declared[:, None],
            )

        trim = per_agent(self._fault_counts)
        tolerance = per_agent(self._filter_f)
        floor = (
            self._floor_slope[:, None] * tolerance
            + self._floor_intercept[:, None]
        )

        # Fully-attended trials never stall (the construction-time degree
        # checks guarantee their floors); only partial trials can, and
        # only their rows of trim, tolerance and mask are read.
        stalled = crashed | (counts < trim + 1) | (counts < floor)
        if self.mixing:
            stalled |= counts - 2 * trim < 1
        stalled &= ~full_trials[:, None]

        # Stalled agents hold; give them a self-only mask at zero
        # tolerance so the batched kernels stay defined, then discard.
        mask = np.where(stalled[:, :, None], self._self_onehot, valid)
        tolerance = np.where(stalled, 0, tolerance)
        trim = np.where(stalled, 0, trim)

        updates = xp.empty((s, self.n, self.d))
        full_idx = np.flatnonzero(full_trials)
        if full_idx.size:
            # Fully-attended trials take the per-(aggregator, topology)
            # exact kernels, sliced to each topology's true k.
            updates[full_idx] = self._aggregate_exact(
                round.views, full_idx, round.iteration
            )
        for aggregator, partial_kernel, _, idx in self._partial_merged:
            sub = idx[~full_trials[idx]]
            if sub.size:
                # One padded k_max-wide call per aggregator config covers
                # every topology's partial trials (padding invariance).
                with aggregation_round(
                    round.iteration, aggregator_label(aggregator)
                ):
                    updates[sub] = partial_kernel(
                        round.views[sub].reshape(
                            1, sub.size * self.n, self._k_max, self.d
                        ),
                        mask[sub].reshape(sub.size * self.n, self._k_max),
                        tolerance[sub].reshape(sub.size * self.n),
                    )[0].reshape(sub.size, self.n, self.d)
        round.aggregates = updates

        if self.mixing:
            round.extras["mix"] = self._mix(
                est_views,
                np.flatnonzero(full_trials),
                partial_trials,
                (mask, trim),
                full_only=False,
            )
        round.extras["stalled_agents"] = stalled

    def _screen_strict_views(
        self, views: np.ndarray, valid: np.ndarray, round_index: int
    ) -> None:
        """Quarantine trials whose strict filter faces non-finite views.

        The pre-check mirrors the strict kernels' own front-door
        validation (reason ``aggregator_refused``), and the refused
        trials' views are zeroed so no batched kernel ever raises —
        their aggregates are discarded by the guard's hold anyway.
        """
        for aggregator, _, _, idx in self._partial_merged:
            _refuse_nonfinite_views(
                self, aggregator, idx, views, valid, round_index
            )

    def _aggregate_exact(
        self, views: np.ndarray, subset: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Exact-kernel aggregation of the fully-attended ``subset``."""
        updates = xp.empty((subset.size, self.n, self.d))
        in_subset = np.zeros(len(self.trials), dtype=bool)
        in_subset[subset] = True
        position = np.cumsum(in_subset) - 1
        for aggregator, kernel, grouped, _, _, idx, group in self._partial_groups:
            members = idx[in_subset[idx]]
            if not members.size:
                continue
            with aggregation_round(
                round_index, aggregator_label(aggregator)
            ):
                updates[position[members]] = _filter_neighborhoods(
                    aggregator,
                    kernel,
                    grouped,
                    views[members][:, :, : group["k"]],
                    group["neighbor_mask"],
                )
        return updates

    def _mix(
        self,
        est_views: np.ndarray,
        exact_trials: np.ndarray,
        partial_trials: Optional[np.ndarray],
        partial_state: Optional[Tuple[np.ndarray, np.ndarray]],
        full_only: bool,
    ) -> np.ndarray:
        """Stale trimmed-mean consensus mix, exact + masked-partial paths."""
        mixed = xp.empty((len(self.trials), self.n, self.d))
        in_exact = np.zeros(len(self.trials), dtype=bool)
        in_exact[exact_trials] = True
        for trim_count, gidx, group in self._mixing_groups:
            members = gidx[in_exact[gidx]]
            if members.size:
                mixed[members] = _mix_neighborhoods(
                    est_views[members][:, :, : group["k"]],
                    trim_count,
                    group["buckets"],
                )
        if not full_only and partial_trials is not None and partial_trials.size:
            mask, trim = partial_state
            sub = partial_trials
            # One padded k_max-wide call mixes every topology's partial
            # trials: the masked trimmed mean indexes order statistics by
            # attendance count, so the all-invalid padding never lands.
            mixed[sub] = masked_trimmed_mean_batch(
                est_views[sub].reshape(
                    1, sub.size * self.n, self._k_max, self.d
                ),
                mask[sub].reshape(sub.size * self.n, self._k_max),
                trim[sub].reshape(sub.size * self.n),
            )[0].reshape(sub.size, self.n, self.d)
        return mixed

    def project(self, round: ProtocolRound) -> np.ndarray:
        """Projected update on the live agents; stalled agents hold.

        The *effective* candidates (stalled agents already holding) are
        screened per trial before the projection: a non-finite or
        diverged iterate quarantines only that trial, which the guard
        then holds bit-exactly at its last healthy iterate batch.
        """
        t = round.iteration
        etas = self._etas[t]
        base = round.extras["mix"] if self.mixing else self.estimates
        candidates = base - etas[:, None, None] * round.aggregates
        stalled = round.extras["stalled_agents"]
        previous = self.estimates
        effective = xp.where(stalled[:, :, None], previous, candidates)
        held = self._screen(t, previous, effective)
        projected = self._project_all(held)
        self.estimates = self.guard.hold(
            previous, xp.where(stalled[:, :, None], previous, projected)
        )
        self.iteration = t + 1

        usable_e = round.extras["usable_edges"]
        self._iterate_ring[(t + 1) % self._window] = self.estimates
        self._trace.record(t + 1, self.estimates)
        self._stalled[t] = stalled
        self._usable_edge_counts[t] = usable_e.sum(axis=1)
        self._staleness_sums[t] = np.where(
            usable_e, t - self._freshest, 0
        ).sum(axis=1)
        return self.estimates

    # -- run --------------------------------------------------------------
    def _run_result(self) -> BatchDelayedDecentralizedTrace:
        honest_ids = [
            tuple(i for i in range(self.n) if i not in excluded)
            for excluded in map(set, self._faulty)
        ]
        labels = [
            trial.label
            or f"{trial.topology.name}/{aggregator.name}"
            f"/{trial.attack.name if trial.attack else 'honest'}"
            for trial, aggregator in zip(self.trials, self._aggregators)
        ]
        return BatchDelayedDecentralizedTrace(
            estimates=self._trace.trajectory,
            step_sizes=self._etas,
            honest_ids=honest_ids,
            labels=labels,
            stalled=self._stalled,
            usable_edge_counts=self._usable_edge_counts,
            staleness_sums=self._staleness_sums,
            edges=self._edge_count.copy(),
            quarantined=self.guard.summary(),
            rounds=self._trace.rounds,
        )

    def run(
        self, iterations: int, start_round: Optional[int] = None
    ) -> BatchDelayedDecentralizedTrace:
        """Run to the absolute horizon ``T = iterations``; returns the lazy
        ``0..T`` trace (every round, or the ``trace_rounds`` plan's kept
        rounds; see :meth:`ProtocolEngine._run_chunk`).  A resumed engine
        pre-samples only ``[start_round, T)``, from the persisted
        per-trial network streams.
        """
        return self._run_chunk(iterations, start_round)

    def _record_round_metrics(
        self, recorder: Recorder, round: ProtocolRound
    ) -> None:
        """Per-round delayed-gossip counters (recording on only)."""
        usable_e = round.extras["usable_edges"]
        recorder.count("usable_edges", int(usable_e.sum()))
        stalled = round.extras.get("stalled_agents")
        if stalled is not None:
            recorder.count("stalled_agents", int(stalled.sum()))
        recorder.gauge(
            "queue_depth", int((self._pending >= 0).sum())
        )

    # -- checkpoint support -----------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-able snapshot at a chunk boundary of a longer run.

        The engine pre-samples each trial's network stream through the
        chunk horizon, so a snapshot is only stream-consistent where
        ``iteration == horizon`` — exactly at the end of a :meth:`run`
        chunk.  Captures the iterate batch, both generator families, the
        per-run condition state, the in-flight per-edge queues, the rings'
        window (gradient rounds ``[k - τ_max, k)`` and iterate rounds
        ``[k - τ_max, k]``, which stale views gather from), the stored
        trace rounds and the per-round counters;
        :meth:`load_state` on a freshly constructed engine with the same
        trials continues bit-identically.
        """
        k = int(self.iteration)
        networks = self._networks.state_dict(k)
        low = max(0, k - self._tau_max)
        state: Dict[str, object] = {
            "schema": _STATE_V2,
            "iteration": k,
            "estimates": self.estimates.tolist(),
            "rng_states": [rng.bit_generator.state for rng in self.rngs],
            **networks,
            # The queue in its shifted layout: slot j arrives in j rounds.
            "pending": np.roll(
                self._pending, -(k % self._window), axis=2
            ).tolist(),
            "freshest": self._freshest.tolist(),
            "quarantine": self.guard.state_dict(),
            "grad_window": self._grad_ring[
                np.arange(low, k) % self._window
            ].tolist(),
            "iterate_window": self._iterate_ring[
                np.arange(low, k + 1) % self._window
            ].tolist(),
            "stalled": self._stalled[:k].tolist(),
            "usable_edge_counts": self._usable_edge_counts[:k].tolist(),
            "staleness_sums": self._staleness_sums[:k].tolist(),
            **self._trace.state(k),
        }
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto a fresh engine.

        Reads both schemas: a v1 snapshot carries the whole-run iterate
        trajectory and gradient history, whose last rounds fill the rings;
        a windowed engine keeps its planned rounds of that trajectory, so
        a v1 partial of a windowed sweep cell resumes too.
        """
        schema = state.get("schema")
        if schema not in (_STATE_V1, _STATE_V2):
            raise ValueError(f"unrecognized engine-state schema: {schema!r}")
        if self.iteration != 0 or self._networks.horizon != 0:
            raise RuntimeError(
                "load_state needs a freshly constructed engine"
            )
        k = int(state["iteration"])
        s = len(self.trials)

        def rounds_of(values) -> np.ndarray:
            return np.asarray(values, dtype=float).reshape(
                -1, s, self.n, self.d
            )

        low = max(0, k - self._tau_max)
        if schema == _STATE_V1:
            # The whole-run histories: their last rounds fill the rings,
            # and a windowed engine keeps the rounds its plan stores
            # through k.
            trajectory = rounds_of(state["trajectory"])
            grads = rounds_of(state["grad_history"])[low:k]
            iterates = trajectory[low : k + 1]
            if self._trace.plan is None:
                state = {**state, "trajectory": trajectory}
            else:
                kept = self._trace.planned(k)
                state = {
                    **state,
                    "trajectory": trajectory[kept],
                    "trace_rounds_kept": kept,
                }
        else:
            grads = rounds_of(state["grad_window"])
            iterates = rounds_of(state["iterate_window"])
        if grads.shape[0] != k - low or iterates.shape[0] != k + 1 - low:
            raise ValueError(
                f"state holds {grads.shape[0]} gradient and "
                f"{iterates.shape[0]} iterate rounds, but a round-{k} "
                f"window of this engine (τ_max = {self._tau_max}) needs "
                f"{k - low} and {k + 1 - low}"
            )
        self._trace.load(state)
        self._load_rng_states(state["rng_states"])
        self._networks.load_state(state, k)
        self._grad_ring[np.arange(low, k) % self._window] = grads
        self._iterate_ring[np.arange(low, k + 1) % self._window] = iterates
        self.iteration = k
        self.estimates = xp.asarray(
            np.asarray(state["estimates"], dtype=float)
        )
        self._pending = np.roll(
            np.asarray(state["pending"], dtype=int).reshape(
                self._pending.shape
            ),
            k % self._window,
            axis=2,
        )
        self._freshest = np.asarray(state["freshest"], dtype=int)
        # Absent in pre-quarantine snapshots: every trial stays active.
        quarantine = state.get("quarantine")
        if quarantine is not None:
            self.guard.load_state(quarantine)
        self._stalled = np.asarray(state["stalled"], dtype=bool)
        self._usable_edge_counts = np.asarray(
            state["usable_edge_counts"], dtype=int
        )
        self._staleness_sums = np.asarray(
            state["staleness_sums"], dtype=float
        )


def run_decentralized_delayed_batch(
    costs: Union[Sequence[CostFunction], CostStack],
    trials: Sequence[DelayBatchTrial],
    constraint: ConvexSet,
    schedule: StepSchedule,
    initial_estimate: Sequence[float],
    iterations: int,
    mixing: bool = True,
    allow_disconnected: bool = False,
    trace_rounds=None,
) -> BatchDelayedDecentralizedTrace:
    """Convenience wrapper mirroring :func:`~repro.distsys.batch.run_dgd_batch`."""
    simulator = BatchDelayedDecentralizedSimulator(
        costs=costs,
        trials=trials,
        constraint=constraint,
        schedule=schedule,
        initial_estimate=initial_estimate,
        mixing=mixing,
        allow_disconnected=allow_disconnected,
        trace_rounds=trace_rounds,
    )
    # Convenience runners report to the ambient recorder: a no-op
    # with the default NULL_RECORDER, a live stream under the CLI's
    # --telemetry-out / the orchestrator's worker recorders.
    return simulator.set_recorder(current_recorder()).run(iterations)
