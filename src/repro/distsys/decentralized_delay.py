"""Delay-tolerant decentralized robust DGD: gossip over lossy, stale edges.

:class:`~repro.distsys.decentralized.DecentralizedSimulator` assumes every
edge of the communication graph delivers instantly every round.  This engine
drops that assumption and composes the graph engine with
:mod:`repro.distsys.faults`: each directed **edge** of the topology carries
its own delay/drop/straggler realization, agents mix and aggregate whatever
neighbor iterates *and* gradients arrived within a bounded staleness ``τ``,
and a :class:`~repro.distsys.faults.FaultSchedule` timeline crashes,
recovers and compromises agents mid-run.  It is the decentralized mirror of
the server-side asynchronous pair — the per-uplink conditions of
:class:`~repro.distsys.asynchronous.AsynchronousSimulator` become per-edge
conditions keyed on the ``(sender, receiver)`` edge list of
:meth:`~repro.distsys.topology.CommunicationTopology.directed_edges`.

Execution model, per round ``t``:

* **observe** — every agent evaluates its own gradient at its own iterate
  (one :meth:`~repro.functions.batched.CostStack.gradients_each` einsum,
  appended to a gradient history).  Live agents dispatch that
  (iterate, gradient) message on every out-edge; the pre-sampled per-edge
  network realization decides each copy's delay and loss.  Deliveries
  update each edge's *last-delivered view round*; a delivered message is
  usable while ``t - view ≤ τ``.  Both payload channels are stored
  factored — per-edge view rounds gathered against the ``(T + 1, S, n, d)``
  iterate trajectory and the matching gradient history — so the queue
  never copies payloads (DESIGN: per-edge padded-queue invariants).
* **fabricate** — attacks rewrite at *delivery* time: every usable slot
  whose sender is currently compromised carries the attack's round-``t``
  per-edge fabrication
  (:meth:`~repro.attacks.base.ByzantineAttack.fabricate_edges`, same
  context and stream consumption as the synchronous graph engine), so the
  adversary is never handicapped by its own stale sends.
* **aggregate** — full-attendance rounds take the synchronous engine's
  exact kernels (folded or masked — the bit-for-bit degenerate path).
  Partial rounds apply the declared **missing-neighbor policy**, the
  graph analogue of the asynchronous missing-value contract: ``"masked"``
  keeps every filter's declared tolerance over the valid slots,
  ``"shrink"`` lowers each agent's tolerance by its neighborhood's
  missing count — both through the tolerance-parameterized masked kernels
  of :mod:`repro.aggregators.masked`, with the consensus-mix trim treated
  the same way.  An agent whose attendance cannot support its policy (or
  whose receiver crashed) **stalls**: it holds its iterate and the trace
  records it.
* **project** — the projected update applies to the non-stalled agents;
  crashed agents hold their iterate and naturally resume from it on
  recovery (a decentralized agent's local state *is* its iterate, so
  recovery is always a warm restart here).

**Degenerate configuration.**  With ``τ = 0``, no conditions and no fault
schedule every edge is fresh every round and the engine pins
**bit-for-bit** to :class:`~repro.distsys.decentralized.DecentralizedSimulator`
across aggregator × attack × topology × seed
(``tests/distsys/test_decentralized_delay.py``,
``benchmarks/test_bench_decentralized_delay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..aggregators.masked import (
    aggregator_label,
    masked_min_attendance_for_tolerance,
    masked_partial_kernel_for,
    masked_trimmed_mean_batch,
)
from ..functions.base import CostFunction
from ..functions.batched import CostStack, stack_costs
from ..optim.projections import ConvexSet
from ..optim.schedules import StepSchedule
from ..telemetry.recorder import current_recorder
from .asynchronous import MISSING_POLICIES
from .batch import BatchTrial
from .decentralized import (
    DecentralizedSimulator,
    _DelayTrace,
    _edge_fabrications,
    _filter_neighborhoods,
    _mix_neighborhoods,
    _self_slots,
)
from .engine import ProtocolRound
from .faults import (
    FaultSchedule,
    NetworkCondition,
    network_streams,
    sample_network_run,
)
from .topology import CommunicationTopology

__all__ = [
    "DelayedDecentralizedTrace",
    "DelayedDecentralizedSimulator",
    "run_decentralized_delayed",
]


@dataclass
class DelayedDecentralizedTrace(_DelayTrace):
    """Decentralized trace plus the gossip-under-delay diagnostics.

    Extends :class:`~repro.distsys.decentralized.DecentralizedTrace` (the
    ``(T + 1, S, n, d)`` trajectory and its consensus-gap / radius
    analytics) with the per-round asynchrony record: which agents stalled,
    how many of the ``E`` directed edges carried a usable message, and how
    stale the usable deliveries ran.
    """

    edges: int = 0

    def missing_fraction(self) -> np.ndarray:
        """Per-trial per-round fraction of edges with no usable message.

        Shape ``(S, T)``; an edgeless topology (single agent) reports 0.
        """
        if self.edges == 0:
            return np.zeros((self.stalled.shape[1], self.stalled.shape[0]))
        return (self.edges - self.usable_edge_counts.T) / float(self.edges)


class DelayedDecentralizedSimulator(DecentralizedSimulator):
    """Decentralized robust DGD under per-edge delays, drops and timelines.

    Args:
        costs, topology, trials, constraint, schedule, initial_estimate,
            mixing, allow_disconnected: as for
            :class:`~repro.distsys.decentralized.DecentralizedSimulator`.
        conditions: :class:`~repro.distsys.faults.NetworkCondition`
            pipeline applied to every round's per-**edge** dispatches.
            Conditions are keyed on the edge enumeration of
            :meth:`~repro.distsys.topology.CommunicationTopology.directed_edges`
            (an ``agents=[...]`` subset names *edge indices*, see
            :meth:`~repro.distsys.topology.CommunicationTopology.edge_index`);
            each trial replays its own realization from the tagged
            ``(seed, net)`` stream, exactly like the asynchronous engines.
            Self-messages are local and never conditioned.
        fault_schedule: crash / crash-and-recover / Byzantine-from-round
            timeline applied per agent, shared by every trial of the
            batch.  Timeline-compromised agents join each trial's faulty
            set (trials then need an attack to speak for them); crashed
            agents dispatch nothing and hold their iterate — recovery
            resumes from the held iterate (decentralized recovery is
            inherently warm).
        staleness_bound: τ — a delivered edge message is usable while
            ``t - view ≤ τ``.  τ = 0 accepts only fresh messages (the
            synchronous limit on a zero-delay network).
        missing_policy: ``"masked"`` (default) keeps every filter's and
            the consensus mix's declared tolerance over the valid slots;
            ``"shrink"`` lowers each agent's tolerance by its
            neighborhood's missing count (the step-S1 belief that missing
            neighbors are the faulty ones).
    """

    _full_attendance_engine = None  # this engine represents silence

    def __init__(
        self,
        costs: Union[Sequence[CostFunction], CostStack],
        topology: CommunicationTopology,
        trials: Sequence[BatchTrial],
        constraint: ConvexSet,
        schedule: StepSchedule,
        initial_estimate: Sequence[float],
        mixing: bool = True,
        conditions: Sequence[NetworkCondition] = (),
        fault_schedule: Optional[FaultSchedule] = None,
        staleness_bound: int = 0,
        missing_policy: str = "masked",
        allow_disconnected: bool = False,
    ):
        stack = costs if isinstance(costs, CostStack) else stack_costs(costs)
        self.fault_schedule = (
            fault_schedule or FaultSchedule()
        ).validate(stack.n)
        if staleness_bound < 0:
            raise ValueError("staleness bound must be non-negative")
        self.staleness_bound = int(staleness_bound)
        if missing_policy not in MISSING_POLICIES:
            raise ValueError(
                f"unknown missing-neighbor policy {missing_policy!r}; "
                f"known: {', '.join(MISSING_POLICIES)}"
            )
        self.missing_policy = missing_policy
        self.conditions: Tuple[NetworkCondition, ...] = tuple(conditions)

        # Timeline-compromised agents join every trial's faulty set before
        # the base engine validates and groups attacks; their compromise
        # *round* is kept separately so fabrications only land once live.
        since_map = self.fault_schedule.compromised_since()
        merged_trials: List[BatchTrial] = []
        base_faulty: List[Tuple[int, ...]] = []
        for trial in trials:
            declared = tuple(int(i) for i in trial.faulty_ids)
            base_faulty.append(declared)
            extra = sorted(set(since_map) - set(declared))
            if extra:
                trial = replace(
                    trial,
                    faulty_ids=tuple(sorted(set(declared) | set(since_map))),
                )
            merged_trials.append(trial)

        super().__init__(
            stack,
            topology,
            merged_trials,
            constraint,
            schedule,
            initial_estimate,
            mixing=mixing,
            allow_disconnected=allow_disconnected,
        )

        s = len(self.trials)
        #: first compromise round per (trial, agent); int64 — the
        #: never-compromised sentinel overflows a 32-bit default int.
        self._since = np.full(
            (s, self.n), np.iinfo(np.int64).max, dtype=np.int64
        )
        for index in range(s):
            for agent, start in since_map.items():
                self._since[index, agent] = start
            for agent in base_faulty[index]:
                self._since[index, agent] = 0  # from-the-start wins
        #: per-trial Byzantine count — the declared consensus/outvote
        #: tolerance (crashes are availability faults, not adversarial
        #: ones, and do not consume trim capacity).
        self._fault_counts = np.array(
            [len(f) for f in self._faulty], dtype=int
        )

        # Partial rounds run through the tolerance-parameterized masked
        # kernels regardless of topology regularity — reject filters
        # without one at construction, naming the offender.
        self._partial_groups = []
        for aggregator, kernel, grouped, idx in self._aggregator_groups:
            partial = masked_partial_kernel_for(aggregator)
            if partial is None:
                raise ValueError(
                    f"aggregator {aggregator_label(aggregator)} has no "
                    "masked neighborhood kernel; the delay-tolerant "
                    "decentralized engine supports mean, cwtm, median, "
                    "cge and cge_mean"
                )
            declared = int(getattr(aggregator, "f", 0))
            self._partial_groups.append(
                (aggregator, kernel, grouped, partial, declared, idx)
            )

        # Per-edge structure: the canonical (sender, receiver) enumeration.
        senders, receivers, slots = topology.directed_edges()
        self._edge_senders = senders
        self._edge_receivers = receivers
        self._edge_slots = slots
        self.edges = int(senders.size)
        #: position of each agent's own message in its padded neighborhood.
        self._self_slots = _self_slots(self.neighbor_index)
        self._expected_counts = self.neighbor_mask.sum(axis=1)  # (n,)
        self._begun = False

    # -- whole-run pre-sampling -------------------------------------------
    def _begin_run(self, iterations: int) -> None:
        if self._begun:
            raise RuntimeError(
                "DelayedDecentralizedSimulator is one-shot: construct a new "
                "engine per run (the pre-sampled horizon is not resumable)"
            )
        self._begun = True
        super()._begin_run(iterations)
        s = len(self.trials)
        t_total = iterations

        # Every trial's per-edge network realization, from its own tagged
        # stream — the asynchronous engines' convention, with the edge
        # list standing in for the n uplinks.
        self._net_delays = np.empty((t_total, s, self.edges), dtype=int)
        self._net_dropped = np.empty((t_total, s, self.edges), dtype=bool)
        for index, trial in enumerate(self.trials):
            net_rngs = network_streams(trial.seed, len(self.conditions))
            for condition, net_rng in zip(self.conditions, net_rngs):
                condition.begin_run(self.edges, net_rng)
            delays, dropped = sample_network_run(
                self.conditions, net_rngs, self.edges, t_total
            )
            self._net_delays[:, index, :] = delays
            self._net_dropped[:, index, :] = dropped

        self._active = self.fault_schedule.sample_run(
            None, self.n, t_total
        )  # (T, n)

        # Attack-scheduled silence (crash-style faults): a compromised
        # agent that silences dispatches on no out-edge that round.
        self._silenced = np.zeros((t_total, s, self.n), dtype=bool)
        for index, trial in enumerate(self.trials):
            if trial.attack is None or not trial.attack.may_be_silent:
                continue
            for agent in np.flatnonzero(
                self._since[index] < np.iinfo(np.int64).max
            ):
                start = int(self._since[index, agent])
                for t in range(start, t_total):
                    if trial.attack.silences(int(agent), t):
                        self._silenced[t, index, agent] = True

        # The per-edge padded queue: slot k holds the newest view (send
        # round) arriving in k rounds; -1 = empty.  Messages delayed past
        # τ can never be usable and are never enqueued.
        self._pending = np.full(
            (s, self.edges, self.staleness_bound + 1), -1, dtype=int
        )
        self._freshest = np.full((s, self.edges), -1, dtype=int)

        #: round-v gradients of every agent at its own iterate — the
        #: second payload channel the per-edge views gather against.
        self._grad_history = np.empty((t_total, s, self.n, self.d))

        self._stalled = np.zeros((t_total, s, self.n), dtype=bool)
        self._usable_edge_counts = np.zeros((t_total, s), dtype=int)
        self._staleness_sums = np.zeros((t_total, s))

    # -- protocol stages --------------------------------------------------
    def observe(self) -> ProtocolRound:
        """Dispatch on every live edge, deliver, and gather the views."""
        if not self._begun:
            raise RuntimeError(
                "drive DelayedDecentralizedSimulator through run(); "
                "stand-alone step() has no pre-sampled horizon"
            )
        t = self.iteration
        s = len(self.trials)

        gradients = self.stack.gradients_each(self.estimates)  # (S, n, d)
        self._grad_history[t] = gradients

        # Dispatch: live senders put this round's message on each out-edge
        # whose sampled delay keeps it usable; the send round t is newer
        # than every pending view, so overwrite wins.
        sends = self._active[t][None, :] & ~self._silenced[t]   # (S, n)
        sent_e = (
            sends[:, self._edge_senders] & ~self._net_dropped[t]
        )  # (S, E)
        delay_e = self._net_delays[t]
        enqueue = sent_e & (delay_e <= self.staleness_bound)
        trial_ix, edge_ix = np.nonzero(enqueue)
        self._pending[trial_ix, edge_ix, delay_e[trial_ix, edge_ix]] = t

        # Deliver slot 0 and shift the queue one round closer.
        self._freshest = np.maximum(self._freshest, self._pending[:, :, 0])
        self._pending[:, :, :-1] = self._pending[:, :, 1:]
        self._pending[:, :, -1] = -1

        usable_e = (self._freshest >= 0) & (
            t - self._freshest <= self.staleness_bound
        )  # (S, E)

        # Per-slot view rounds: own message always fresh; real edges carry
        # their last usable delivery; padding and dead edges stay -1.
        views = np.full((s, self.n, self.k), -1, dtype=int)
        views[:, np.arange(self.n), self._self_slots] = t
        views[:, self._edge_receivers, self._edge_slots] = np.where(
            usable_e, self._freshest, -1
        )
        valid = views >= 0

        # Gather both payload channels against the histories: one fancy
        # gather each, no per-message Python objects.
        safe_views = np.maximum(views, 0)
        trials_ix = np.arange(s)[:, None, None]
        sender_ix = self.neighbor_index[None, :, :]
        grad_views = self._grad_history[safe_views, trials_ix, sender_ix]
        est_views = self._trace.trajectory[safe_views, trials_ix, sender_ix]

        return ProtocolRound(
            iteration=t,
            gradients=gradients,
            extras={
                "valid": valid,
                "views": views,
                "grad_views": grad_views,
                "est_views": est_views,
                "usable_edges": usable_e,
                "crashed": ~self._active[t],
            },
        )

    def fabricate(self, round: ProtocolRound) -> None:
        """Rewrite usable slots of currently-compromised senders.

        The attack context and stream consumption match the synchronous
        graph engine round for round (the adversary observes the *current*
        state and rewrites at delivery time — the worst case); fabrications
        only land on valid slots whose sender's compromise has started.
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
            # Quarantined trials neither consume their attack stream nor
            # receive fabrications — their views stay honest and finite.
            active = self.guard.live(idx)
            if active.size == 0:
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
            current = neighborhoods[active[:, None], rows[None, :], slots[None, :]]
            neighborhoods[active[:, None], rows[None, :], slots[None, :]] = (
                np.where(keep[:, :, None], fabricated[:, columns, rows], current)
            )
        round.views = neighborhoods

    def aggregate(self, round: ProtocolRound) -> None:
        """Filter + mix through the missing-neighbor policy; mark stalls.

        The fully-attended / partial split is decided **per trial**, never
        batch-globally: a trial whose round delivered every slot takes the
        synchronous graph engine's exact kernels regardless of what its
        batch peers dropped, so each trial's trajectory is bit-identical
        whether it runs solo or inside any sweep composition (the same
        replayability contract every other batched engine keeps).
        """
        t = round.iteration
        s = len(self.trials)
        valid = round.extras["valid"]                   # (S, n, k)
        est_views = round.extras["est_views"]
        crashed = round.extras["crashed"]               # (n,)

        # Strict filters refuse non-finite valid slots per trial before any
        # kernel runs — refused trials freeze (aggregator_refused) and
        # their views are zeroed so the shared kernels stay warning-free.
        self._screen_strict_views(round.views, t)

        full_mask = np.broadcast_to(self.neighbor_mask, valid.shape)
        full_trials = (
            (valid == full_mask).all(axis=(1, 2)) & ~crashed.any()
        )  # (S,)
        if full_trials.all():
            # Every trial fully attended: the bit-for-bit degenerate path.
            round.aggregates = self._aggregate_views(round.views, t)
            if self.mixing:
                round.extras["mix"] = self._mix_neighborhoods(est_views)
            round.extras["stalled_agents"] = np.zeros((s, self.n), dtype=bool)
            return

        partial_trials = np.flatnonzero(~full_trials)
        counts = valid.sum(axis=2)                      # (S, n)
        missing = self._expected_counts[None, :] - counts
        shrink = self.missing_policy == "shrink"

        # Consensus/outvote tolerance per (trial, agent): the trial's
        # Byzantine count, shrunk with the neighborhood's shortfall under
        # the shrink policy (missing ≈ the faulty ones staying silent).
        declared = np.broadcast_to(
            self._fault_counts[:, None], (s, self.n)
        )
        trim = np.maximum(0, declared - missing) if shrink else declared

        # Fully-attended trials never stall (the construction-time degree
        # checks guarantee their floors); only partial trials can.
        stalled = np.zeros((s, self.n), dtype=bool)
        stalled[partial_trials] |= crashed[None, :]
        # Attendance must outvote the (possibly shrunk) tolerance.
        stalled[partial_trials] |= (counts < trim + 1)[partial_trials]
        if self.mixing:
            stalled[partial_trials] |= (counts - 2 * trim < 1)[partial_trials]

        # Per-group filter tolerance and its kernel floor.
        tolerance = np.zeros((s, self.n), dtype=int)
        for aggregator, _, _, _, declared_f, idx in self._partial_groups:
            tol = np.full((idx.size, self.n), declared_f, dtype=int)
            if shrink:
                tol = np.maximum(0, tol - missing[idx])
            tolerance[idx] = tol
            floor = masked_min_attendance_for_tolerance(aggregator, tol)
            stalled[idx] |= (counts[idx] < floor) & ~full_trials[idx, None]

        # Stalled agents hold; give them a self-only mask at zero
        # tolerance so the batched kernels stay defined, then discard.
        mask = valid & ~stalled[:, :, None]
        stall_trials, stall_agents = np.nonzero(stalled)
        mask[stall_trials, stall_agents, self._self_slots[stall_agents]] = True
        tolerance[stalled] = 0
        trim = np.where(stalled, 0, trim)

        updates = np.empty((s, self.n, self.d))
        for (
            aggregator,
            kernel,
            grouped,
            partial_kernel,
            _,
            idx,
        ) in self._partial_groups:
            exact = idx[full_trials[idx]]
            if exact.size:
                # This group's fully-attended trials: the exact kernels.
                updates[exact] = _filter_neighborhoods(
                    aggregator,
                    kernel,
                    grouped,
                    round.views[exact],
                    self.neighbor_mask,
                )
            sub = idx[~full_trials[idx]]
            if sub.size:
                folded_values = round.views[sub].reshape(
                    1, sub.size * self.n, self.k, self.d
                )
                folded_mask = mask[sub].reshape(sub.size * self.n, self.k)
                folded_tol = tolerance[sub].reshape(sub.size * self.n)
                updates[sub] = partial_kernel(
                    folded_values, folded_mask, folded_tol
                )[0].reshape(sub.size, self.n, self.d)
        round.aggregates = updates

        if self.mixing:
            mixed = np.empty((s, self.n, self.d))
            for trim_count, gidx in self._mixing_groups:
                members = gidx[full_trials[gidx]]
                if members.size:
                    mixed[members] = _mix_neighborhoods(
                        est_views[members], trim_count, self._degree_buckets
                    )
            mixed[partial_trials] = masked_trimmed_mean_batch(
                est_views[partial_trials].reshape(
                    1, partial_trials.size * self.n, self.k, self.d
                ),
                mask[partial_trials].reshape(
                    partial_trials.size * self.n, self.k
                ),
                trim[partial_trials].reshape(partial_trials.size * self.n),
            )[0].reshape(partial_trials.size, self.n, self.d)
            round.extras["mix"] = mixed
        round.extras["stalled_agents"] = stalled

    def project(self, round: ProtocolRound) -> np.ndarray:
        """Projected update on the live agents; stalled agents hold.

        The *effective* candidates (stalled agents already holding) are
        screened per trial before the projection: a trial with a
        non-finite or diverged candidate freezes all its agents at their
        pre-update iterates, exactly as in the synchronous graph engine.
        """
        t = round.iteration
        etas = self._etas[t]
        base = round.extras["mix"] if self.mixing else self.estimates
        candidates = base - etas[:, None, None] * round.aggregates
        stalled = round.extras["stalled_agents"]
        previous = self.estimates
        effective = np.where(stalled[:, :, None], previous, candidates)
        held = self._screen(t, previous, effective)
        projected = self._project_all(held)
        self.estimates = self.guard.hold(
            previous,
            np.where(stalled[:, :, None], previous, projected),
        )
        self.iteration += 1

        usable_e = round.extras["usable_edges"]
        self._stalled[t] = stalled
        self._usable_edge_counts[t] = usable_e.sum(axis=1)
        self._staleness_sums[t] = np.where(
            usable_e, t - self._freshest, 0
        ).sum(axis=1)
        return self.estimates

    # -- run recording ----------------------------------------------------
    def _run_result(self) -> DelayedDecentralizedTrace:
        base = super()._run_result()
        return DelayedDecentralizedTrace(
            estimates=base.estimates,
            step_sizes=base.step_sizes,
            honest_ids=base.honest_ids,
            labels=base.labels,
            quarantined=base.quarantined,
            stalled=self._stalled,
            usable_edge_counts=self._usable_edge_counts,
            staleness_sums=self._staleness_sums,
            edges=self.edges,
        )


def run_decentralized_delayed(
    costs: Union[Sequence[CostFunction], CostStack],
    topology: CommunicationTopology,
    trials: Sequence[BatchTrial],
    constraint: ConvexSet,
    schedule: StepSchedule,
    initial_estimate: Sequence[float],
    iterations: int,
    mixing: bool = True,
    conditions: Sequence[NetworkCondition] = (),
    fault_schedule: Optional[FaultSchedule] = None,
    staleness_bound: int = 0,
    missing_policy: str = "masked",
    allow_disconnected: bool = False,
) -> DelayedDecentralizedTrace:
    """Convenience wrapper mirroring :func:`~repro.distsys.decentralized.run_decentralized`."""
    simulator = DelayedDecentralizedSimulator(
        costs=costs,
        topology=topology,
        trials=trials,
        constraint=constraint,
        schedule=schedule,
        initial_estimate=initial_estimate,
        mixing=mixing,
        conditions=conditions,
        fault_schedule=fault_schedule,
        staleness_bound=staleness_bound,
        missing_policy=missing_policy,
        allow_disconnected=allow_disconnected,
    )
    # Convenience runners report to the ambient recorder: a no-op
    # with the default NULL_RECORDER, a live stream under the CLI's
    # --telemetry-out / the orchestrator's worker recorders.
    return simulator.set_recorder(current_recorder()).run(iterations)
