"""Event-driven asynchronous execution with bounded staleness.

Every other engine in :mod:`repro.distsys` runs the paper's lock-step
synchronous round.  This engine drops that assumption: messages take
rounds to arrive, get lost, straggle, and agents crash (and recover, and
turn Byzantine) mid-run — the regimes described by
:mod:`repro.distsys.faults`.  The server no longer waits: each round it
aggregates *whichever gradients have arrived*, evaluated at the stale
iterates their senders saw.

The round is still the observe → fabricate → aggregate → project template
of :class:`~repro.distsys.engine.ProtocolEngine`:

* **observe** — dispatch this round's messages through the composed
  :class:`~repro.distsys.faults.NetworkCondition` pipeline (delays, drops,
  straggler slowdowns), deliver everything due, and evaluate the usable
  (staleness ≤ τ) messages' gradients at their *view* iterates.  The
  evaluation is one :meth:`~repro.functions.batched.CostStack.gradients_each`
  call over the per-agent view points, so the stale-gradient hot path
  stays loop-free and batched over agents.
* **fabricate** — currently-compromised agents with a usable message get
  their content rewritten by the attack, through a timeline-aware
  :class:`~repro.attacks.base.AttackContext` (per-message view rounds and
  compromise rounds).  The adversary rewrites at *delivery* time — the
  worst case — while honest messages are genuinely stale.
* **aggregate** — full attendance takes the server's standard path
  (bit-for-bit the synchronous engine); otherwise the declared
  **missing-value policy** applies: ``"shrink"`` rebuilds the
  name-registered filter for this round's attendance with the step-S1
  ``n``/``f`` bookkeeping (missing treated as crashed), ``"masked"``
  keeps the declared filter and runs the masked kernels of
  :mod:`repro.aggregators.masked` under a validity mask (missing treated
  as honest-but-slow, so the full tolerance ``f`` is retained).  A round
  whose attendance cannot support the policy *stalls*: the estimate holds
  and the stall is recorded.
* **project** — the equation-(21) update through the same
  :class:`~repro.distsys.server.RobustServer` as the synchronous engine.

Unlike step S1, nobody is ever eliminated: in an asynchronous system
silence is not proof of crash, only of lateness.

**Degenerate configuration.**  With no conditions, no fault schedule, no
drops and any staleness bound, every message is fresh and delivered in its
own round, and the engine pins **bit-for-bit** to
:class:`~repro.distsys.simulator.SynchronousSimulator` (DESIGN invariant
4; asserted by ``tests/distsys/test_asynchronous.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..aggregators.base import GradientAggregator
from ..aggregators.masked import (
    aggregator_label,
    masked_kernel_for,
    masked_min_attendance,
)
from ..aggregators.registry import make_aggregator
from ..attacks.base import AttackContext, ByzantineAttack
from ..functions.base import CostFunction
from ..functions.batched import CostStack, stack_costs
from ..optim.projections import ConvexSet
from ..optim.schedules import StepSchedule
from ..telemetry.recorder import current_recorder
from ..health import (
    AGGREGATOR_REFUSED,
    QuarantineError,
    RunGuard,
    aggregation_round,
)
from .engine import (
    ProtocolEngine,
    ProtocolRound,
    validate_attack_plan,
    validate_fault_count,
    validate_faulty_ids,
    validate_initial_estimate,
)
from .faults import (
    FaultSchedule,
    NetworkCondition,
    network_streams,
    sample_network_run,
)
from .server import RobustServer

__all__ = [
    "AsyncIterationRecord",
    "AsynchronousTrace",
    "AsynchronousSimulator",
    "run_asynchronous",
]

#: The two declared missing-value policies.
MISSING_POLICIES = ("shrink", "masked")


@dataclass
class AsyncIterationRecord:
    """Everything observed during one asynchronous round.

    ``aggregate`` is ``None`` for a *stalled* round (attendance could not
    support the missing-value policy; the estimate held).  ``staleness``
    maps each aggregated agent to ``t - view_round`` of its message.
    """

    iteration: int
    estimate: np.ndarray
    gradients: Dict[int, np.ndarray]
    aggregate: Optional[np.ndarray]
    step_size: float
    next_estimate: np.ndarray
    missing: Tuple[int, ...] = ()
    staleness: Dict[int, int] = field(default_factory=dict)
    delivered: int = 0
    #: True on every round at or after the run's quarantine (the estimate
    #: is held); distinct from a stall, which is a healthy hold.
    quarantined: bool = False


@dataclass
class AsynchronousTrace:
    """Full history of an asynchronous execution."""

    records: List[AsyncIterationRecord] = field(default_factory=list)
    #: ``{"round": int, "reason": str}`` when the run was quarantined —
    #: the reason is one of :data:`repro.health.QUARANTINE_REASONS`.
    quarantine: Optional[Dict[str, object]] = None

    def append(self, record: AsyncIterationRecord) -> None:
        """Add the record of one completed round."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def final_estimate(self) -> np.ndarray:
        """The last computed iterate ``x_T``."""
        if not self.records:
            raise ValueError("trace is empty")
        return self.records[-1].next_estimate

    def estimates(self, include_final: bool = True) -> np.ndarray:
        """Row-stacked iterates ``x_0, x_1, ..., x_T``."""
        if not self.records:
            raise ValueError("trace is empty")
        points = [r.estimate for r in self.records]
        if include_final:
            points.append(self.records[-1].next_estimate)
        return np.vstack(points)

    def distances_to(self, target: Sequence[float]) -> np.ndarray:
        """Series ``||x_t - target||`` — the paper's *distance* curves."""
        tgt = np.asarray(target, dtype=float)
        return np.linalg.norm(self.estimates() - tgt, axis=1)

    def missing_fraction(self) -> np.ndarray:
        """Per-round fraction of agents with no usable message."""
        return np.array(
            [
                len(r.missing) / (len(r.missing) + len(r.gradients))
                for r in self.records
            ]
        )

    def staleness_profile(self) -> np.ndarray:
        """Per-round mean staleness of the aggregated messages.

        Stalled rounds (nothing aggregated) contribute ``nan`` — reduce
        with ``np.nanmean``.
        """
        out = np.full(len(self.records), np.nan)
        for idx, record in enumerate(self.records):
            if record.staleness:
                out[idx] = float(np.mean(list(record.staleness.values())))
        return out

    def stalled_rounds(self) -> int:
        """Number of rounds where the estimate held for lack of messages."""
        return sum(1 for r in self.records if r.aggregate is None)


class AsynchronousSimulator(ProtocolEngine):
    """Bounded-staleness robust DGD under composable network faults.

    Args:
        costs: the agents' local costs — a sequence (stacked through
            :func:`~repro.functions.batched.stack_costs`) or a prebuilt
            :class:`~repro.functions.batched.CostStack`.
        aggregator: the gradient-filter; the ``"shrink"`` missing-value
            policy rebuilds it per-attendance and therefore needs the
            registry *name*, not an instance.
        f: declared fault tolerance.  Every agent the run ever faults —
            Byzantine from the start (``faulty_ids``), compromised later,
            or crashed by the schedule — counts against it; stragglers
            and lossy links are network conditions, not agent faults, and
            do not.
        faulty_ids: agents compromised from round 0.
        conditions: :class:`~repro.distsys.faults.NetworkCondition`
            pipeline applied, in order, to every round's dispatches.
        fault_schedule: crash / recover / Byzantine-from-round timeline.
            Crash events may declare ``recovery="warm"``: the recovering
            agent's first dispatch is then evaluated at its persisted
            pre-crash view instead of the current broadcast estimate
            (``"reset"``, the default), so a long outage's first
            contribution may itself be too stale to use.
        staleness_bound: τ — a delivered message is usable while
            ``t - view_round <= τ``.  τ = 0 accepts only fresh messages
            (the synchronous limit on a zero-delay network).
        missing_policy: ``"shrink"`` or ``"masked"`` (see module docs).
        seed: seeds both the attack stream (identically to the
            synchronous engine) and a *separate* network stream, so
            adding conditions never perturbs an attack's fabrications.
    """

    def __init__(
        self,
        costs: Union[Sequence[CostFunction], CostStack],
        aggregator: Union[GradientAggregator, str],
        constraint: ConvexSet,
        schedule: StepSchedule,
        f: int,
        initial_estimate: Sequence[float],
        attack: Optional[ByzantineAttack] = None,
        faulty_ids: Sequence[int] = (),
        conditions: Sequence[NetworkCondition] = (),
        fault_schedule: Optional[FaultSchedule] = None,
        staleness_bound: int = 0,
        missing_policy: str = "shrink",
        omniscient_attack: Optional[bool] = None,
        seed: int = 0,
    ):
        self.stack: CostStack = (
            costs if isinstance(costs, CostStack) else stack_costs(list(costs))
        )
        self.n = self.stack.n
        self.d = self.stack.dim

        self.fault_schedule = (fault_schedule or FaultSchedule()).validate(self.n)
        #: warm-recovery dispatch views: (agent, recovery round) -> view.
        self._warm_views = self.fault_schedule.warm_restart_views()
        base_faulty = validate_faulty_ids(faulty_ids, self.n)
        since = self.fault_schedule.compromised_since()
        for agent in base_faulty:
            since[agent] = 0  # compromised from the start wins
        self.compromised_since: Dict[int, int] = since
        self.byzantine_ids: Tuple[int, ...] = tuple(sorted(since))

        fault_agents = set(self.byzantine_ids) | set(
            e.agent for e in self.fault_schedule.events if e.kind == "crash"
        )
        self.f = validate_fault_count(f, self.n, len(fault_agents))
        self.attack = attack
        self.omniscient_attack = validate_attack_plan(
            attack, len(self.byzantine_ids), omniscient_attack
        )

        if staleness_bound < 0:
            raise ValueError("staleness bound must be non-negative")
        self.staleness_bound = int(staleness_bound)
        if missing_policy not in MISSING_POLICIES:
            raise ValueError(
                f"unknown missing-value policy {missing_policy!r}; "
                f"known: {', '.join(MISSING_POLICIES)}"
            )
        self.missing_policy = missing_policy

        # The attack stream is seeded exactly like the synchronous
        # engine's; the network streams are separate, tagged, and one per
        # condition — each pipeline position owns its generator so chunked
        # horizon extension is bit-identical to a whole-run pre-sample.
        self.rng = np.random.default_rng(seed)
        self.conditions: Tuple[NetworkCondition, ...] = tuple(conditions)
        self.net_rngs = network_streams(seed, len(self.conditions))

        self._aggregator_name: Optional[str] = (
            aggregator if isinstance(aggregator, str) else None
        )
        self.server = RobustServer(
            initial_estimate=validate_initial_estimate(
                initial_estimate, dim=self.d
            ),
            aggregator=aggregator,
            constraint=constraint,
            schedule=schedule,
            n=self.n,
            f=self.f,
        )
        self._masked_kernel = None
        self._masked_min = 1
        if missing_policy == "masked":
            kernel = masked_kernel_for(self.server.aggregator)
            if kernel is None:
                raise ValueError(
                    f"aggregator {aggregator_label(self.server.aggregator)} "
                    "has no masked kernel; use missing_policy='shrink'"
                )
            self._masked_kernel = kernel
            # The kernel's own floor, and never fewer messages than can
            # outvote the declared tolerance: a round whose attendance is
            # <= f could consist entirely of fabrications and must stall,
            # not aggregate (the same contract validate_fault_count's
            # n_received check enforces on the shrink path).
            self._masked_min = max(
                masked_min_attendance(self.server.aggregator), self.f + 1
            )

        for condition, net_rng in zip(self.conditions, self.net_rngs):
            condition.begin_run(self.n, net_rng)

        # Pre-sampled network/fault tensors, extended in chunks: row ``t``
        # holds round ``t``'s per-agent delays, drop mask and crash mask.
        # ``run`` pre-samples its whole horizon in one vectorized chunk;
        # stand-alone ``step`` calls extend one round at a time, which
        # consumes the network stream exactly like the historical
        # per-round sampling.
        self._net_horizon = 0
        self._net_delays = np.zeros((0, self.n), dtype=int)
        self._net_dropped = np.zeros((0, self.n), dtype=bool)
        self._net_crashed = np.zeros((0, self.n), dtype=bool)

        #: iterate history x_0 .. x_t — the views stale evaluations index.
        self._history: List[np.ndarray] = [self.server.estimate.copy()]
        #: freshest delivered view round per agent (-1: nothing yet).
        self._freshest = np.full(self.n, -1, dtype=int)
        #: arrival round -> [(agent, view round)] for in-flight messages.
        self._in_flight: Dict[int, List[Tuple[int, int]]] = {}
        self._shrunk_cache: Dict[Tuple[int, int], GradientAggregator] = {}
        self.trace = AsynchronousTrace()
        self.guard = RunGuard()

    @property
    def iteration(self) -> int:
        """Current round index (mirrors the server's counter)."""
        return self.server.iteration

    @property
    def estimate(self) -> np.ndarray:
        """The server's current estimate."""
        return self.server.estimate.copy()

    def _is_compromised(self, agent: int, iteration: int) -> bool:
        since = self.compromised_since.get(agent)
        return since is not None and iteration >= since

    def _ensure_network(self, horizon: int) -> None:
        """Extend the pre-sampled network/fault tensors to cover ``horizon``.

        The conditions sample for all n agents every round — the network
        stream's consumption never depends on the fault timeline.
        """
        if horizon <= self._net_horizon:
            return
        chunk = horizon - self._net_horizon
        delays, dropped = sample_network_run(
            self.conditions, self.net_rngs, self.n, chunk,
            start=self._net_horizon,
        )
        active = self.fault_schedule.sample_run(
            None, self.n, chunk, start=self._net_horizon
        )
        self._net_delays = np.concatenate([self._net_delays, delays])
        self._net_dropped = np.concatenate([self._net_dropped, dropped])
        self._net_crashed = np.concatenate([self._net_crashed, ~active])
        self._net_horizon = horizon

    def _begin_run(self, iterations: int) -> None:
        # One vectorized pre-sampling chunk covers the whole run — the
        # per-round per-link Python RNG calls disappear from the loop.
        self._ensure_network(self.server.iteration + iterations)

    def _note_quarantine(self, round_index: int, reason: str) -> None:
        """Record a fresh quarantine on the trace and the telemetry stream."""
        self.trace.quarantine = self.guard.summary()
        if self.telemetry.enabled:
            self.telemetry.emit(
                "trial_quarantined",
                round=int(round_index),
                reason=reason,
                engine=type(self).__name__,
            )

    # -- protocol stages --------------------------------------------------
    def observe(self) -> ProtocolRound:
        """Dispatch, deliver, and evaluate this round's usable messages."""
        t = self.server.iteration
        x_t = self.server.estimate.copy()
        if self.guard.quarantined:
            # Frozen run: no dispatches, no deliveries, no RNG consumption
            # — the round only appends a held record to the trace.
            return ProtocolRound(
                iteration=t,
                estimate=x_t,
                gradients={},
                extras={
                    "frozen": True,
                    "missing": tuple(range(self.n)),
                    "views": {},
                    "delivered": 0,
                },
            )

        # Round-t dispatch conditions come from the pre-sampled tensors
        # (extended on demand when stepping past the run's horizon).
        self._ensure_network(t + 1)
        delays = self._net_delays[t]
        dropped = self._net_dropped[t]
        crashed = self._net_crashed[t]
        for agent in range(self.n):
            if crashed[agent] or dropped[agent]:
                continue
            if (
                self.attack is not None
                and self._is_compromised(agent, t)
                and self.attack.silences(agent, t)
            ):
                continue
            # A warm-restarting agent's recovery-round dispatch carries its
            # persisted pre-crash view; everyone else sends a fresh view.
            view = self._warm_views.get((agent, t), t)
            arrival = t + int(delays[agent])
            self._in_flight.setdefault(arrival, []).append((agent, view))

        # Deliver everything due this round (zero delay arrives in-round,
        # which is exactly the synchronous rendezvous).
        delivered = self._in_flight.pop(t, [])
        for agent, view in delivered:
            if view > self._freshest[agent]:
                self._freshest[agent] = view

        usable = (self._freshest >= 0) & (
            t - self._freshest <= self.staleness_bound
        )

        # The stale-gradient hot path: every agent's gradient at its own
        # view iterate, one batched gradients_each call.
        points = np.stack(
            [
                self._history[self._freshest[agent]] if usable[agent] else x_t
                for agent in range(self.n)
            ]
        )[None]
        all_gradients = self.stack.gradients_each(points)[0]

        gradients: Dict[int, np.ndarray] = {}
        live_byzantine: List[int] = []
        views: Dict[int, int] = {}
        for agent in range(self.n):
            if not usable[agent]:
                continue
            views[agent] = int(self._freshest[agent])
            if self._is_compromised(agent, t):
                live_byzantine.append(agent)
            else:
                gradients[agent] = all_gradients[agent]
        missing = tuple(int(i) for i in np.flatnonzero(~usable))
        return ProtocolRound(
            iteration=t,
            estimate=x_t,
            gradients=gradients,
            extras={
                "all_gradients": all_gradients,
                "live_byzantine": live_byzantine,
                "views": views,
                "missing": missing,
                "delivered": len(delivered),
            },
        )

    def fabricate(self, round: ProtocolRound) -> None:
        """Rewrite the usable messages of currently-compromised agents.

        No attack call (and no stream use) when no compromised message is
        usable — nor, with omniscient access on, when no honest message is
        usable to observe: the compromised agents then send their true
        gradients.
        """
        if round.extras.get("frozen"):
            return
        live_byzantine: List[int] = round.extras["live_byzantine"]
        if not live_byzantine:
            return
        all_gradients = round.extras["all_gradients"]
        views: Dict[int, int] = round.extras["views"]
        faulty_ids = sorted(live_byzantine)
        if self.omniscient_attack and not round.gradients:
            for agent in faulty_ids:
                round.gradients[agent] = all_gradients[agent]
            return
        context = AttackContext(
            iteration=round.iteration,
            estimate=round.estimate,
            faulty_ids=faulty_ids,
            true_gradients={i: all_gradients[i] for i in faulty_ids},
            honest_gradients=(
                dict(round.gradients) if self.omniscient_attack else None
            ),
            rng=self.rng,
            view_rounds={i: views[i] for i in faulty_ids},
            compromised_since={
                i: self.compromised_since[i] for i in faulty_ids
            },
        )
        fabricated = self.attack.fabricate(context)
        missing = set(faulty_ids) - set(fabricated)
        if missing:
            raise RuntimeError(
                f"attack produced no gradient for agents {sorted(missing)}"
            )
        for agent in faulty_ids:
            round.gradients[agent] = np.asarray(
                fabricated[agent], dtype=float
            )

    def aggregate(self, round: ProtocolRound) -> None:
        """Apply the filter — through the missing-value policy if short.

        A strict filter's typed refusal of non-finite input quarantines
        the run (reason ``aggregator_refused``) on every policy path; the
        estimate freezes at its pre-update value.
        """
        if round.extras.get("frozen"):
            round.aggregates = None
            return
        try:
            with aggregation_round(
                round.iteration, aggregator_label(self.server.aggregator)
            ):
                self._aggregate_policy(round)
        except QuarantineError:
            self.guard.quarantine(round.iteration, AGGREGATOR_REFUSED)
            self._note_quarantine(round.iteration, AGGREGATOR_REFUSED)
            round.extras["frozen"] = True
            round.aggregates = None

    def _aggregate_policy(self, round: ProtocolRound) -> None:
        """The policy dispatch of the aggregate stage (may refuse)."""
        received = round.gradients
        n_received = len(received)
        if n_received == self.n:
            # Full attendance: the synchronous engine's exact path.
            round.aggregates = self.server.filter_gradients(received)
            return
        if n_received == 0:
            round.aggregates = None  # stall: nothing arrived in time
            return
        if self.missing_policy == "masked":
            if n_received < self._masked_min:
                round.aggregates = None  # stall: cannot keep tolerating f
                return
            values = np.zeros((1, 1, self.n, self.d))
            mask = np.zeros((1, self.n), dtype=bool)
            for agent, gradient in received.items():
                values[0, 0, agent] = gradient
                mask[0, agent] = True
            round.aggregates = self._masked_kernel(values, mask)[0, 0]
            return
        # Shrink-n: rebuild the declared filter for this round's
        # attendance with step S1's bookkeeping (missing ~ crashed, so n
        # and f both shrink) — sound exactly when every missing agent
        # really is one of the f faulty, which is the policy's declared
        # belief; a missing *honest* agent costs tolerance the round
        # still spends on the attending adversary.
        if self._aggregator_name is None:
            raise RuntimeError(
                "the shrink-n missing-value policy rebuilds the filter by "
                "registry name; pass the aggregator as a string or use "
                "missing_policy='masked'"
            )
        n_missing = self.n - n_received
        f_round = max(0, self.f - n_missing)
        # Attendance must outvote the shrunk tolerance (explicit, never
        # assumed): who among the received is faulty is unknowable here,
        # so only the counts are checked.
        validate_fault_count(f_round, self.n, 0, n_received=n_received)
        key = (n_received, f_round)
        aggregator = self._shrunk_cache.get(key)
        if aggregator is None:
            aggregator = make_aggregator(
                self._aggregator_name, n_received, f_round
            )
            self._shrunk_cache[key] = aggregator
        stacked = np.vstack([received[i] for i in sorted(received)])
        round.aggregates = aggregator.aggregate(stacked)

    def project(self, round: ProtocolRound) -> AsyncIterationRecord:
        """Equation-(21) update (or a recorded stall); append the record.

        The pre-projection candidate is screened first: a non-finite or
        diverged candidate quarantines the run and the estimate is held,
        so garbage never reaches the projection.
        """
        t = round.iteration
        frozen = bool(round.extras.get("frozen"))
        if frozen or round.aggregates is None:
            self.server.hold()  # time passes; the estimate holds
        else:
            eta = self.server.schedule(t)
            candidate = round.estimate - eta * round.aggregates
            reason = self.guard.screen(t, candidate)
            if reason is None:
                self.server.descend(round.aggregates)
            else:
                self._note_quarantine(t, reason)
                frozen = True
                round.aggregates = None
                self.server.hold()
        next_estimate = self.server.estimate.copy()
        self._history.append(next_estimate)
        record = AsyncIterationRecord(
            iteration=t,
            estimate=round.estimate,
            gradients=round.gradients,
            aggregate=round.aggregates,
            step_size=self.server.schedule(t),
            next_estimate=next_estimate,
            missing=round.extras["missing"],
            staleness={
                agent: t - view
                for agent, view in round.extras["views"].items()
            },
            delivered=round.extras["delivered"],
            quarantined=frozen,
        )
        self.trace.append(record)
        return record

    # -- run --------------------------------------------------------------
    def _run_result(self) -> AsynchronousTrace:
        return self.trace

    def run(self, iterations: int) -> AsynchronousTrace:
        """Run ``iterations`` rounds and return the accumulated trace."""
        return super().run(iterations)


def run_asynchronous(
    costs: Union[Sequence[CostFunction], CostStack],
    faulty_ids: Sequence[int],
    aggregator: Union[GradientAggregator, str],
    attack: Optional[ByzantineAttack],
    constraint: ConvexSet,
    schedule: StepSchedule,
    initial_estimate: Sequence[float],
    iterations: int,
    conditions: Sequence[NetworkCondition] = (),
    fault_schedule: Optional[FaultSchedule] = None,
    staleness_bound: int = 0,
    missing_policy: str = "shrink",
    seed: int = 0,
    omniscient_attack: Optional[bool] = None,
) -> AsynchronousTrace:
    """Convenience wrapper mirroring :func:`~repro.distsys.simulator.run_dgd`.

    ``f`` is the ground truth: the number of distinct agents the run ever
    faults (initially Byzantine, compromised later, or crashed).
    """
    schedule_faults = fault_schedule or FaultSchedule()
    fault_agents = set(int(i) for i in faulty_ids) | set(
        schedule_faults.fault_agents()
    )
    simulator = AsynchronousSimulator(
        costs=costs,
        aggregator=aggregator,
        constraint=constraint,
        schedule=schedule,
        f=len(fault_agents),
        initial_estimate=initial_estimate,
        attack=attack,
        faulty_ids=faulty_ids,
        conditions=conditions,
        fault_schedule=schedule_faults,
        staleness_bound=staleness_bound,
        missing_policy=missing_policy,
        omniscient_attack=omniscient_attack,
        seed=seed,
    )
    # Convenience runners report to the ambient recorder: a no-op
    # with the default NULL_RECORDER, a live stream under the CLI's
    # --telemetry-out / the orchestrator's worker recorders.
    return simulator.set_recorder(current_recorder()).run(iterations)
