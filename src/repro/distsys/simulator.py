"""Synchronous simulation of the DGD method of Section 4.1.

The simulator drives the server and the agents through iterations of the
two-step loop (S1 request/reply with elimination of silent agents, S2
filtered projected update), fabricating Byzantine replies through a
:class:`~repro.attacks.base.ByzantineAttack` and recording a full
:class:`~repro.distsys.trace.ExecutionTrace`.

The loop itself is the shared protocol core of
:class:`~repro.distsys.engine.ProtocolEngine`: this engine is its
server-based configuration — *observe* collects replies and applies step
S1's elimination rule, *fabricate* substitutes the attack's gradients,
*aggregate* applies the server's gradient-filter and *project* performs the
equation-(21) update and records the iteration.

This in-process simulator replaces the paper's MPI deployment; determinism
comes from a single seeded generator shared by the attack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..aggregators.base import GradientAggregator
from ..aggregators.masked import aggregator_label
from ..attacks.base import AttackContext, ByzantineAttack
from ..optim.projections import ConvexSet
from ..optim.schedules import StepSchedule
from ..telemetry.recorder import current_recorder
from ..health import (
    AGGREGATOR_REFUSED,
    DEFAULT_DIVERGENCE_THRESHOLD,
    QuarantineError,
    RunGuard,
    aggregation_round,
)
from .agents import Agent, ByzantineAgent, HonestAgent
from .engine import (
    ProtocolEngine,
    ProtocolRound,
    validate_attack_plan,
    validate_fault_count,
    validate_faulty_ids,
)
from .messages import GradientRequest, Silence
from .server import RobustServer
from .trace import ExecutionTrace, IterationRecord

__all__ = ["SynchronousSimulator", "run_dgd"]


class SynchronousSimulator(ProtocolEngine):
    """Round-based driver for robust distributed gradient descent."""

    def __init__(
        self,
        agents: Sequence[Agent],
        aggregator: Union[GradientAggregator, str],
        constraint: ConvexSet,
        schedule: StepSchedule,
        f: int,
        initial_estimate: Sequence[float],
        attack: Optional[ByzantineAttack] = None,
        omniscient_attack: Optional[bool] = None,
        seed: int = 0,
        divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    ):
        ids = [a.agent_id for a in agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        self.agents: Dict[int, Agent] = {a.agent_id: a for a in agents}
        self.active_ids: List[int] = sorted(self.agents)
        byzantine = [a for a in agents if a.is_byzantine]
        validate_fault_count(f, len(agents), len(byzantine))
        self.attack = attack
        self.omniscient_attack = validate_attack_plan(
            attack, len(byzantine), omniscient_attack
        )
        self.rng = np.random.default_rng(seed)
        self.server = RobustServer(
            initial_estimate=np.asarray(initial_estimate, dtype=float),
            aggregator=aggregator,
            constraint=constraint,
            schedule=schedule,
            n=len(agents),
            f=f,
        )
        self.trace = ExecutionTrace()
        self.guard = RunGuard(divergence_threshold)

    @property
    def iteration(self) -> int:
        """Current iteration index (mirrors the server's counter)."""
        return self.server.iteration

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
        """S1: request replies, collect honest gradients, eliminate silent."""
        t = self.server.iteration
        estimate_before = self.server.estimate.copy()
        if self.guard.quarantined:
            # Frozen run: no requests, no elimination, no RNG consumption —
            # the round only appends a held record to the trace.
            return ProtocolRound(
                iteration=t,
                estimate=estimate_before,
                gradients={},
                extras={"frozen": True},
            )
        request = GradientRequest(iteration=t, estimate=estimate_before)

        honest_replies: Dict[int, np.ndarray] = {}
        live_byzantine: List[ByzantineAgent] = []
        silent: List[int] = []
        for agent_id in list(self.active_ids):
            agent = self.agents[agent_id]
            if isinstance(agent, ByzantineAgent):
                # Crash-style silence comes from the agent's own cutoff or
                # from the attack behaviour (e.g. the registry's "crash").
                if agent.is_silent(t) or (
                    self.attack is not None
                    and self.attack.silences(agent_id, t)
                ):
                    silent.append(agent_id)
                else:
                    live_byzantine.append(agent)
                continue
            reply = agent.handle_request(request)
            if isinstance(reply, Silence):
                silent.append(agent_id)
            else:
                honest_replies[agent_id] = reply.gradient

        eliminated = self.server.eliminate_silent(silent)
        for agent_id in eliminated:
            self.active_ids.remove(agent_id)
        return ProtocolRound(
            iteration=t,
            estimate=estimate_before,
            gradients=dict(honest_replies),
            eliminated=eliminated,
            extras={
                "honest_replies": honest_replies,
                "live_byzantine": live_byzantine,
            },
        )

    def fabricate(self, round: ProtocolRound) -> None:
        """Substitute the attack's gradients for the live Byzantine agents."""
        if round.extras.get("frozen"):
            return
        live_byzantine: List[ByzantineAgent] = round.extras["live_byzantine"]
        if not live_byzantine:
            return
        honest_replies = round.extras["honest_replies"]
        context = AttackContext(
            iteration=round.iteration,
            estimate=round.estimate,
            faulty_ids=[a.agent_id for a in live_byzantine],
            true_gradients={
                a.agent_id: a.true_gradient(round.estimate)
                for a in live_byzantine
            },
            honest_gradients=(
                dict(honest_replies) if self.omniscient_attack else None
            ),
            rng=self.rng,
        )
        fabricated = self.attack.fabricate(context)
        missing = set(context.faulty_ids) - set(fabricated)
        if missing:
            raise RuntimeError(
                f"attack produced no gradient for agents {sorted(missing)}"
            )
        for agent_id in context.faulty_ids:
            round.gradients[agent_id] = np.asarray(
                fabricated[agent_id], dtype=float
            )

    def aggregate(self, round: ProtocolRound) -> None:
        """S2 (first half): apply the server's gradient-filter.

        A strict filter's typed refusal of non-finite input quarantines
        the run (reason ``aggregator_refused``) instead of crashing it;
        the estimate freezes at its pre-update value.
        """
        if round.extras.get("frozen"):
            return
        try:
            with aggregation_round(
                round.iteration, aggregator_label(self.server.aggregator)
            ):
                round.aggregates = self.server.filter_gradients(round.gradients)
        except QuarantineError:
            self.guard.quarantine(round.iteration, AGGREGATOR_REFUSED)
            self._note_quarantine(round.iteration, AGGREGATOR_REFUSED)
            round.extras["frozen"] = True

    def project(self, round: ProtocolRound) -> IterationRecord:
        """S2 (second half): projected update; record the iteration.

        The pre-projection candidate is screened first: a non-finite or
        diverged candidate quarantines the run and the estimate is held,
        so garbage never reaches the projection.
        """
        frozen = bool(round.extras.get("frozen"))
        if not frozen:
            eta = self.server.schedule(round.iteration)
            candidate = round.estimate - eta * round.aggregates
            reason = self.guard.screen(round.iteration, candidate)
            if reason is None:
                self.server.descend(round.aggregates)
            else:
                self._note_quarantine(round.iteration, reason)
                frozen = True
        if frozen:
            self.server.hold()
        record = IterationRecord(
            iteration=round.iteration,
            estimate=round.estimate,
            gradients=round.gradients,
            aggregate=(
                np.zeros_like(round.estimate) if frozen else round.aggregates
            ),
            step_size=self.server.schedule(round.iteration),
            next_estimate=self.server.estimate.copy(),
            eliminated=round.eliminated,
            quarantined=frozen,
        )
        self.trace.append(record)
        return record

    # -- run --------------------------------------------------------------
    def _run_result(self) -> ExecutionTrace:
        return self.trace

    def run(self, iterations: int) -> ExecutionTrace:
        """Run ``iterations`` steps and return the accumulated trace."""
        return super().run(iterations)

    @property
    def estimate(self) -> np.ndarray:
        """The server's current estimate."""
        return self.server.estimate.copy()


def run_dgd(
    costs: Sequence,
    faulty_ids: Sequence[int],
    aggregator: Union[GradientAggregator, str],
    attack: Optional[ByzantineAttack],
    constraint: ConvexSet,
    schedule: StepSchedule,
    initial_estimate: Sequence[float],
    iterations: int,
    seed: int = 0,
    omniscient_attack: Optional[bool] = None,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> ExecutionTrace:
    """Convenience wrapper: build agents from costs and run the loop.

    ``costs[i]`` is agent ``i``'s local cost; agents listed in ``faulty_ids``
    become Byzantine with that cost as their attack reference.  ``f`` is set
    to ``len(faulty_ids)`` — the simulation's ground truth, which the server
    is told (as in the paper, ``f`` is a known system parameter).
    """
    faulty = set(validate_faulty_ids(faulty_ids, len(costs)))
    agents: List[Agent] = []
    for i, cost in enumerate(costs):
        if i in faulty:
            agents.append(ByzantineAgent(i, reference_cost=cost))
        else:
            agents.append(HonestAgent(i, cost))
    simulator = SynchronousSimulator(
        agents=agents,
        aggregator=aggregator,
        constraint=constraint,
        schedule=schedule,
        f=len(faulty),
        initial_estimate=initial_estimate,
        attack=attack,
        omniscient_attack=omniscient_attack,
        seed=seed,
        divergence_threshold=divergence_threshold,
    )
    # Convenience runners report to the ambient recorder: a no-op
    # with the default NULL_RECORDER, a live stream under the CLI's
    # --telemetry-out / the orchestrator's worker recorders.
    return simulator.set_recorder(current_recorder()).run(iterations)
