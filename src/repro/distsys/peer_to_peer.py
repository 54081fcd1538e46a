"""Peer-to-peer simulation of the server-based algorithm (Section 1.4).

Every agent runs a local replica of the server: at each iteration each agent
broadcasts its gradient to all peers through the OM(f) Byzantine broadcast of
:mod:`repro.distsys.broadcast` (requiring ``f < n/3``), so all honest agents
agree on the full ``(n, d)`` gradient stack — Byzantine equivocation is
neutralized by the primitive.  Each honest agent then applies the same
deterministic gradient-filter and projected update locally, keeping every
honest replica's estimate identical, which is exactly the simulation argument
the paper invokes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..aggregators.base import GradientAggregator
from ..aggregators.registry import make_aggregator
from ..attacks.base import AttackContext, ByzantineAttack
from ..functions.base import CostFunction
from ..optim.projections import ConvexSet
from ..optim.schedules import StepSchedule
from ..aggregators.masked import aggregator_label
from ..health import (
    AGGREGATOR_REFUSED,
    QuarantineError,
    RunGuard,
    aggregation_round,
)
from .broadcast import BroadcastAdversary, EquivocatingAdversary, byzantine_broadcast
from .engine import (
    ProtocolEngine,
    ProtocolRound,
    validate_attack_plan,
    validate_faulty_ids,
    validate_initial_estimate,
)

__all__ = ["PeerToPeerSimulator"]


class PeerToPeerSimulator(ProtocolEngine):
    """Complete-network peer-to-peer robust DGD with Byzantine broadcast."""

    def __init__(
        self,
        costs: Sequence[CostFunction],
        faulty_ids: Sequence[int],
        aggregator: Union[GradientAggregator, str],
        constraint: ConvexSet,
        schedule: StepSchedule,
        initial_estimate: Sequence[float],
        attack: Optional[ByzantineAttack] = None,
        broadcast_adversary: Optional[BroadcastAdversary] = None,
        seed: int = 0,
        enforce_threshold: bool = True,
    ):
        self.n = len(costs)
        self.costs = list(costs)
        self.faulty = frozenset(validate_faulty_ids(faulty_ids, self.n))
        self.f = len(self.faulty)
        if enforce_threshold and self.f > 0 and self.n <= 3 * self.f:
            raise ValueError(
                f"peer-to-peer simulation requires f < n/3 "
                f"(got n={self.n}, f={self.f})"
            )
        validate_attack_plan(
            attack,
            len(self.faulty),
            # Omniscience is resolved at fabrication time here (the OM(f)
            # views are what the adversary sees); only the shared
            # faulty-without-attack and crash-style-silence checks apply.
            omniscient=True,
            full_attendance_engine="peer-to-peer engine's OM(f) broadcast",
        )
        self.attack = attack
        self.broadcast_adversary = broadcast_adversary or EquivocatingAdversary()
        if isinstance(aggregator, str):
            aggregator = make_aggregator(aggregator, self.n, self.f)
        self.aggregator = aggregator
        self.constraint = constraint
        self.schedule = schedule
        self.rng = np.random.default_rng(seed)
        start = constraint.project(validate_initial_estimate(initial_estimate))
        self.honest_ids: List[int] = [
            i for i in range(self.n) if i not in self.faulty
        ]
        #: per-honest-agent local replica of the estimate
        self.estimates: Dict[int, np.ndarray] = {
            i: start.copy() for i in self.honest_ids
        }
        self.iteration = 0
        self.guard = RunGuard()

    @property
    def quarantine(self) -> Optional[Dict[str, object]]:
        """``{"round", "reason"}`` when the run is frozen, else ``None``."""
        return self.guard.summary()

    def _note_quarantine(self, round_index: int, reason: str) -> None:
        """Announce a fresh quarantine on the telemetry stream."""
        if self.telemetry.enabled:
            self.telemetry.emit(
                "trial_quarantined",
                round=int(round_index),
                reason=reason,
                engine=type(self).__name__,
            )

    def _broadcast_gradients(
        self, outgoing: Dict[int, np.ndarray]
    ) -> Dict[int, Dict[int, np.ndarray]]:
        """Each agent's view of everyone's gradient after OM(f).

        Returns ``views[i][j]`` — what honest agent ``i`` decided agent
        ``j``'s gradient to be.
        """
        views: Dict[int, Dict[int, np.ndarray]] = {
            i: {} for i in self.honest_ids
        }
        for j in range(self.n):
            decided = byzantine_broadcast(
                n=self.n,
                commander=j,
                value=outgoing[j],
                traitors=sorted(self.faulty),
                rounds=self.f,
                adversary=self.broadcast_adversary,
                rng=self.rng,
            )
            for i in self.honest_ids:
                if i == j:
                    views[i][j] = outgoing[j]  # own value known directly
                else:
                    views[i][j] = decided[i]
        return views

    # -- protocol stages --------------------------------------------------
    def observe(self) -> ProtocolRound:
        """Each honest agent evaluates its local gradient at its replica."""
        # Honest replicas hold identical estimates; use any as the round's x_t.
        reference = self.estimates[self.honest_ids[0]]
        if self.guard.quarantined:
            # Frozen run: no gradients, no broadcast, no RNG consumption.
            return ProtocolRound(
                iteration=self.iteration,
                estimate=reference,
                gradients={},
                extras={"frozen": True},
            )
        outgoing: Dict[int, np.ndarray] = {}
        honest_grads: Dict[int, np.ndarray] = {}
        for i in self.honest_ids:
            grad = self.costs[i].gradient(self.estimates[i])
            outgoing[i] = grad
            honest_grads[i] = grad
        return ProtocolRound(
            iteration=self.iteration,
            estimate=reference,
            gradients=outgoing,
            extras={"honest_grads": honest_grads},
        )

    def fabricate(self, round: ProtocolRound) -> None:
        """Fabricate faulty gradients, then deliver everything through OM(f).

        Delivery belongs to the adversarial stage here: traitor nodes may
        equivocate while relaying, and it is the broadcast primitive — not
        honest bookkeeping — that forces one consistent view per sender.
        """
        if round.extras.get("frozen"):
            return
        outgoing = round.gradients
        if self.faulty:
            context = AttackContext(
                iteration=round.iteration,
                estimate=round.estimate,
                faulty_ids=sorted(self.faulty),
                true_gradients={
                    i: self.costs[i].gradient(round.estimate)
                    for i in self.faulty
                },
                honest_gradients=(
                    round.extras["honest_grads"]
                    if self.attack.requires_omniscience
                    else None
                ),
                rng=self.rng,
            )
            fabricated = self.attack.fabricate(context)
            for i in sorted(self.faulty):
                outgoing[i] = np.asarray(fabricated[i], dtype=float)
        round.views = self._broadcast_gradients(outgoing)

    def aggregate(self, round: ProtocolRound) -> None:
        """Every honest replica filters its agreed (n, d) stack locally.

        A strict filter's refusal of non-finite input quarantines the run
        — every replica would refuse the same agreed stack, so the whole
        (consistent) system freezes together.
        """
        if round.extras.get("frozen"):
            return
        try:
            with aggregation_round(
                round.iteration, aggregator_label(self.aggregator)
            ):
                round.aggregates = {
                    i: self.aggregator.aggregate(
                        np.vstack([round.views[i][j] for j in range(self.n)])
                    )
                    for i in self.honest_ids
                }
        except QuarantineError:
            self.guard.quarantine(round.iteration, AGGREGATOR_REFUSED)
            self._note_quarantine(round.iteration, AGGREGATOR_REFUSED)
            round.extras["frozen"] = True

    def project(self, round: ProtocolRound) -> None:
        """Identical deterministic projected update on every replica.

        Candidates are screened before the projection; a non-finite or
        diverged candidate freezes every replica at its current estimate
        (honest replicas are identical, so one screen decides for all).
        """
        if not round.extras.get("frozen"):
            eta = self.schedule(round.iteration)
            candidates = {
                i: self.estimates[i] - eta * round.aggregates[i]
                for i in self.honest_ids
            }
            reason = self.guard.screen(
                round.iteration, np.stack(list(candidates.values()))
            )
            if reason is None:
                for i in self.honest_ids:
                    self.estimates[i] = self.constraint.project(candidates[i])
            else:
                self._note_quarantine(round.iteration, reason)
        self.iteration += 1

    def _run_result(self) -> Dict[int, np.ndarray]:
        return {i: x.copy() for i, x in self.estimates.items()}

    def run(self, iterations: int) -> Dict[int, np.ndarray]:
        """Run ``iterations`` steps; returns the honest estimates."""
        return super().run(iterations)

    def consistency_gap(self) -> float:
        """Max distance between any two honest replicas' estimates.

        Zero (exactly) when the Byzantine-broadcast simulation is working:
        agreement makes every honest replica see identical inputs.
        """
        points = [self.estimates[i] for i in self.honest_ids]
        gap = 0.0
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                gap = max(gap, float(np.linalg.norm(points[a] - points[b])))
        return gap
