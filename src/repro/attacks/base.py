"""Byzantine fault-behaviour abstraction.

A Byzantine agent "may send arbitrary incorrect vectors as their gradients to
the server" (Section 4).  Attacks in this package model that freedom: at each
iteration the simulator hands the attack an :class:`AttackContext` describing
everything a worst-case adversary may know — the current estimate, the true
gradients of the compromised agents, and (for *omniscient* attacks) the
honest agents' gradients — and receives one fabricated gradient per faulty
agent.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = [
    "AttackContext",
    "BatchAttackContext",
    "DecentralizedAttackContext",
    "ByzantineAttack",
]


@dataclass
class AttackContext:
    """Everything an adversary can observe at one iteration.

    Attributes:
        iteration: current iteration index ``t``.
        estimate: the broadcast estimate ``x_t``, shape ``(d,)``.
        faulty_ids: ids of the compromised agents, ascending.
        true_gradients: each faulty agent's *correct* gradient at ``x_t``
            (what the agent would send if honest), keyed by agent id.
        honest_gradients: honest agents' gradients keyed by id — only
            populated for omniscient attacks.
        rng: deterministic per-run random generator.
        view_rounds: timeline context (asynchronous engine only) — the
            round whose iterate each message in play was evaluated at, so
            ``iteration - view_rounds[i]`` is message ``i``'s staleness.
            ``None`` under the synchronous engines (everything is fresh).
        compromised_since: timeline context (asynchronous engine only) —
            the round each faulty agent was compromised at, for attacks
            that ramp up after takeover.  ``None`` under the synchronous
            engines (compromise is from round 0).
    """

    iteration: int
    estimate: np.ndarray
    faulty_ids: Sequence[int]
    true_gradients: Dict[int, np.ndarray]
    honest_gradients: Optional[Dict[int, np.ndarray]] = None
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    view_rounds: Optional[Dict[int, int]] = None
    compromised_since: Optional[Dict[int, int]] = None

    def staleness(self, agent_id: int) -> int:
        """Rounds between message ``agent_id``'s view and now (0 = fresh)."""
        if self.view_rounds is None:
            return 0
        return int(self.iteration) - int(self.view_rounds[agent_id])

    @property
    def dim(self) -> int:
        """Dimension of the optimization variable."""
        return int(np.asarray(self.estimate).shape[0])

    def honest_stack(self) -> np.ndarray:
        """Honest gradients as an ``(h, d)`` array (omniscient attacks only)."""
        if self.honest_gradients is None:
            raise RuntimeError(
                "attack requires omniscient access to honest gradients; "
                "enable it on the simulator"
            )
        if not self.honest_gradients:
            raise RuntimeError(
                "no honest message is observable this round; an omniscient "
                "attack needs at least one honest gradient"
            )
        ids = sorted(self.honest_gradients)
        return np.vstack([self.honest_gradients[i] for i in ids])


@dataclass
class BatchAttackContext:
    """Adversary observables for ``S`` lockstep trials of a batched sweep.

    The batch engine (:class:`~repro.distsys.batch.BatchSimulator`) runs the
    same system under ``S`` independent trials; this context carries the
    per-trial observables as stacked tensors.  Row order inside
    ``honest_gradients`` follows ``honest_ids`` ascending, matching the
    id-sorted :meth:`AttackContext.honest_stack` of the per-trial path.

    Attributes:
        iteration: current iteration index ``t`` (shared by all trials).
        estimates: the broadcast estimates, shape ``(S, d)``.
        faulty_ids: ids of the compromised agents, ascending.
        true_gradients: correct gradients of the compromised agents at each
            trial's estimate, shape ``(S, F, d)`` with columns ordered like
            ``faulty_ids``.
        honest_gradients: honest agents' gradients, shape ``(S, H, d)`` —
            only populated for omniscient attacks.
        honest_ids: ids labelling the columns of ``honest_gradients``.
        rngs: one deterministic generator per trial (the trial's seed).
        view_rounds: timeline context (batched asynchronous engine only) —
            ``(S, F)`` round indices whose iterate each faulty message was
            evaluated at, columns ordered like ``faulty_ids``.  ``None``
            under the synchronous engines (everything is fresh).
        compromised_since: timeline context (batched asynchronous engine
            only) — ``(S, F)`` rounds each faulty agent was compromised
            at.  ``None`` under the synchronous engines.
    """

    iteration: int
    estimates: np.ndarray
    faulty_ids: Sequence[int]
    true_gradients: np.ndarray
    honest_gradients: Optional[np.ndarray] = None
    honest_ids: Optional[Sequence[int]] = None
    rngs: Sequence[np.random.Generator] = ()
    view_rounds: Optional[np.ndarray] = None
    compromised_since: Optional[np.ndarray] = None

    @property
    def trials(self) -> int:
        """Number of lockstep trials ``S``."""
        return int(np.asarray(self.estimates).shape[0])

    @property
    def dim(self) -> int:
        """Dimension of the optimization variable."""
        return int(np.asarray(self.estimates).shape[1])

    def honest_stacks(self) -> np.ndarray:
        """Honest gradients as ``(S, H, d)`` (omniscient attacks only)."""
        if self.honest_gradients is None:
            raise RuntimeError(
                "attack requires omniscient access to honest gradients; "
                "enable it on the simulator"
            )
        return self.honest_gradients

    def trial_context(self, s: int) -> AttackContext:
        """The per-trial :class:`AttackContext` of trial ``s``."""
        honest = None
        if self.honest_gradients is not None:
            assert self.honest_ids is not None
            honest = {
                hid: self.honest_gradients[s, j]
                for j, hid in enumerate(self.honest_ids)
            }
        return AttackContext(
            iteration=self.iteration,
            estimate=self.estimates[s],
            faulty_ids=list(self.faulty_ids),
            true_gradients={
                fid: self.true_gradients[s, j]
                for j, fid in enumerate(self.faulty_ids)
            },
            honest_gradients=honest,
            rng=self.rngs[s],
            view_rounds=(
                None
                if self.view_rounds is None
                else {
                    fid: int(self.view_rounds[s, j])
                    for j, fid in enumerate(self.faulty_ids)
                }
            ),
            compromised_since=(
                None
                if self.compromised_since is None
                else {
                    fid: int(self.compromised_since[s, j])
                    for j, fid in enumerate(self.faulty_ids)
                }
            ),
        )


@dataclass
class DecentralizedAttackContext:
    """Adversary observables in the decentralized (sparse-graph) setting.

    Without a broadcast primitive there is no single estimate and no forced
    consistency: every agent holds its own iterate and a Byzantine agent may
    send a *different* fabrication along every outgoing edge.  This context
    therefore extends the batched observables with the communication
    structure: who each compromised agent can reach, and every agent's
    current iterate.

    Attributes:
        iteration: current iteration index ``t`` (shared by all trials).
        reference_estimates: a representative honest iterate per trial,
            shape ``(S, d)`` — equal to the shared iterate whenever the
            honest agents are in lockstep (e.g. on the complete graph).
        agent_estimates: every agent's own iterate, shape ``(S, n, d)``.
        faulty_ids: ids of the compromised agents, ascending.
        true_gradients: correct gradients of the compromised agents at
            their *own* estimates, shape ``(S, F, d)``.
        honest_gradients: honest agents' gradients, shape ``(S, H, d)`` —
            only populated for omniscient attacks.
        honest_ids: ids labelling the columns of ``honest_gradients``.
        receivers: boolean ``(F, n)`` delivery mask — ``receivers[j, i]``
            means faulty agent ``faulty_ids[j]``'s message reaches agent
            ``i`` (closed out-neighborhood, so self-delivery is included).
        rngs: one deterministic generator per trial.
    """

    iteration: int
    reference_estimates: np.ndarray
    agent_estimates: np.ndarray
    faulty_ids: Sequence[int]
    true_gradients: np.ndarray
    honest_gradients: Optional[np.ndarray] = None
    honest_ids: Optional[Sequence[int]] = None
    receivers: Optional[np.ndarray] = None
    rngs: Sequence[np.random.Generator] = ()

    @property
    def trials(self) -> int:
        """Number of lockstep trials ``S``."""
        return int(np.asarray(self.reference_estimates).shape[0])

    @property
    def dim(self) -> int:
        """Dimension of the optimization variable."""
        return int(np.asarray(self.reference_estimates).shape[1])

    @property
    def agents(self) -> int:
        """Total number of agents ``n``."""
        return int(np.asarray(self.agent_estimates).shape[1])

    def broadcast_context(self) -> BatchAttackContext:
        """The broadcast-equivalent :class:`BatchAttackContext`.

        Used by the default per-edge fabrication: an attack without an edge
        strategy behaves as if it broadcast one fabrication to its whole
        out-neighborhood, consuming its generators exactly as it would under
        the batched server engine.
        """
        return BatchAttackContext(
            iteration=self.iteration,
            estimates=self.reference_estimates,
            faulty_ids=list(self.faulty_ids),
            true_gradients=self.true_gradients,
            honest_gradients=self.honest_gradients,
            honest_ids=(
                None if self.honest_ids is None else list(self.honest_ids)
            ),
            rngs=self.rngs,
        )


class ByzantineAttack(abc.ABC):
    """A rule for fabricating faulty gradients each iteration."""

    #: short registry name, e.g. ``"gradient_reverse"``
    name: str = "abstract"

    #: whether the attack needs honest agents' gradients
    requires_omniscience: bool = False

    #: whether :meth:`silences` can ever return True.  Engines that run a
    #: full-attendance lockstep (the batch, peer-to-peer and decentralized
    #: engines) cannot represent a missing message and must reject such
    #: attacks loudly instead of silently fabricating for a crashed agent.
    may_be_silent: bool = False

    @abc.abstractmethod
    def fabricate(self, context: AttackContext) -> Dict[int, np.ndarray]:
        """Gradient to send for every faulty agent id in the context."""

    def silences(self, agent_id: int, iteration: int) -> bool:
        """Whether compromised agent ``agent_id`` sends *nothing* at ``t``.

        Crash-style faults override this; the simulators consult it before
        collecting a compromised agent's message (a silenced agent is
        eliminated by step S1 in the synchronous engine, and counted
        missing by the asynchronous engine's missing-value policy).
        Attacks with ``may_be_silent = False`` must leave it False.
        """
        return False

    def fabricate_batch(self, context: BatchAttackContext) -> np.ndarray:
        """Fabrications for all trials at once, shape ``(S, F, d)``.

        Column ``j`` holds the gradient sent by ``context.faulty_ids[j]``.
        The base implementation replays :meth:`fabricate` per trial —
        consuming each trial's generator exactly as the per-trial simulator
        would — so every attack works under the batch engine; vectorizable
        attacks override it with one tensor expression.
        """
        faulty = list(context.faulty_ids)
        out = np.empty((context.trials, len(faulty), context.dim))
        for s in range(context.trials):
            fabricated = self.fabricate(context.trial_context(s))
            missing = set(faulty) - set(fabricated)
            if missing:
                raise RuntimeError(
                    f"attack produced no gradient for agents {sorted(missing)}"
                )
            for j, fid in enumerate(faulty):
                out[s, j] = np.asarray(fabricated[fid], dtype=float)
        return out

    def fabricate_edges(self, context: DecentralizedAttackContext) -> np.ndarray:
        """Per-edge fabrications for the decentralized engine: ``(S, F, n, d)``.

        Entry ``[s, j, i]`` is what faulty agent ``context.faulty_ids[j]``
        sends to agent ``i`` in trial ``s``; the engine only delivers entries
        where ``context.receivers`` has an edge.  The base implementation
        *broadcasts*: one :meth:`fabricate_batch` fabrication per faulty
        agent, tiled across all receivers — so every existing attack works
        on sparse graphs unchanged.  Equivocating attacks override this to
        send different vectors along different edges.
        """
        broadcast = np.asarray(
            self.fabricate_batch(context.broadcast_context()), dtype=float
        )
        shape = (
            context.trials,
            len(context.faulty_ids),
            context.agents,
            context.dim,
        )
        return np.broadcast_to(broadcast[:, :, None, :], shape)

    def __repr__(self) -> str:
        params = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        inner = ", ".join(f"{k}={v!r}" for k, v in params.items())
        return f"{type(self).__name__}({inner})"
