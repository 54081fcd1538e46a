"""Composable network conditions and fault-schedule timelines.

The synchronous engines assume the paper's lock-step round: every message
sent in round ``t`` is delivered in round ``t``.  This module describes the
ways a real deployment breaks that assumption, as data the asynchronous
engine (:mod:`repro.distsys.asynchronous`) can replay deterministically:

* :class:`NetworkCondition` — one aspect of link behaviour (a per-link
  delay distribution, an i.i.d. or bursty drop process, a straggler set
  with slowdown factors).  Conditions *compose*: the engine applies them in
  sequence to the round's per-agent delay vector and drop mask, so "uplink
  delays uniform on {0,1,2}, plus 10% i.i.d. loss, plus agent 3 running 4x
  slow" is just a list of three conditions.
* :class:`FaultSchedule` — a timeline of *agent* faults: crash-at-round,
  crash-and-recover, and Byzantine-from-round events.  Crash and Byzantine
  faults therefore compose in one run (an agent can crash, recover, and
  later be compromised).

Everything is deterministic given the engine's seed: conditions draw from a
dedicated network generator (separate from the attack's stream, so adding a
condition never perturbs an attack's fabrications), and they sample for all
``n`` agents every round regardless of crash state, keeping the stream's
consumption independent of the fault timeline.

**Whole-run pre-sampling.**  The engines do not call
:meth:`NetworkCondition.condition_round` round by round; they pre-sample a
whole run's delay/drop tensors up front through
:meth:`NetworkCondition.sample_run` (and :func:`sample_network_run`, which
composes a pipeline).  A condition samples its entire ``(rounds, n)`` block
in one vectorized draw, so the per-round per-link Python RNG calls of the
event loop disappear and the batched engine can pre-sample every trial of a
sweep.

**Chunk invariance.**  Every built-in condition's own :meth:`sample_run`
is *chunk-invariant*: splitting a run into multi-round chunks (continuous
``start``, same generator) reproduces the uncut whole-run realization bit
for bit.  The samplers consume the underlying bit stream one variate at a
time (``random``/``integers``/``geometric`` — capped geometric included),
and the stateful Gilbert–Elliott chain draws its randomness
round-interleaved and persists its burst state on the instance, so an
engine extending its horizon chunk by chunk sees exactly the realization a
whole-run pre-sample would have produced.
``tests/distsys/test_faults.py`` holds the property tests.

**Per-condition streams.**  Chunk invariance is a *per-generator*
property: a pipeline of two or more stochastic conditions sharing one
generator is consumed condition-major within each sampled chunk, so the
interleaving — and hence the realization — would depend on where the chunk
boundaries fall.  The engines therefore give every pipeline position its
own independent generator (:func:`network_streams`: position ``i`` draws
from ``default_rng((seed, _NET_TAG, i))``), which makes the composed
pipeline chunk-invariant too: each condition's stream advances with its
own draws only, wherever the chunks are cut.  :func:`sample_network_run`
accepts either one shared generator (legacy single-chunk callers) or one
generator per condition.
"""

from __future__ import annotations

import abc
import copy
import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

__all__ = [
    "DelaySampler",
    "fixed_delay",
    "uniform_delay",
    "geometric_delay",
    "NetworkCondition",
    "LinkDelay",
    "IIDDrop",
    "BurstyDrop",
    "Stragglers",
    "RECOVERY_MODES",
    "FaultEvent",
    "FaultSchedule",
    "network_streams",
    "sample_network_run",
]

#: Network-stream tag: the engines seed pipeline position ``i``'s network
#: generator as ``default_rng((seed, _NET_TAG, i))`` (see
#: :func:`network_streams`), so a batched trial replays the per-trial
#: realization bit for bit and chunked pre-sampling is bit-identical to
#: the uninterrupted whole-run pre-sample.
_NET_TAG = 0x6E6574


# -- delay distributions -------------------------------------------------------

#: Samples ``size`` non-negative integer round delays from a generator.
DelaySampler = Callable[[np.random.Generator, int], np.ndarray]


def fixed_delay(rounds: int) -> DelaySampler:
    """Every message takes exactly ``rounds`` extra rounds to arrive."""
    if not rounds >= 0:
        raise ValueError(
            f"fixed_delay rounds must be non-negative, got rounds={rounds!r}"
        )

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, int(rounds), dtype=int)

    return sample


def uniform_delay(low: int, high: int) -> DelaySampler:
    """Delays drawn uniformly from the integers ``low..high`` inclusive."""
    if not 0 <= low <= high:
        raise ValueError(
            f"uniform_delay needs 0 <= low <= high, got low={low!r}, "
            f"high={high!r}"
        )

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(int(low), int(high) + 1, size=size)

    return sample


def geometric_delay(p: float, cap: int = 64) -> DelaySampler:
    """Geometric delays (number of failures before success), capped.

    ``p`` is the per-round delivery probability; the cap keeps a single
    unlucky draw from stalling a bounded-staleness run forever.
    """
    if not 0 < p <= 1:
        raise ValueError(
            f"geometric_delay delivery probability p must be in (0, 1], "
            f"got p={p!r}"
        )
    if not cap >= 0:
        raise ValueError(
            f"geometric_delay cap must be non-negative, got cap={cap!r}"
        )

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        return np.minimum(rng.geometric(p, size=size) - 1, int(cap))

    return sample


# -- composable link conditions ------------------------------------------------

class NetworkCondition(abc.ABC):
    """One composable aspect of per-link behaviour.

    The asynchronous engine calls :meth:`begin_run` once, then
    :meth:`condition_round` every round with the per-agent ``delays``
    (int ``(n,)`` array of extra rounds before the server sees each
    agent's round-``t`` message) and ``dropped`` (bool ``(n,)`` mask);
    conditions refine both arrays in place, in registration order.
    """

    def begin_run(self, n: int, rng: np.random.Generator) -> None:
        """Reset any per-run state (burst chains, ...); default: none."""

    @abc.abstractmethod
    def condition_round(
        self,
        iteration: int,
        delays: np.ndarray,
        dropped: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Refine this round's per-agent delays and drop mask in place."""

    def sample_run(
        self,
        rng: np.random.Generator,
        n: int,
        rounds: int,
        delays: np.ndarray,
        dropped: np.ndarray,
        start: int = 0,
    ) -> None:
        """Refine a whole run's ``(rounds, n)`` delay/drop tensors in place.

        The pre-sampling fast path: subclasses draw their entire block in
        one vectorized call instead of ``rounds`` per-round calls.  ``start``
        is the absolute round index of row 0, so chunked extension (an
        engine stepping past its pre-sampled horizon) stays consistent with
        round-indexed behaviour.  The default falls back to the per-round
        hook, which keeps third-party conditions working unchanged —
        and makes a one-round chunk consume the stream exactly like the
        historical per-round path.
        """
        for k in range(rounds):
            self.condition_round(start + k, delays[k], dropped[k], rng)

    # -- resume support ----------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-able snapshot of the per-run state a resume must restore.

        The built-in conditions are stateless across rounds except the
        Gilbert–Elliott chain; the default returns an empty dict.  Engines
        checkpointing mid-run persist this next to their generator states
        and hand it back through :meth:`load_state` after
        :meth:`begin_run` on the restored instance.
        """
        return {}

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (after :meth:`begin_run`)."""
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but got state keys "
                f"{sorted(state)}"
            )

    def __repr__(self) -> str:
        params = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        inner = ", ".join(f"{k}={v!r}" for k, v in params.items())
        return f"{type(self).__name__}({inner})"


def _agent_mask(agents: Optional[Iterable[int]], n: int) -> np.ndarray:
    """Boolean selector for a condition's agent subset (default: all)."""
    if agents is None:
        return np.ones(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    ids = [int(i) for i in agents]
    bad = sorted(i for i in ids if not 0 <= i < n)
    if bad:
        raise ValueError(f"condition names agents {bad} outside range(n={n})")
    mask[ids] = True
    return mask


class LinkDelay(NetworkCondition):
    """Adds sampled delivery delays to the links of ``agents`` (default all)."""

    def __init__(
        self, sampler: DelaySampler, agents: Optional[Sequence[int]] = None
    ):
        self.sampler = sampler
        self.agents = None if agents is None else tuple(int(i) for i in agents)
        self._mask: Optional[np.ndarray] = None

    def begin_run(self, n: int, rng: np.random.Generator) -> None:
        self._mask = _agent_mask(self.agents, n)

    def condition_round(self, iteration, delays, dropped, rng) -> None:
        extra = np.asarray(self.sampler(rng, delays.shape[0]), dtype=int)
        if extra.shape != delays.shape or (extra < 0).any():
            raise ValueError(
                "delay sampler must return non-negative integers, one per agent"
            )
        delays += np.where(self._mask, extra, 0)

    def sample_run(self, rng, n, rounds, delays, dropped, start=0) -> None:
        # One flat draw of the whole block consumes the stream exactly like
        # ``rounds`` sequential per-round draws of size ``n``.
        extra = np.asarray(self.sampler(rng, rounds * n), dtype=int)
        if extra.shape != (rounds * n,) or (extra < 0).any():
            raise ValueError(
                "delay sampler must return non-negative integers, one per link"
            )
        delays += np.where(self._mask[None, :], extra.reshape(rounds, n), 0)


class IIDDrop(NetworkCondition):
    """Each message on the selected links is lost i.i.d. with ``rate``."""

    def __init__(self, rate: float, agents: Optional[Sequence[int]] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"IIDDrop rate must be in [0, 1], got rate={rate!r}"
            )
        self.rate = float(rate)
        self.agents = None if agents is None else tuple(int(i) for i in agents)
        self._mask: Optional[np.ndarray] = None

    def begin_run(self, n: int, rng: np.random.Generator) -> None:
        self._mask = _agent_mask(self.agents, n)

    def condition_round(self, iteration, delays, dropped, rng) -> None:
        draws = rng.random(dropped.shape[0]) < self.rate
        dropped |= draws & self._mask

    def sample_run(self, rng, n, rounds, delays, dropped, start=0) -> None:
        draws = rng.random((rounds, n)) < self.rate
        dropped |= draws & self._mask[None, :]


class BurstyDrop(NetworkCondition):
    """Gilbert–Elliott bursty loss: a two-state good/bad chain per link.

    Each selected link flips from *good* to *bad* with probability
    ``enter`` per round and back with probability ``exit``; messages sent
    while the link is bad are lost with probability ``rate_in_burst``
    (default: all of them).  This models correlated outages — the regime
    where i.i.d. loss is a bad approximation.
    """

    def __init__(
        self,
        enter: float,
        exit: float,
        rate_in_burst: float = 1.0,
        agents: Optional[Sequence[int]] = None,
    ):
        for name, p in (("enter", enter), ("exit", exit),
                        ("rate_in_burst", rate_in_burst)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"BurstyDrop {name} must be a probability in [0, 1], "
                    f"got {name}={p!r}"
                )
        self.enter = float(enter)
        self.exit = float(exit)
        self.rate_in_burst = float(rate_in_burst)
        self.agents = None if agents is None else tuple(int(i) for i in agents)
        self._mask: Optional[np.ndarray] = None
        self._in_burst: Optional[np.ndarray] = None

    def begin_run(self, n: int, rng: np.random.Generator) -> None:
        self._mask = _agent_mask(self.agents, n)
        self._in_burst = np.zeros(n, dtype=bool)  # every link starts good

    def condition_round(self, iteration, delays, dropped, rng) -> None:
        n = dropped.shape[0]
        flips = rng.random(n)
        entering = ~self._in_burst & (flips < self.enter)
        leaving = self._in_burst & (flips < self.exit)
        self._in_burst = (self._in_burst | entering) & ~leaving
        losses = rng.random(n) < self.rate_in_burst
        dropped |= self._in_burst & losses & self._mask

    def sample_run(self, rng, n, rounds, delays, dropped, start=0) -> None:
        # All randomness up front, drawn round-interleaved: row ``k`` of the
        # ``(rounds, 2, n)`` block is flips(n) then losses(n) — exactly the
        # per-round hook's consumption order, so *any* chunking of a run
        # (including the historical one-round chunks) reproduces the same
        # stream.  (A flips-block-then-losses-block layout would make the
        # realization depend on the chunk size — the pre-sampling drift bug.)
        # The Markov chain itself is a cheap boolean scan over rounds,
        # vectorized across the n links; the chain state persists on the
        # instance so chunked extension continues the same bursts.
        draws = rng.random((rounds, 2, n))
        losses = draws[:, 1, :] < self.rate_in_burst
        in_burst = self._in_burst
        for k in range(rounds):
            entering = ~in_burst & (draws[k, 0] < self.enter)
            leaving = in_burst & (draws[k, 0] < self.exit)
            in_burst = (in_burst | entering) & ~leaving
            dropped[k] |= in_burst & losses[k] & self._mask
        self._in_burst = in_burst

    def state_dict(self) -> Dict[str, object]:
        if self._in_burst is None:
            raise RuntimeError("begin_run must run before state_dict")
        return {"in_burst": self._in_burst.astype(bool).tolist()}

    def load_state(self, state: Dict[str, object]) -> None:
        self._in_burst = np.asarray(state["in_burst"], dtype=bool)


class Stragglers(NetworkCondition):
    """A straggler set: agents whose round-trips run ``slowdown``-times slow.

    A slowdown of ``k`` stretches the agent's effective message latency to
    ``ceil(k * (delay + 1)) - 1`` rounds — so a straggler is slow even on a
    zero-delay network (compute time dominates), and a slowdown of 1 is a
    no-op.  Apply *after* the delay conditions it should scale.
    """

    def __init__(self, slowdown: Dict[int, float]):
        if not slowdown:
            raise ValueError("Stragglers slowdown set is empty")
        for agent, factor in slowdown.items():
            # ``not >=`` (rather than ``<``) also rejects NaN factors,
            # which would otherwise turn every delay into garbage.
            if not (math.isfinite(factor) and factor >= 1.0):
                raise ValueError(
                    f"Stragglers slowdown for agent {agent} must be a "
                    f"finite factor >= 1, got slowdown[{agent}]={factor!r}"
                )
        self.slowdown = {int(a): float(s) for a, s in slowdown.items()}
        self._factors: Optional[np.ndarray] = None

    def begin_run(self, n: int, rng: np.random.Generator) -> None:
        _agent_mask(self.slowdown, n)  # range-check the ids
        self._factors = np.ones(n)
        for agent, factor in self.slowdown.items():
            self._factors[agent] = factor

    def condition_round(self, iteration, delays, dropped, rng) -> None:
        stretched = np.ceil(self._factors * (delays + 1.0)) - 1.0
        delays[:] = stretched.astype(int)

    def sample_run(self, rng, n, rounds, delays, dropped, start=0) -> None:
        stretched = np.ceil(self._factors[None, :] * (delays + 1.0)) - 1.0
        delays[:] = stretched.astype(int)


# -- fault-schedule timelines --------------------------------------------------

#: Crash-recovery models: ``"reset"`` rejoins from the current broadcast
#: estimate; ``"warm"`` restores the agent's last pre-crash local state.
RECOVERY_MODES = ("reset", "warm")


@dataclass(frozen=True)
class FaultEvent:
    """One agent-fault on the timeline.

    ``kind`` is ``"crash"`` (the agent stops sending from round ``start``,
    resuming at ``end`` if set) or ``"byzantine"`` (the agent is compromised
    from round ``start`` onward — compromise does not end).

    ``recovery`` (crash events with a recovery round only) picks the
    restart model: ``"reset"`` — the recovering agent re-fetches the
    current broadcast estimate before its first post-recovery dispatch;
    ``"warm"`` — the agent restarts from its persisted pre-crash local
    state, so its recovery-round dispatch is evaluated at the *last
    broadcast it saw before crashing* (round ``start - 1``; the initial
    estimate for a round-0 crash) and only re-synchronizes with the
    broadcast from the following round.
    """

    kind: str
    agent: int
    start: int
    end: Optional[int] = None
    recovery: str = "reset"

    def __post_init__(self):
        if self.kind not in ("crash", "byzantine"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.agent < 0:
            raise ValueError("agent id must be non-negative")
        if self.start < 0:
            raise ValueError("fault rounds must be non-negative")
        if self.kind == "byzantine" and self.end is not None:
            raise ValueError("byzantine compromise does not end")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"recovery round {self.end} must follow crash round {self.start}"
            )
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {self.recovery!r}; "
                f"known: {', '.join(RECOVERY_MODES)}"
            )
        if self.recovery == "warm" and (
            self.kind != "crash" or self.end is None
        ):
            raise ValueError(
                "warm recovery needs a crash event with a recovery round"
            )


class FaultSchedule:
    """An immutable timeline of crash and Byzantine-from-round events.

    Built fluently — each method returns a *new* schedule, so a base
    timeline can be shared across sweep cells::

        schedule = (FaultSchedule()
                    .crash(3, at=10, recover_at=25)
                    .byzantine(0, from_round=40))
    """

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: Tuple[FaultEvent, ...] = tuple(events)

    def crash(
        self,
        agent: int,
        at: int,
        recover_at: Optional[int] = None,
        recovery: str = "reset",
    ) -> "FaultSchedule":
        """Agent ``agent`` sends nothing during ``[at, recover_at)``.

        ``recovery`` picks the restart model when ``recover_at`` is set:
        ``"reset"`` (historical behaviour) rejoins from the current
        broadcast estimate; ``"warm"`` restores the agent's last pre-crash
        local state, so its recovery-round message is evaluated at the
        stale iterate it held when it went down (see :class:`FaultEvent`).
        """
        event = FaultEvent("crash", int(agent), int(at),
                           None if recover_at is None else int(recover_at),
                           recovery=str(recovery))
        return FaultSchedule(self.events + (event,))

    def byzantine(self, agent: int, from_round: int = 0) -> "FaultSchedule":
        """Agent ``agent`` is compromised from ``from_round`` onward."""
        event = FaultEvent("byzantine", int(agent), int(from_round))
        return FaultSchedule(self.events + (event,))

    def validate(self, n: int) -> "FaultSchedule":
        """Range-check every event against a system of ``n`` agents."""
        bad = sorted({e.agent for e in self.events if not 0 <= e.agent < n})
        if bad:
            raise ValueError(f"fault schedule names agents {bad} outside range(n={n})")
        compromised = [e.agent for e in self.events if e.kind == "byzantine"]
        duplicates = sorted({a for a in compromised if compromised.count(a) > 1})
        if duplicates:
            raise ValueError(
                f"agents {duplicates} have multiple byzantine events; "
                "compromise is permanent, declare it once"
            )
        return self

    # -- queries the engine makes every round -----------------------------
    def crashed_mask(self, iteration: int, n: int) -> np.ndarray:
        """Boolean ``(n,)`` mask of agents crashed (not sending) at ``t``."""
        mask = np.zeros(n, dtype=bool)
        for event in self.events:
            if event.kind != "crash":
                continue
            if event.start <= iteration and (
                event.end is None or iteration < event.end
            ):
                mask[event.agent] = True
        return mask

    def sample_run(
        self,
        rng: Optional[np.random.Generator],
        n: int,
        rounds: int,
        start: int = 0,
    ) -> np.ndarray:
        """Dense ``(rounds, n)`` *active* mask (True = the agent sends).

        The whole-run counterpart of per-round :meth:`crashed_mask` calls:
        row ``k`` covers absolute round ``start + k``.  The timeline is
        deterministic, so ``rng`` is unused — the parameter keeps the
        pre-sampling signature uniform with :class:`NetworkCondition`.
        """
        active = np.ones((rounds, n), dtype=bool)
        for event in self.events:
            if event.kind != "crash":
                continue
            lo = max(event.start - start, 0)
            hi = rounds if event.end is None else min(event.end - start, rounds)
            if lo < hi:
                active[lo:hi, event.agent] = False
        return active

    def warm_restart_views(self) -> Dict[Tuple[int, int], int]:
        """Warm-recovery dispatch views: ``(agent, recovery round) -> view``.

        For every crash event with ``recovery="warm"``, the recovering
        agent's dispatch at its recovery round is evaluated at the last
        broadcast it saw before crashing — round ``start - 1`` (clamped to
        the initial estimate for a round-0 crash).  Overlapping warm
        windows sharing a recovery round keep the *stalest* view (the
        earliest crash wins: that is when the local state was persisted).
        Engines consult this map at dispatch time; a round where the agent
        is still crashed (an overlapping window) simply never dispatches.
        """
        views: Dict[Tuple[int, int], int] = {}
        for event in self.events:
            if event.kind != "crash" or event.recovery != "warm":
                continue
            assert event.end is not None  # enforced by FaultEvent
            key = (event.agent, event.end)
            view = max(event.start - 1, 0)
            views[key] = min(views.get(key, view), view)
        return views

    def compromised_since(self) -> Dict[int, int]:
        """Earliest compromise round per Byzantine agent."""
        since: Dict[int, int] = {}
        for event in self.events:
            if event.kind == "byzantine":
                since[event.agent] = min(
                    since.get(event.agent, math.inf), event.start
                )
        return {agent: int(start) for agent, start in since.items()}

    def fault_agents(self) -> Tuple[int, ...]:
        """Every agent the timeline faults (crash or compromise), sorted."""
        return tuple(sorted({e.agent for e in self.events}))

    def __repr__(self) -> str:
        return f"FaultSchedule(events={list(self.events)!r})"


def network_streams(seed: int, count: int) -> List[np.random.Generator]:
    """One independent network generator per pipeline position.

    Position ``i`` draws from ``default_rng((seed, _NET_TAG, i))``.  Every
    engine derives its condition streams through this helper, so the
    batched engines replay the per-trial engines bit for bit — and because
    each condition owns its stream, the composed pipeline inherits the
    per-condition chunk-invariance contract: pre-sampling ``[0, T)`` in
    any chunking (including a checkpoint/resume split) yields the same
    realization as one whole-run draw.
    """
    return [
        np.random.default_rng((int(seed), _NET_TAG, index))
        for index in range(count)
    ]


def sample_network_run(
    conditions: Sequence[NetworkCondition],
    rng: Union[np.random.Generator, Sequence[np.random.Generator]],
    n: int,
    rounds: int,
    start: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-sample a condition pipeline's whole-run delay/drop tensors.

    Applies every condition's :meth:`NetworkCondition.sample_run` in
    registration order to fresh ``(rounds, n)`` accumulators and returns
    ``(delays, dropped)``.  Callers own the conditions' lifecycle: call
    :meth:`NetworkCondition.begin_run` once per run *before* the first
    chunk, and keep ``start``/``rng`` continuous across chunks.

    ``rng`` is either one generator per condition (the engines' form,
    normally built by :func:`network_streams` — chunk-invariant for any
    pipeline) or a single shared generator (consumed condition-major
    within the chunk; chunk-invariant only while at most one condition
    draws from it).
    """
    if isinstance(rng, np.random.Generator):
        rngs: Sequence[np.random.Generator] = [rng] * len(conditions)
    else:
        rngs = list(rng)
        if len(rngs) != len(conditions):
            raise ValueError(
                f"sample_network_run got {len(rngs)} generators for "
                f"{len(conditions)} conditions; pass one per condition "
                "(see network_streams) or a single shared generator"
            )
    delays = np.zeros((rounds, n), dtype=int)
    dropped = np.zeros((rounds, n), dtype=bool)
    for condition, stream in zip(conditions, rngs):
        condition.sample_run(stream, n, rounds, delays, dropped, start=start)
    return delays, dropped


class _TrialNetworks:
    """Every trial's own network realisation, pre-sampled chunk by chunk.

    The batched asynchronous and fused graph engines each own one.  Trial
    ``s`` replays the per-trial engines' realisation over ``widths[s]``
    links (its uplinks, or its topology's directed edges) from its tagged
    :func:`network_streams`, and every chunk continues the streams and the
    per-run condition state where the previous one stopped, so any
    chunking of a run — a checkpoint/resume split, or the fused engine's
    bounded blocks, included — samples the uninterrupted realisation bit
    for bit.  The engine keeps its own ``(rounds, S, W)`` tensors (whole
    run, or one block): :meth:`sample` fills only the rounds a chunk adds,
    and no second tensor is held here.
    """

    def __init__(self, trials: Sequence, widths: Sequence[int]):
        self._trials = list(trials)
        self._widths = [int(w) for w in widths]
        #: rounds ``[0, horizon)`` are sampled (after a restore: consumed)
        self.horizon = 0
        self._conditions: Optional[List[Tuple[NetworkCondition, ...]]] = None
        self._streams: Optional[List[List[np.random.Generator]]] = None

    def _begin(self) -> None:
        """Engine-owned condition copies on fresh tagged streams.

        Per-run chain state (the Gilbert–Elliott burst mask) must persist
        across chunks *per trial*, so trials that share condition
        instances cannot share that state: each gets deep copies.
        """
        self._conditions = [
            copy.deepcopy(tuple(trial.conditions)) for trial in self._trials
        ]
        self._streams = [
            network_streams(trial.seed, len(conditions))
            for trial, conditions in zip(self._trials, self._conditions)
        ]
        for conditions, streams, width in zip(
            self._conditions, self._streams, self._widths
        ):
            for condition, stream in zip(conditions, streams):
                condition.begin_run(width, stream)

    def sample(
        self,
        stop: int,
        delays: np.ndarray,
        dropped: np.ndarray,
        offset: int = 0,
    ) -> None:
        """Sample rounds ``[horizon, stop)`` into the engine's tensors.

        Row ``r`` of the ``(rounds, S, W)`` ``delays`` and ``dropped`` is
        absolute round ``offset + r``: trial ``s`` fills rows
        ``[horizon - offset, stop - offset)`` of ``[:, s, :widths[s]]``;
        wider (padding) columns keep whatever the engine put there.
        """
        if self._conditions is None:
            self._begin()
        start = self.horizon
        rows = slice(start - offset, stop - offset)
        for index, width in enumerate(self._widths):
            chunk_delays, chunk_dropped = sample_network_run(
                self._conditions[index],
                self._streams[index],
                width,
                stop - start,
                start=start,
            )
            delays[rows, index, :width] = chunk_delays
            dropped[rows, index, :width] = chunk_dropped
        self.horizon = stop

    def state_dict(self, iteration: int) -> Dict[str, object]:
        """The streams' and conditions' snapshot at a chunk boundary.

        The streams are consumed through :attr:`horizon`, so a snapshot is
        only stream-consistent where ``iteration == horizon`` — exactly at
        the end of a ``run()`` chunk.
        """
        if self._conditions is None:
            raise RuntimeError(
                "state_dict needs a begun run: call run() first"
            )
        if iteration != self.horizon:
            raise RuntimeError(
                f"state_dict snapshots chunk boundaries only: the engine "
                f"is at round {iteration} with a pre-sampled horizon of "
                f"{self.horizon}, and the network stream cannot be "
                "rewound — checkpoint exactly at the end of a run() chunk"
            )
        return {
            "net_rng_states": [
                [rng.bit_generator.state for rng in streams]
                for streams in self._streams
            ],
            "condition_states": [
                [condition.state_dict() for condition in conditions]
                for conditions in self._conditions
            ],
        }

    def load_state(self, state: Dict[str, object], iteration: int) -> None:
        """Restore a :meth:`state_dict` snapshot taken at ``iteration``."""
        count = len(self._trials)
        for name in ("net_rng_states", "condition_states"):
            if len(state[name]) != count:
                raise ValueError(
                    f"state holds {len(state[name])} {name} entries but "
                    f"the engine has {count} trials"
                )
        for trial, condition_states, stream_states in zip(
            self._trials, state["condition_states"], state["net_rng_states"]
        ):
            if len(condition_states) != len(trial.conditions):
                raise ValueError(
                    f"state holds {len(condition_states)} condition states "
                    f"for a trial with {len(trial.conditions)} conditions"
                )
            if len(stream_states) != len(trial.conditions):
                raise ValueError(
                    f"state holds {len(stream_states)} network-stream "
                    f"states for a trial with {len(trial.conditions)} "
                    "conditions"
                )
        self._begin()
        for conditions, streams, condition_states, stream_states in zip(
            self._conditions,
            self._streams,
            state["condition_states"],
            state["net_rng_states"],
        ):
            for condition, condition_state in zip(
                conditions, condition_states
            ):
                condition.load_state(condition_state)
            for rng, rng_state in zip(streams, stream_states):
                rng.bit_generator.state = rng_state
        self.horizon = iteration
