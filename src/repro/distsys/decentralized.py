"""Decentralized robust DGD over an arbitrary communication graph.

The companion works to the source paper — "Byzantine Fault-Tolerance in
Peer-to-Peer Distributed Gradient-Descent" (arXiv:2101.12316) and
"Byzantine Fault-Tolerance in Decentralized Optimization under Minimal
Redundancy" (arXiv:2009.14763) — drop the trusted server *and* the complete
network: each agent ``i`` holds its own iterate ``x_i``, evaluates its local
gradient at ``x_i``, and hears only its in-neighborhood on a
:class:`~repro.distsys.topology.CommunicationTopology`.  Every honest agent
then takes the decentralized robust-DGD step those works pair together:

1. **consensus** — a trimmed-mean mix of its closed neighborhood's
   iterates (trim = the trial's fault count; plain averaging when
   fault-free), which drives honest agents toward agreement, and
2. **descent** — a *neighborhood-wise* gradient-filter over the ``k``
   gradient messages it received (own message included), applied from the
   mixed point through the projected update.

``mixing=False`` disables step 1 for ablations (each agent then descends
its filtered neighborhood gradients from its own iterate and honest agents
generally settle into persistent disagreement on sparse graphs).

This engine executes that protocol for ``S`` lockstep trials entirely as
tensor programs on the :class:`~repro.distsys.batch.BatchSimulator` kernel
layer — no per-agent Python inner loop:

* observation is one ``gradients_each`` einsum, ``(S, n, d)``;
* fabrication is per-edge: attacks receive a
  :class:`~repro.attacks.base.DecentralizedAttackContext` and may
  equivocate (different vectors on different out-edges), since no broadcast
  primitive forces consistency here;
* aggregation gathers the ``(S, n, k, d)`` closed-neighborhood stacks and
  runs either the standard ``aggregate_batch`` kernels with agents folded
  into the batch axis (regular topologies) or the masked kernels of
  :mod:`repro.aggregators.masked` (irregular topologies);
* the projected update applies to all ``S * n`` iterates at once.

On the **complete graph** every closed neighborhood is the full agent set,
so each honest agent's filtered update coincides with the server's — the
engine-equivalence suite pins complete-graph runs to
:class:`~repro.distsys.simulator.SynchronousSimulator` trajectories at
1e-9 across aggregator × attack × seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..aggregators.masked import (
    aggregator_label,
    degree_grouped_kernel_for,
    masked_kernel_for,
)
from ..aggregators.trimmed_mean import trimmed_mean_batch
from ..attacks.base import DecentralizedAttackContext
from ..backend import xp
from ..functions.base import CostFunction
from ..functions.batched import CostStack, stack_costs
from ..optim.projections import ConvexSet
from ..optim.schedules import StepSchedule
from ..telemetry.recorder import current_recorder
from ..health import (
    AGGREGATOR_REFUSED,
    TrialGuard,
    aggregation_round,
    nonfinite_rows,
)
from .batch import (
    BatchTrial,
    _IterateTrace,
    _config_key,
    group_indices,
    normalize_trace_rounds,
)
from .engine import (
    ProtocolEngine,
    ProtocolRound,
    validate_attack_plan,
    validate_faulty_ids,
    validate_initial_estimate,
)
from .topology import CommunicationTopology

__all__ = [
    "DecentralizedTrace",
    "DecentralizedSimulator",
    "run_decentralized",
]


#: Element budget of one pairwise-difference block in the consensus-gap
#: reductions (a float64 block of 128 MiB).
_PAIRWISE_BLOCK = 1 << 24


def _max_pairwise_distance(points: np.ndarray) -> np.ndarray:
    """Max pairwise distance over the agents of ``(T, G, h, d)``: ``(T, G)``.

    The pairwise difference tensor is ``(T, G, h, h, d)``, so it is built
    in blocks of at most :data:`_PAIRWISE_BLOCK` elements: whole rounds
    while one round fits, else one round at a time in chunks of the first
    agent axis, with the max taken over chunks.  Each block squares in
    place and reduces exactly as ``np.linalg.norm(diffs, axis=-1)`` does,
    so every distance is the same float in any blocking and the result is
    bit-identical to the one-shot norm reduction.
    """
    t, g, h, d = points.shape
    rows = max(1, _PAIRWISE_BLOCK // max(1, g * h * d))
    rounds, agents = max(1, rows // h), min(h, rows)
    out = np.empty((t, g))
    for start in range(0, t, rounds):
        chunk = points[start : start + rounds]
        best = None
        for a in range(0, h, agents):
            diffs = chunk[:, :, a : a + agents, None, :] - chunk[:, :, None]
            np.multiply(diffs, diffs, out=diffs)
            gap = np.sqrt(np.add.reduce(diffs, axis=4)).max(axis=(2, 3))
            del diffs  # freed before the next block is built
            best = gap if best is None else np.maximum(best, gap)
        out[start : start + rounds] = best
    return out


@dataclass
class DecentralizedTrace:
    """Lazy trace of a decentralized execution.

    ``estimates`` stacks every agent's trajectory: shape ``(T + 1, S, n, d)``.
    """

    estimates: np.ndarray                   # (K, S, n, d); K = T + 1 dense
    step_sizes: np.ndarray                  # (T, S)
    honest_ids: List[Tuple[int, ...]]       # per trial
    labels: List[str] = field(default_factory=list)
    #: quarantine records ``{"trial", "round", "reason"}`` of frozen trials
    #: (reasons from :data:`repro.health.QUARANTINE_REASONS`); a frozen
    #: trial's agents all hold at their last healthy iterates.
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    #: absolute round of each stored snapshot under a windowed
    #: ``trace_rounds`` run; ``None`` = every round ``0..T`` is stored.
    rounds: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        """Number of completed iterations ``T``."""
        if self.rounds is not None:
            return int(self.rounds[-1])
        return self.estimates.shape[0] - 1

    @property
    def stored_rounds(self) -> np.ndarray:
        """Absolute round of each stored snapshot, shape ``(K,)``."""
        if self.rounds is not None:
            return self.rounds
        return np.arange(self.estimates.shape[0])

    @property
    def trials(self) -> int:
        """Batch width ``S``."""
        return self.estimates.shape[1]

    @property
    def agents(self) -> int:
        """Number of agents ``n``."""
        return self.estimates.shape[2]

    def _honest_groups(self) -> List[Tuple[List[int], np.ndarray]]:
        """Trials grouped by honest set, so per-trial reductions vectorize.

        Sweep traces repeat one honest set across hundreds of trials; a
        grouped gather turns the per-trial Python loop into one tensor
        reduction per distinct set without changing any float (the same
        norms reduce over the same elements).
        """
        order: Dict[Tuple[int, ...], List[int]] = {}
        for trial, honest in enumerate(self.honest_ids):
            order.setdefault(tuple(honest), []).append(trial)
        return [
            (list(honest), np.asarray(trials, dtype=int))
            for honest, trials in order.items()
        ]

    def consensus_gap(
        self, rounds: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Max pairwise honest-iterate distance per trial/iteration, ``(S, T+1)``.

        The decentralized analogue of the peer-to-peer consistency check:
        on the complete graph it stays exactly zero; on sparse graphs it
        measures how far the honest agents are from agreement.  ``rounds``
        restricts the reduction to those snapshot indices (``(S,
        len(rounds))``) — reports that only need the final iterate pass
        ``rounds=[-1]`` instead of reducing the whole trajectory.  Under a
        windowed ``trace_rounds`` run the indices address the *stored*
        snapshots; map absolute rounds through :attr:`stored_rounds`.
        """
        estimates = (
            self.estimates
            if rounds is None
            else self.estimates[np.asarray(rounds, dtype=int)]
        )
        t_sel, s, _, _ = estimates.shape
        gaps = np.empty((s, t_sel))
        for honest, trials in self._honest_groups():
            points = estimates[:, trials][:, :, honest, :]
            gaps[trials] = _max_pairwise_distance(points).T
        return gaps

    def component_consensus_gaps(
        self, components: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        """Per-component honest consensus gap series, ``(S, T + 1)`` each.

        ``components`` is a partition of the agents (typically
        :meth:`~repro.distsys.topology.CommunicationTopology.connected_components`).
        On a disconnected graph the *global* :meth:`consensus_gap` mixes
        agents that can never hear each other — a meaningless number; this
        restricts the max-pairwise-honest-distance to each component.  A
        component whose honest intersection is a singleton reports ``0.0``
        (nothing to disagree with); one with no honest agent reports
        ``nan``.
        """
        t_plus_1, s, _, _ = self.estimates.shape
        gaps: List[np.ndarray] = []
        for component in components:
            members = set(int(i) for i in component)
            out = np.zeros((s, t_plus_1))
            for trial in range(s):
                honest = [i for i in self.honest_ids[trial] if i in members]
                if not honest:
                    out[trial] = np.nan
                    continue
                points = self.estimates[:, trial, honest, :]
                out[trial] = _max_pairwise_distance(points[:, None])[:, 0]
            gaps.append(out)
        return gaps

    def distances_to(
        self,
        target: Sequence[float],
        rounds: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Honest convergence radius per trial/iteration, ``(S, T + 1)``.

        The radius is ``max_{i honest} ||x_i^t - target||`` — the quantity
        the decentralized convergence statements bound.  ``rounds``
        restricts the reduction to those snapshot indices, as in
        :meth:`consensus_gap`.
        """
        tgt = np.asarray(target, dtype=float)
        estimates = (
            self.estimates
            if rounds is None
            else self.estimates[np.asarray(rounds, dtype=int)]
        )
        t_sel, s, _, _ = estimates.shape
        radii = np.empty((s, t_sel))
        for honest, trials in self._honest_groups():
            points = estimates[:, trials][:, :, honest, :]
            radii[trials] = np.linalg.norm(points - tgt, axis=3).max(axis=2).T
        return radii


@dataclass
class _DelayTrace(DecentralizedTrace):
    """The gossip-under-delay record both delay engines' traces share:
    which agents stalled, how many directed edges carried a usable
    message, and how stale the usable deliveries ran."""

    stalled: np.ndarray = field(default=None)              # (T, S, n) bool
    usable_edge_counts: np.ndarray = field(default=None)   # (T, S)
    staleness_sums: np.ndarray = field(default=None)       # (T, S)

    def stalled_agent_rounds(self) -> np.ndarray:
        """Total (agent, round) stalls per trial, ``(S,)``."""
        return self.stalled.sum(axis=(0, 2))

    def staleness_profile(self) -> np.ndarray:
        """Per-trial per-round mean staleness of the usable edges, ``(S, T)``.

        Rounds with no usable edge contribute ``nan`` (reduce with
        ``np.nanmean``), matching the asynchronous traces.
        """
        counts = self.usable_edge_counts.T.astype(float)
        with np.errstate(invalid="ignore"):
            return np.where(
                counts > 0, self.staleness_sums.T / counts, np.nan
            )


# -- one topology's full-attendance neighbourhood program ---------------------
#
# The synchronous graph engine and the fused delay engine's fully-attended
# trials run these functions, so their exact paths are one float program;
# the per-trial delay engine reuses them where its semantics coincide.

def _check_connected(
    topology: CommunicationTopology, allow_disconnected: bool
) -> None:
    """Fail at construction on a disconnected graph (or warn, if allowed).

    A disconnected graph (e.g. ``erdos_renyi_topology`` with
    ``require_connected=False``) makes the global consensus gap and the
    decentralized convergence statements meaningless across components.
    """
    if topology.is_connected():
        return
    message = (
        f"topology {topology.name!r} is disconnected: honest agents "
        "in different components can never agree, so the global "
        "consensus_gap() and convergence radius are meaningless"
    )
    if not allow_disconnected:
        raise ValueError(
            message + "; pass allow_disconnected=True to run anyway "
            "and analyse components separately"
        )
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _check_consensus_trim(topology: CommunicationTopology, trim: int) -> None:
    """Fail at construction, not mid-run: a consensus trim level must
    leave at least one iterate per closed neighborhood."""
    smallest = int(topology.closed_in_degrees.min())
    if smallest - 2 * trim < 1:
        raise ValueError(
            f"closed in-degree {smallest} cannot support "
            f"consensus trimming at f={trim}"
        )


def _self_slots(neighbor_index: np.ndarray) -> np.ndarray:
    """Position of each agent's own message in its padded neighborhood."""
    own = neighbor_index == np.arange(neighbor_index.shape[0])[:, None]
    return np.argmax(own, axis=1)


def _edge_attack_groups(trials, faulty, omniscient, topology_of, topologies):
    """Per-edge fabrication groups of a graph engine's trials.

    Trial ``s`` runs on ``topologies[topology_of[s]]``.  Trials group by
    (attack configuration, faulty set, omniscience, topology) — the
    scatter indices and the delivery mask an equivocating attack observes
    are graph properties.  Each group is ``(attack, faulty, honest,
    omniscient, idx, (rows, slots, columns), receivers)``: slot
    ``slots[m]`` of receiver ``rows[m]``'s gathered neighborhood carries
    faulty column ``columns[m]``, and ``receivers`` is
    :func:`closed_out_mask`.  Trials without an attack or a faulty agent
    form no group.
    """
    groups = []
    for rep, idx in group_indices(
        len(trials),
        lambda index: (
            _config_key(trials[index].attack),
            faulty[index],
            omniscient[index],
            topology_of[index],
        ),
    ):
        attack = trials[rep].attack
        if attack is None or not faulty[rep]:
            continue
        topology = topologies[topology_of[rep]]
        ids = np.array(faulty[rep])
        excluded = set(faulty[rep])
        honest = np.array([i for i in range(topology.n) if i not in excluded])
        index, mask = topology.neighborhoods()
        rows, slots = np.nonzero(mask & np.isin(index, ids))
        column_of = {int(fid): c for c, fid in enumerate(ids)}
        columns = np.array(
            [column_of[int(index[r, sl])] for r, sl in zip(rows, slots)],
            dtype=int,
        )
        groups.append(
            (
                attack,
                ids,
                honest,
                omniscient[rep],
                idx,
                (rows, slots, columns),
                closed_out_mask(topology, ids),
            )
        )
    return groups


def _edge_fabrications(
    engine, attack, faulty, honest, omniscient, receivers, live,
    round_index: int, gradients,
) -> np.ndarray:
    """One group's per-edge fabrications, ``(L, F, n, d)``.

    The live trials ``live`` each consume one draw sequence of their own
    generator; the attack observes the current iterates and gradients.
    Attacks are plain-NumPy plugin code, so context observables cross
    the backend boundary as base arrays.
    """
    context = DecentralizedAttackContext(
        iteration=round_index,
        reference_estimates=xp.to_numpy(
            engine.estimates[np.ix_(live, honest[:1])][:, 0]
        ),
        agent_estimates=xp.to_numpy(engine.estimates[live]),
        faulty_ids=faulty.tolist(),
        true_gradients=xp.to_numpy(gradients[np.ix_(live, faulty)]),
        honest_gradients=(
            xp.to_numpy(gradients[np.ix_(live, honest)])
            if omniscient
            else None
        ),
        honest_ids=honest.tolist(),
        receivers=receivers,
        rngs=[engine.rngs[i] for i in live],
    )
    fabricated = np.asarray(attack.fabricate_edges(context), dtype=float)
    expected = (live.size, faulty.size, engine.n, engine.d)
    if fabricated.shape != expected:
        raise RuntimeError(
            f"attack {attack.name!r} returned shape {fabricated.shape},"
            f" expected {expected}"
        )
    return fabricated


def _exact_kernels(
    aggregator, topology: CommunicationTopology, d: int
) -> Tuple[Optional[Callable], Optional[Callable]]:
    """``(kernel, grouped)``: a filter's full-attendance path on a graph.

    Regular graphs fold the agents into ``aggregate_batch``'s batch axis
    (``(None, None)``).  Irregular graphs take the degree-grouped dense
    dispatch (``grouped``), with the masked kernel as the fallback.
    The chosen path is probed once, so a filter built for the full system
    (n-derived parameters) that cannot fit the closed neighborhoods it
    actually aggregates fails at construction, not mid-run.
    """
    index, mask = topology.neighborhoods()
    n, k = index.shape
    if topology.is_regular:
        try:
            aggregator.aggregate_batch(np.zeros((1, k, d)))
        except ValueError as error:
            raise ValueError(
                f"aggregator {aggregator.name!r} cannot aggregate "
                f"the size-{k} closed neighborhoods of "
                f"topology {topology.name!r}: {error}"
            ) from error
        return None, None
    kernel = masked_kernel_for(aggregator)
    if kernel is None:
        raise ValueError(
            f"aggregator {aggregator.name!r} has no masked "
            "neighborhood kernel; irregular topologies support "
            "mean, cwtm, median, cge and cge_mean"
        )
    grouped = degree_grouped_kernel_for(aggregator, mask)
    try:
        if grouped is not None:
            grouped(np.zeros((1, n, k, d)))
        else:
            kernel(np.zeros((1, n, k, d)), mask)
    except ValueError as error:
        raise ValueError(
            f"aggregator {aggregator.name!r} cannot aggregate "
            f"the neighborhoods of topology {topology.name!r}: {error}"
        ) from error
    return kernel, grouped


def _filter_neighborhoods(aggregator, kernel, grouped, views, mask):
    """One filter group's exact aggregation of full ``(S_g, n, k, d)``
    neighborhood stacks along :func:`_exact_kernels`' path: ``(S_g, n, d)``."""
    if kernel is None:
        s, n, k, d = views.shape
        return aggregator.aggregate_batch(
            views.reshape(s * n, k, d)
        ).reshape(s, n, d)
    if grouped is not None:
        return grouped(views)
    return kernel(views, mask)


def _mix_neighborhoods(views, trim: int, buckets):
    """Exact trimmed-mean consensus of full ``(S_g, n, k, d)`` closed
    neighborhoods at trim level ``trim``: ``(S_g, n, d)``.

    ``buckets`` is ``None`` on a regular graph, whose agents fold into the
    batch axis.  On an irregular one it is the topology's
    ``degree_groups()``: each closed-in-degree bucket's prefix slice of
    the padded gather is dense, so the folded trimmed mean applies
    without the widest-pad masked kernel.
    """
    s, n, k, d = views.shape
    if buckets is None:
        return trimmed_mean_batch(
            views.reshape(s * n, k, d), trim
        ).reshape(s, n, d)
    mixed = xp.empty((s, n, d))
    for degree, ids in buckets:
        dense = views[:, ids, :degree, :].reshape(s * ids.size, degree, d)
        mixed[:, ids] = trimmed_mean_batch(dense, trim).reshape(
            s, ids.size, d
        )
    return mixed


def _refuse_nonfinite_views(
    engine, aggregator, idx, views, valid, round_index: int
) -> None:
    """Quarantine the trials of ``idx`` whose strict filter faces a
    non-finite slot it would aggregate.

    Mirrors the batched server engine's pre-check: a live trial is
    refused (``aggregator_refused``, frozen at its pre-update iterates)
    exactly when a slot of its ``views`` is non-finite and — when
    ``valid`` (``(S, n, k)``) is given — valid.  The refused trials'
    views are zeroed so the shared kernel call stays warning-free; their
    outputs are discarded by the hold.
    """
    if not aggregator.quarantines_on_nonfinite:
        return
    live = engine.guard.live(idx)
    if not live.size:
        return
    bad = nonfinite_rows(views[live])                   # (L, n, k)
    if valid is not None:
        bad = bad & valid[live]
    refused = bad.any(axis=(1, 2))
    if refused.any():
        fresh = engine.guard.quarantine(
            live[refused], round_index, AGGREGATOR_REFUSED
        )
        engine._note_quarantined(fresh, round_index, AGGREGATOR_REFUSED)
        views[live[refused]] = 0.0


def closed_out_mask(
    topology: CommunicationTopology, faulty: np.ndarray
) -> np.ndarray:
    """Closed out-neighborhood delivery mask per faulty agent, ``(F, n)``.

    Row ``c`` marks ``faulty[c]`` (ascending ids) and every agent that
    receives its messages, read off the topology's edge list: O(n + E),
    with no dense adjacency.
    """
    senders, receivers, _ = topology.directed_edges()
    sent = np.isin(senders, faulty)
    mask = np.zeros((faulty.size, topology.n), dtype=bool)
    mask[np.searchsorted(faulty, senders[sent]), receivers[sent]] = True
    mask[np.arange(faulty.size), faulty] = True
    return mask


class DecentralizedSimulator(ProtocolEngine):
    """Run ``S`` decentralized DGD trials over one topology in lockstep."""

    #: Engines that cannot represent a missing message reject
    #: crash-capable attacks; the delay-tolerant subclass can, and clears
    #: this label to accept them.
    _full_attendance_engine: Optional[str] = "decentralized engine"

    def __init__(
        self,
        costs: Union[Sequence[CostFunction], CostStack],
        topology: CommunicationTopology,
        trials: Sequence[BatchTrial],
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
        self.topology = topology
        self.n = self.stack.n
        self.d = self.stack.dim
        if topology.n != self.n:
            raise ValueError(
                f"topology covers {topology.n} agents but {self.n} costs given"
            )
        _check_connected(topology, allow_disconnected)
        self.trials: List[BatchTrial] = list(trials)
        self.constraint = constraint

        self.neighbor_index, self.neighbor_mask = topology.neighborhoods()
        self.k = int(self.neighbor_index.shape[1])
        self.uniform = topology.is_regular
        # Irregular graphs mix per closed-in-degree bucket (see
        # _mix_neighborhoods): only odd-degree buckets pay extra.
        self._degree_buckets = (
            None if self.uniform else topology.degree_groups()
        )
        # Per-role (S, n, k, d) gather buffers, reused every round.
        self._workspaces: Dict[str, np.ndarray] = {}

        default_initial = validate_initial_estimate(initial_estimate, self.d)
        starts = []
        self.rngs: List[np.random.Generator] = []
        self._schedules: List[StepSchedule] = []
        self._faulty: List[Tuple[int, ...]] = []
        self._omniscient: List[bool] = []
        for trial in self.trials:
            faulty = validate_faulty_ids(trial.faulty_ids, self.n)
            if len(faulty) >= self.n:
                raise ValueError("at least one agent must be honest")
            omniscient = validate_attack_plan(
                trial.attack,
                len(faulty),
                trial.omniscient_attack,
                full_attendance_engine=self._full_attendance_engine,
            )
            self._faulty.append(faulty)
            self._omniscient.append(bool(omniscient))
            start = (
                default_initial
                if trial.initial_estimate is None
                else validate_initial_estimate(trial.initial_estimate, self.d)
            )
            starts.append(start)
            self.rngs.append(np.random.default_rng(trial.seed))
            self._schedules.append(trial.schedule or schedule)

        # Every agent starts from the trial's initial estimate: (S, n, d).
        tiled = np.repeat(np.stack(starts)[:, None, :], self.n, axis=1)
        self.estimates = self._project_all(tiled)
        self.iteration = 0
        self.guard = TrialGuard(len(self.trials))
        # ``trace_rounds`` switches the (T + 1, S, n, d) trajectory to the
        # windowed mode: only the planned rounds (plus 0 and the horizon)
        # are stored — essential at large n, where the dense trajectory
        # dominates the run's memory.
        self._trace_plan = normalize_trace_rounds(trace_rounds)

        self._attack_groups = _edge_attack_groups(
            self.trials,
            self._faulty,
            self._omniscient,
            [0] * len(self.trials),
            [topology],
        )
        self._aggregator_groups = [
            (
                self.trials[rep].aggregator,
                *_exact_kernels(self.trials[rep].aggregator, topology, self.d),
                idx,
            )
            for rep, idx in group_indices(
                len(self.trials),
                lambda index: _config_key(self.trials[index].aggregator),
            )
        ]
        self._mixing_groups = []
        if self.mixing:
            for rep, idx in group_indices(
                len(self.trials), lambda index: len(self._faulty[index])
            ):
                _check_consensus_trim(topology, len(self._faulty[rep]))
                self._mixing_groups.append((len(self._faulty[rep]), idx))
        self._schedule_groups = [
            (self._schedules[rep], idx)
            for rep, idx in group_indices(
                len(self.trials),
                lambda index: _config_key(self._schedules[index]),
            )
        ]
        #: ``(T, S)`` step sizes, filled per run (``_grow_step_sizes``)
        self._etas = np.empty((0, len(self.trials)))

    # -- helpers ----------------------------------------------------------
    def _gather_neighborhoods(self, values: np.ndarray, role: str) -> np.ndarray:
        """``values[:, neighbor_index, :]``, ``(S, n, k, d)``, in a reused buffer.

        These gathers are the round's largest arrays.  Writing each role's
        gather into one buffer kept across rounds, instead of a fresh
        multi-megabyte block per round, spares the allocator the
        map/unmap and heap-trim churn that otherwise costs page faults on
        every large-n round.  The indices are in range by construction, so
        ``mode="clip"`` changes no value; it skips the bounce buffer NumPy
        fills before writing ``out`` in its default mode.
        """
        buffer = self._workspaces.get(role)
        if buffer is None:
            buffer = xp.empty((len(self.trials), self.n, self.k, self.d))
            self._workspaces[role] = buffer
        return xp.take(
            values, self.neighbor_index, axis=1, out=buffer, mode="clip"
        )

    def _trial_rows(self, array: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``array[idx]``, without the copy when ``idx`` is every trial."""
        return array if idx.size == len(self.trials) else array[idx]

    # -- protocol stages --------------------------------------------------
    def observe(self) -> ProtocolRound:
        """Every agent's local gradient at its own iterate: one einsum.

        Quarantined trials are masked out of the einsum — their rows stay
        zero placeholders that no later stage reads.
        """
        if self.guard.any_quarantined:
            s = len(self.trials)
            gradients = xp.zeros((s, self.n, self.d))
            live = self.guard.active
            gradients[live] = self.stack.gradients_each(self.estimates[live])
        else:
            gradients = self.stack.gradients_each(self.estimates)  # (S, n, d)
        return ProtocolRound(iteration=self.iteration, gradients=gradients)

    def fabricate(self, round: ProtocolRound) -> None:
        """Gather neighborhoods, then let each attack rewrite its edges.

        Each group's index set is intersected with the guard's active
        mask, so frozen trials neither consume their attack stream nor
        receive fabrications — their neighborhoods stay honest and finite.
        """
        gradients = round.gradients
        # (S, n, k, d): slot order is ascending sender id per receiver.
        neighborhoods = self._gather_neighborhoods(gradients, "gradients")
        for (
            attack,
            faulty,
            honest,
            omniscient,
            idx,
            scatter,
            receivers,
        ) in self._attack_groups:
            live = self.guard.live(idx)
            if live.size == 0:
                continue
            fabricated = _edge_fabrications(
                self, attack, faulty, honest, omniscient, receivers,
                live, round.iteration, gradients,
            )
            rows, slots, columns = scatter
            neighborhoods[live[:, None], rows[None, :], slots[None, :]] = (
                fabricated[:, columns, rows]
            )
        round.views = neighborhoods

    def aggregate(self, round: ProtocolRound) -> None:
        """Neighborhood-wise filtering: folded or masked batch kernels."""
        self._screen_strict_views(round.views, round.iteration)
        round.aggregates = self._aggregate_views(round.views, round.iteration)
        if self.mixing:
            round.extras["mix"] = self._mix_neighborhoods(
                self._gather_neighborhoods(self.estimates, "estimates")
            )

    def _screen_strict_views(
        self, views: np.ndarray, round_index: int
    ) -> None:
        """Refuse strict filters facing non-finite slots (masked kernels
        read the neighborhood mask's slots only)."""
        full = np.broadcast_to(self.neighbor_mask, views.shape[:3])
        for aggregator, kernel, _grouped, idx in self._aggregator_groups:
            _refuse_nonfinite_views(
                self,
                aggregator,
                idx,
                views,
                None if kernel is None else full,
                round_index,
            )

    def _aggregate_views(
        self, views: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Run every trial's filter over its ``(S, n, k, d)`` neighborhoods.

        The caller has already screened ``views`` for the strict filters
        (:meth:`_screen_strict_views`), once per round.
        """
        updates = xp.empty((len(self.trials), self.n, self.d))
        for aggregator, kernel, grouped, idx in self._aggregator_groups:
            with aggregation_round(round_index, aggregator_label(aggregator)):
                updates[idx] = _filter_neighborhoods(
                    aggregator,
                    kernel,
                    grouped,
                    self._trial_rows(views, idx),  # (S_g, n, k, d)
                    self.neighbor_mask,
                )
        return updates

    def _mix_neighborhoods(self, neighborhoods: np.ndarray) -> np.ndarray:
        """Consensus step: trimmed mean of each closed neighborhood's iterates.

        The decentralized convergence statements pair robust gradient
        aggregation with an iterate-averaging (consensus) step — without it
        honest agents descend toward *different* neighborhood-local fixed
        points and never agree.  Trim level is each trial's fault count, so
        fault-free trials mix with the plain neighborhood mean (classic
        DGD consensus).  All agents — Byzantine included — are mixed from
        the iterates the engine tracks; the adversary here attacks the
        gradient channel (per-edge estimate fabrication is not modelled).
        """
        mixed = xp.empty_like(self.estimates)
        for trim, idx in self._mixing_groups:
            views = self._trial_rows(neighborhoods, idx)
            mixed[idx] = _mix_neighborhoods(views, trim, self._degree_buckets)
        return mixed

    def project(self, round: ProtocolRound) -> np.ndarray:
        """Projected update on all ``S * n`` iterates at once.

        Pre-projection candidates are screened per trial: a trial with a
        non-finite or diverged candidate (any agent) freezes all its
        agents at their pre-update iterates, and every frozen trial is
        re-held after the projection so survivors are bit-identical to a
        run without the frozen trials.
        """
        etas = self._etas[round.iteration]
        base = round.extras["mix"] if self.mixing else self.estimates
        candidates = base - etas[:, None, None] * round.aggregates
        previous = self.estimates
        held = self._screen(round.iteration, previous, candidates)
        self.estimates = self.guard.hold(previous, self._project_all(held))
        self.iteration += 1
        return self.estimates

    # -- run recording ----------------------------------------------------
    def _begin_run(self, iterations: int) -> None:
        # Step sizes are indexed by the absolute round, so a later run()
        # continues the schedule where this one stops.
        self._first_round = self.iteration
        self._grow_step_sizes(self.iteration + iterations)
        # Under ``trace_rounds`` only the planned rounds of this run get an
        # (S, n, d) slot — the dense trajectory is the memory hot spot at
        # large n.
        self._trace = _IterateTrace(
            self._trace_plan, xp.to_numpy(self.estimates)
        )
        self._trace.extend(iterations)

    def _record_step(self, estimates: np.ndarray) -> None:
        self._trace.record(
            self.iteration - self._first_round, xp.to_numpy(estimates)
        )

    def _run_result(self) -> DecentralizedTrace:
        honest_ids = [
            tuple(i for i in range(self.n) if i not in excluded)
            for excluded in map(set, self._faulty)
        ]
        labels = [
            trial.label
            or f"{self.topology.name}/{trial.aggregator.name}"
            f"/{trial.attack.name if trial.attack else 'honest'}"
            for trial in self.trials
        ]
        return DecentralizedTrace(
            estimates=self._trace.trajectory,
            step_sizes=self._etas[self._first_round : self.iteration],
            honest_ids=honest_ids,
            labels=labels,
            quarantined=self.guard.summary(),
            rounds=self._trace.rounds,
        )


def run_decentralized(
    costs: Union[Sequence[CostFunction], CostStack],
    topology: CommunicationTopology,
    trials: Sequence[BatchTrial],
    constraint: ConvexSet,
    schedule: StepSchedule,
    initial_estimate: Sequence[float],
    iterations: int,
    mixing: bool = True,
    allow_disconnected: bool = False,
    trace_rounds=None,
) -> DecentralizedTrace:
    """Convenience wrapper mirroring :func:`repro.distsys.batch.run_dgd_batch`."""
    simulator = DecentralizedSimulator(
        costs=costs,
        topology=topology,
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
