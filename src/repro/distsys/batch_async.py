"""Batched lockstep execution of asynchronous sweeps — staleness × drop × seed
as one tensor program.

:class:`~repro.distsys.asynchronous.AsynchronousSimulator` replays one
(τ, network, fault-schedule, attack, aggregator, seed) cell at a time
through an event loop; estimating the paper's approximate-resilience radii
under asynchrony needs *many* seeds per cell, and a sweep of ``S`` cells
costs ``S`` full event loops.  :class:`BatchAsynchronousSimulator` runs the
``S`` trials in lockstep as one ``(S, n, d)`` tensor program — the
asynchronous mirror of :class:`~repro.distsys.batch.BatchSimulator`:

* every trial's network realization (delays, drops, straggler
  stretches, crash windows, attack silence) is pre-sampled in bounded
  ``(B, S, n)`` blocks by the :class:`~repro.distsys.faults._TrialNetworks`
  the fused graph engine shares — per-trial streams identical to the
  per-trial engine's, so the batch pins to the reference trajectory by
  trajectory;
* per-trial in-flight message queues are padded ``(S, n, τ_max + 1)``
  view-round tensors (see DESIGN.md): slot ``k`` holds the newest send
  round whose message arrives in ``k`` rounds.  A message's *payload* is
  the iterate it was evaluated at, so the conceptual
  ``(S, n, τ_max + 1, d)`` payload queue is stored factored — the view
  index plus the shared ``(T + 1, S, d)`` trajectory — and delivery is one
  shift + maximum per round, with no per-message Python objects;
* stale-iterate gradients come from one
  :func:`~repro.functions.batched.gather_view_points` gather and one
  :meth:`~repro.functions.batched.CostStack.gradients_each` einsum per
  round, over all trials at once;
* fabrications are vectorized per attack group through
  :meth:`~repro.attacks.base.ByzantineAttack.fabricate_batch`, sub-grouped
  by the round's attendance pattern so each trial's generator is consumed
  exactly as the per-trial engine consumes it;
* partial attendance runs through the declared missing-value policies as
  batched kernels: ``"masked"`` via
  :func:`~repro.aggregators.masked.aggregate_batch_masked` (per-trial
  validity masks, declared ``f`` kept), ``"shrink"`` via per-(attendance,
  tolerance) groups of rebuilt filters with the step-S1 ``n``/``f``
  bookkeeping (``expected_n`` = the round's attendance, so the rebuilt
  CGE/CWTM instances validate their shrunk stacks loudly).

Semantics deliberately mirror the per-trial engine so it remains the
reference oracle; ``tests/distsys/test_batch_async.py`` pins the batch to
the per-trial trajectories at 1e-9 across aggregator × attack × τ × drop ×
seed, including stalls, crash-and-recover schedules and
Byzantine-from-round timelines.  Drive the engine through :meth:`run`
(stand-alone :meth:`step` has no pre-sampled horizon); a run checkpoints at
any chunk boundary through ``state_dict``/``load_state`` and resumes with
``run(T, start_round=k)``, pre-sampling only the remaining rounds — the
conditions' chunk-invariance contract makes the resumed realization
bit-identical to the uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..aggregators.base import GradientAggregator
from ..aggregators.masked import (
    aggregate_batch_masked,
    aggregator_label,
    masked_kernel_for,
    masked_min_attendance,
)
from ..aggregators.registry import make_aggregator
from ..attacks.base import BatchAttackContext, ByzantineAttack
from ..functions.base import CostFunction
from ..functions.batched import CostStack, gather_view_points, stack_costs
from ..optim.projections import ConvexSet
from ..optim.schedules import StepSchedule
from ..telemetry.recorder import Recorder, current_recorder
from ..health import (
    AGGREGATOR_REFUSED,
    TrialGuard,
    aggregation_round,
    nonfinite_rows,
)
from .asynchronous import MISSING_POLICIES
from .batch import _IterateTrace
from .engine import (
    ProtocolEngine,
    ProtocolRound,
    _config_key,
    group_indices,
    validate_attack_plan,
    validate_fault_count,
    validate_faulty_ids,
    validate_initial_estimate,
)
from .faults import FaultSchedule, NetworkCondition, _TrialNetworks

__all__ = [
    "AsyncBatchTrial",
    "BatchAsyncTrace",
    "BatchAsynchronousSimulator",
    "run_asynchronous_batch",
]


@dataclass
class AsyncBatchTrial:
    """One asynchronous trial of a batched sweep.

    Mirrors the :class:`~repro.distsys.asynchronous.AsynchronousSimulator`
    constructor: each trial carries its own staleness bound, network
    conditions, fault timeline, attack, filter and missing-value policy —
    the engine groups equal configurations so a sweep varying only seeds
    still runs one kernel per stage.  ``aggregator`` should be a registry
    *name* whenever the ``"shrink"`` policy may be exercised (the policy
    rebuilds the filter per attendance); ``f`` defaults to the ground
    truth — the number of distinct agents the trial ever faults.
    """

    aggregator: Union[GradientAggregator, str]
    attack: Optional[ByzantineAttack] = None
    faulty_ids: Tuple[int, ...] = ()
    conditions: Tuple[NetworkCondition, ...] = ()
    fault_schedule: Optional[FaultSchedule] = None
    staleness_bound: int = 0
    missing_policy: str = "shrink"
    f: Optional[int] = None
    seed: int = 0
    schedule: Optional[StepSchedule] = None
    initial_estimate: Optional[np.ndarray] = None
    omniscient_attack: Optional[bool] = None
    label: Optional[str] = None


@dataclass
class BatchAsyncTrace:
    """Lazy trace of a batched asynchronous execution.

    Keeps the iterate trajectory plus the per-round asynchrony diagnostics
    as dense ``(T, S)`` tensors — the batched counterparts of the per-trial
    :class:`~repro.distsys.asynchronous.AsynchronousTrace` analytics.
    """

    estimates: np.ndarray                    # (T + 1, S, d)
    step_sizes: np.ndarray                   # (T, S)
    stalled: np.ndarray                      # (T, S) bool
    missing_counts: np.ndarray               # (T, S) agents with no usable msg
    usable_counts: np.ndarray                # (T, S) usable messages
    staleness_sums: np.ndarray               # (T, S) sum of usable staleness
    n: int
    labels: List[str] = field(default_factory=list)
    #: quarantine records ``{"trial", "round", "reason"}`` of frozen trials
    #: (reasons from :data:`repro.health.QUARANTINE_REASONS`); a frozen
    #: trial's trajectory is held at its last healthy iterate.
    quarantined: List[Dict[str, object]] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of completed rounds ``T``."""
        return self.estimates.shape[0] - 1

    @property
    def trials(self) -> int:
        """Batch width ``S``."""
        return self.estimates.shape[1]

    @property
    def final_estimates(self) -> np.ndarray:
        """Last iterate of every trial, shape ``(S, d)``."""
        return self.estimates[-1].copy()

    def trial_estimates(self, s: int) -> np.ndarray:
        """Trajectory ``x_0 .. x_T`` of trial ``s``, shape ``(T + 1, d)``."""
        return self.estimates[:, s, :].copy()

    def distances_to(
        self, target: Sequence[float], rounds: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Per-trial distance series ``||x_t - target||``, shape ``(S, K)``.

        ``rounds`` selects a subset of rounds (default: all ``T + 1``), so
        a large-``T`` sweep can compute just the diagnostics it plots
        without materializing the full ``(S, T + 1)`` distance matrix.
        """
        tgt = np.asarray(target, dtype=float)
        selected = (
            self.estimates
            if rounds is None
            else self.estimates[np.asarray(rounds, dtype=int)]
        )
        return np.linalg.norm(selected - tgt, axis=2).T

    def missing_fraction(self) -> np.ndarray:
        """Per-trial per-round fraction of agents with no usable message.

        Shape ``(S, T)`` — row ``s`` matches the per-trial trace's
        :meth:`~repro.distsys.asynchronous.AsynchronousTrace.missing_fraction`.
        """
        return self.missing_counts.T / float(self.n)

    def staleness_profile(self) -> np.ndarray:
        """Per-trial per-round mean staleness of the usable messages.

        Shape ``(S, T)``; rounds with no usable message contribute ``nan``
        (reduce with ``np.nanmean``), matching the per-trial trace.
        """
        counts = self.usable_counts.T
        with np.errstate(invalid="ignore"):
            return np.where(
                counts > 0, self.staleness_sums.T / counts, np.nan
            )

    def stalled_rounds(self) -> np.ndarray:
        """Rounds per trial where the estimate held, shape ``(S,)``."""
        return self.stalled.sum(axis=0)


def _attendance_groups(
    rows: np.ndarray,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Group the rows of a boolean ``(G, w)`` block by their pattern.

    Returns one ``(pattern, positions)`` pair per distinct row, patterns in
    ascending lexicographic order (column 0 most significant, ``False``
    first) and each group's row positions ascending — exactly what
    ``np.unique(rows, axis=0, return_inverse=True)`` yields, from one
    stable sort.  On a round's few-trial blocks ``np.unique`` costs several
    times this whole helper.

    The sort keys are the rows packed 64 columns to a big-endian word
    (column 0 in the top bit, zero-padded tail), so word order is the
    rows' lexicographic order and the sort takes ``ceil(w / 64)`` keys
    instead of ``w``.
    """
    g, w = rows.shape
    keys = np.zeros((g, -(-w // 64) * 8), dtype=np.uint8)
    keys[:, : -(-w // 8)] = np.packbits(rows, axis=1)
    order = np.lexsort(keys.view(">u8").T[::-1])
    ordered = rows[order]
    cuts = (
        np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    ).tolist()
    return [
        (ordered[start], order[start:stop])
        for start, stop in zip([0] + cuts, cuts + [len(order)])
    ]


class BatchAsynchronousSimulator(ProtocolEngine):
    """Run ``S`` asynchronous trials of one system in lockstep."""

    def __init__(
        self,
        costs: Union[Sequence[CostFunction], CostStack],
        trials: Sequence[AsyncBatchTrial],
        constraint: ConvexSet,
        schedule: StepSchedule,
        initial_estimate: Sequence[float],
    ):
        if not trials:
            raise ValueError("need at least one trial")
        self.stack: CostStack = (
            costs if isinstance(costs, CostStack) else stack_costs(costs)
        )
        self.n = self.stack.n
        self.d = self.stack.dim
        self.trials: List[AsyncBatchTrial] = list(trials)
        self.constraint = constraint

        default_initial = validate_initial_estimate(initial_estimate, self.d)
        s = len(self.trials)

        # Per-trial normalized state — the caller's AsyncBatchTrial objects
        # are treated as read-only inputs.
        starts = []
        self.rngs: List[np.random.Generator] = []
        self._omniscient: List[bool] = []
        self._aggregators: List[GradientAggregator] = []
        self._aggregator_names: List[Optional[str]] = []
        self._masked_min = np.zeros(s, dtype=int)
        self._fs = np.zeros(s, dtype=int)
        self._tau = np.zeros(s, dtype=int)
        self._shrink = np.zeros(s, dtype=bool)
        #: first compromise round per (trial, agent); int64 explicitly —
        #: the never-compromised sentinel overflows a 32-bit default int.
        self._since = np.full(
            (s, self.n), np.iinfo(np.int64).max, dtype=np.int64
        )
        self._fault_schedules: List[FaultSchedule] = []

        for index, trial in enumerate(self.trials):
            fault_schedule = (
                trial.fault_schedule or FaultSchedule()
            ).validate(self.n)
            self._fault_schedules.append(fault_schedule)
            base_faulty = validate_faulty_ids(trial.faulty_ids, self.n)
            since = fault_schedule.compromised_since()
            for agent in base_faulty:
                since[agent] = 0  # compromised from the start wins
            for agent, start_round in since.items():
                self._since[index, agent] = start_round
            byzantine = tuple(sorted(since))

            fault_agents = set(byzantine) | set(
                e.agent for e in fault_schedule.events if e.kind == "crash"
            )
            declared_f = (
                len(fault_agents) if trial.f is None else int(trial.f)
            )
            self._fs[index] = validate_fault_count(
                declared_f, self.n, len(fault_agents)
            )
            self._omniscient.append(
                validate_attack_plan(
                    trial.attack, len(byzantine), trial.omniscient_attack
                )
            )

            if trial.staleness_bound < 0:
                raise ValueError("staleness bound must be non-negative")
            self._tau[index] = int(trial.staleness_bound)
            if trial.missing_policy not in MISSING_POLICIES:
                raise ValueError(
                    f"unknown missing-value policy {trial.missing_policy!r}; "
                    f"known: {', '.join(MISSING_POLICIES)}"
                )
            self._shrink[index] = trial.missing_policy == "shrink"

            if isinstance(trial.aggregator, str):
                self._aggregator_names.append(trial.aggregator)
                aggregator = make_aggregator(
                    trial.aggregator, self.n, int(self._fs[index])
                )
            else:
                self._aggregator_names.append(None)
                aggregator = trial.aggregator
            self._aggregators.append(aggregator)
            if trial.missing_policy == "masked":
                if masked_kernel_for(aggregator) is None:
                    raise ValueError(
                        f"aggregator {aggregator_label(aggregator)} has no "
                        "masked kernel; use missing_policy='shrink'"
                    )
                self._masked_min[index] = max(
                    masked_min_attendance(aggregator), int(self._fs[index]) + 1
                )

            start = (
                default_initial
                if trial.initial_estimate is None
                else validate_initial_estimate(trial.initial_estimate, self.d)
            )
            starts.append(start)
            # The attack stream is seeded exactly like the per-trial
            # engine's (and the synchronous engines').
            self.rngs.append(np.random.default_rng(trial.seed))

        self.estimates = np.asarray(
            self.constraint.project_batch(np.stack(starts))
        )
        self.iteration = 0
        self.guard = TrialGuard(s)
        self._tau_max = int(self._tau.max())

        # The padded in-flight queue: slot k holds the newest view (send
        # round) arriving in k rounds; -1 = empty.  Messages delayed past
        # their trial's τ can never be usable and are never enqueued.
        # Queue state is horizon-independent, so it lives here and simply
        # persists across chunked runs (and through state_dict/load_state).
        self._pending = np.full((s, self.n, self._tau_max + 1), -1, dtype=int)
        self._freshest = np.full((s, self.n), -1, dtype=int)

        # -- static groups (per-round sub-grouping happens on attendance) --
        self._aggregator_groups = group_indices(
            s, lambda index: _config_key(self._aggregators[index])
        )
        self._attack_groups = []
        for rep, idx in group_indices(
            s,
            lambda index: (
                _config_key(self.trials[index].attack),
                self._omniscient[index],
            ),
        ):
            if self.trials[rep].attack is not None:
                self._attack_groups.append(
                    (self.trials[rep].attack, self._omniscient[rep], idx)
                )
        self._group_schedules(
            [trial.schedule or schedule for trial in self.trials]
        )
        self._shrunk_cache: Dict[Tuple[str, int, int], GradientAggregator] = {}
        # Integer name ids let the per-round shrink grouping run through
        # one np.unique instead of per-trial Python key building.
        name_ids: Dict[str, int] = {}
        self._name_ids = np.full(s, -1, dtype=int)
        for index, name in enumerate(self._aggregator_names):
            if name is not None:
                self._name_ids[index] = name_ids.setdefault(name, len(name_ids))
        self._names_by_id = {v: k for k, v in name_ids.items()}
        #: Each trial's network realization over its n uplinks and its
        #: senders, sampled block by block as the rounds arrive.
        self._networks = _TrialNetworks(
            self.trials, [self.n] * s, self.n, self._fault_schedules,
            self._since,
        )
        #: Warm-restart dispatches per recovery round, ``(trial, agent,
        #: view)``: the recovering agent sends its persisted pre-crash
        #: view instead of a fresh one (the per-trial engine's semantics).
        self._warm_views: Dict[int, List[Tuple[int, int, int]]] = {}
        for index, fault_schedule in enumerate(self._fault_schedules):
            for (agent, recovery), view in (
                fault_schedule.warm_restart_views().items()
            ):
                self._warm_views.setdefault(recovery, []).append(
                    (index, agent, view)
                )
        # Whole-run bookkeeping, grown by each run() chunk with the step
        # sizes: the iterate trace and the per-round counters.
        self._trace = _IterateTrace(None, self.estimates)
        self._stalled = np.zeros((0, s), dtype=bool)
        self._missing_counts = np.zeros((0, s), dtype=int)
        self._usable_counts = np.zeros((0, s), dtype=int)
        self._staleness_sums = np.zeros((0, s))

    # -- per-run bookkeeping ----------------------------------------------
    def _extend_horizon(self, t_total: int) -> None:
        """Grow the run's bookkeeping to the chunk horizon ``t_total``.

        Only what every round leaves behind is whole-run: the step sizes,
        the iterate trace and the per-round counters, each filled for the
        new rounds only.  The network realization is sampled block by
        block as the rounds arrive, never past ``t_total``.
        """
        self._networks.limit = t_total
        start = self.iteration
        s = len(self.trials)
        # Stalled rounds still consume their schedule slot, so the step
        # sizes are attendance-independent.
        self._grow_step_sizes(t_total)
        self._trace.extend(t_total)
        for name, dtype in (
            ("_stalled", bool),
            ("_missing_counts", int),
            ("_usable_counts", int),
            ("_staleness_sums", float),
        ):
            grown = np.zeros((t_total, s), dtype=dtype)
            grown[:start] = getattr(self, name)[:start]
            setattr(self, name, grown)

    # -- protocol stages --------------------------------------------------
    def observe(self) -> ProtocolRound:
        """Enqueue, deliver, and evaluate this round's usable messages.

        Quarantined trials are treated as fully missing: their usable mask
        is cleared (so they stall, consume no attack stream, and reach no
        kernel) and their gradients stay zero placeholders.
        """
        t = self.iteration
        x_t = self.estimates
        delay_t, dropped_t, _, sends_t = self._networks.round(t)  # (S, n)

        # Enqueue round-t sends that can still be usable at delivery:
        # delivery age is delay + (t - view), so anything past the trial's
        # staleness bound is dropped here unobservably.  Views are t except
        # warm-restart dispatches, whose pre-crash view may be *older* than
        # a pending slot — the maximum keeps the per-trial engine's
        # newest-view-wins delivery semantics.
        view_t = np.full((len(self.trials), self.n), t)
        for index, agent, view in self._warm_views.get(t, ()):
            view_t[index, agent] = view
        enqueue = (sends_t & ~dropped_t) & (
            delay_t + (t - view_t) <= self._tau[:, None]
        )
        trial_ix, agent_ix = np.nonzero(enqueue)
        slot_ix = delay_t[trial_ix, agent_ix]
        self._pending[trial_ix, agent_ix, slot_ix] = np.maximum(
            self._pending[trial_ix, agent_ix, slot_ix],
            view_t[trial_ix, agent_ix],
        )

        # Deliver slot 0 and shift the queue one round closer.
        self._freshest = np.maximum(self._freshest, self._pending[:, :, 0])
        self._pending[:, :, :-1] = self._pending[:, :, 1:]
        self._pending[:, :, -1] = -1

        usable = (self._freshest >= 0) & (
            t - self._freshest <= self._tau[:, None]
        )
        usable &= self.guard.active[:, None]

        # The stale-gradient hot path: one gather + one einsum for every
        # agent of every trial at its own view iterate.  Frozen trials are
        # masked out — their held iterates are never differentiated again.
        views = np.where(usable, self._freshest, -1)
        points = gather_view_points(
            self._trace.trajectory[: t + 1], views, x_t
        )
        if self.guard.any_quarantined:
            active = self.guard.active
            all_gradients = np.zeros((len(self.trials), self.n, self.d))
            all_gradients[active] = self.stack.gradients_each(points[active])
        else:
            all_gradients = self.stack.gradients_each(points)   # (S, n, d)

        live_byzantine = usable & (self._since <= t)        # (S, n)
        return ProtocolRound(
            iteration=t,
            gradients=all_gradients,
            extras={
                "usable": usable,
                "views": views,
                "live_byzantine": live_byzantine,
            },
        )

    def fabricate(self, round: ProtocolRound) -> None:
        """Rewrite the usable messages of currently-compromised agents.

        One :meth:`~repro.attacks.base.ByzantineAttack.fabricate_batch`
        call per (attack configuration, attendance pattern) — trials whose
        compromised/honest attendance coincides this round share a call,
        and each trial's generator is consumed exactly as the per-trial
        engine consumes it (no call when no compromised message is usable).
        With omniscient access on, a group with no honest message to
        observe makes no call either: its compromised agents send their
        true gradients.
        """
        t = round.iteration
        usable = round.extras["usable"]
        live = round.extras["live_byzantine"]
        views = round.extras["views"]
        gradients = round.gradients
        for attack, omniscient, idx in self._attack_groups:
            byz_rows = live[idx]                          # (G, n)
            active = byz_rows.any(axis=1)
            if not active.any():
                continue  # nothing usable to rewrite; no stream use
            members = idx[active]
            rows = byz_rows[active]
            if omniscient:
                rows = np.concatenate(
                    [rows, usable[members] & ~live[members]], axis=1
                )
            for pattern, positions in _attendance_groups(rows):
                faulty = np.flatnonzero(pattern[: self.n])
                honest = np.flatnonzero(pattern[self.n :])
                if omniscient and not honest.size:
                    continue  # nothing to observe: true gradients stand
                sub = members[positions]
                cells = (sub[:, None], faulty)
                context = BatchAttackContext(
                    iteration=t,
                    estimates=self.estimates[sub],
                    faulty_ids=faulty.tolist(),
                    true_gradients=gradients[cells],
                    honest_gradients=(
                        gradients[sub[:, None], honest] if omniscient else None
                    ),
                    honest_ids=(
                        honest.tolist() if omniscient else None
                    ),
                    rngs=[self.rngs[i] for i in sub],
                    view_rounds=views[cells],
                    compromised_since=self._since[cells],
                )
                fabricated = np.asarray(
                    attack.fabricate_batch(context), dtype=float
                )
                expected = (sub.size, faulty.size, self.d)
                if fabricated.shape != expected:
                    raise RuntimeError(
                        f"attack {attack.name!r} returned shape "
                        f"{fabricated.shape}, expected {expected}"
                    )
                gradients[cells] = fabricated

    def aggregate(self, round: ProtocolRound) -> None:
        """Batched filters through the missing-value policies.

        Full attendance takes each filter group's ``aggregate_batch``
        kernel; partial attendance applies the trial's declared policy —
        masked kernels under per-trial validity masks, or shrink-n groups
        keyed by (filter name, attendance, shrunk tolerance).  Trials whose
        attendance cannot support their policy stall.

        Trials whose strict filter (``quarantines_on_nonfinite``) faces a
        non-finite usable message are quarantined *before* any kernel call
        — reason ``aggregator_refused`` — and then held like stalls.
        """
        t = round.iteration
        usable = round.extras["usable"]
        gradients = round.gradients
        counts = usable.sum(axis=1)                          # (S,)
        s = len(self.trials)
        aggregates = np.zeros((s, self.d))
        stalled = (counts == 0) | self.guard.frozen

        # Masked-policy trials short of their attendance floor stall too.
        masked_partial = (
            ~self._shrink & (counts > 0) & (counts < self.n)
        )
        stalled |= masked_partial & (counts < self._masked_min)

        # Strict-filter refusal: the pre-check mirrors the kernels' own
        # front-door validation, so no batched kernel ever raises.  A
        # stalled trial calls no kernel, so it cannot refuse — exactly
        # the per-trial engine's policy ordering.
        for rep, idx in self._aggregator_groups:
            aggregator = self._aggregators[rep]
            if not aggregator.quarantines_on_nonfinite:
                continue
            live = self.guard.live(idx)
            live = live[~stalled[live]]
            if not live.size:
                continue
            refused = (
                nonfinite_rows(gradients[live]) & usable[live]
            ).any(axis=1)
            if refused.any():
                fresh = self.guard.quarantine(
                    live[refused], t, AGGREGATOR_REFUSED
                )
                self._note_quarantined(fresh, t, AGGREGATOR_REFUSED)
                stalled[live[refused]] = True

        full = (counts == self.n) & self.guard.active
        for rep, idx in self._aggregator_groups:
            aggregator = self._aggregators[rep]
            full_idx = idx[full[idx]]
            if full_idx.size:
                with aggregation_round(t, aggregator_label(aggregator)):
                    aggregates[full_idx] = aggregator.aggregate_batch(
                        gradients[full_idx]
                    )
            masked_idx = idx[masked_partial[idx] & ~stalled[idx]]
            if masked_idx.size:
                with aggregation_round(t, aggregator_label(aggregator)):
                    aggregates[masked_idx] = aggregate_batch_masked(
                        aggregator, gradients[masked_idx], usable[masked_idx]
                    )

        # Shrink-n: rebuild the declared filter per (attendance, shrunk f)
        # group with step-S1's bookkeeping (missing ~ crashed).
        shrink_partial = np.flatnonzero(
            self._shrink & (counts > 0) & (counts < self.n) & ~stalled
        )
        if shrink_partial.size:
            if (self._name_ids[shrink_partial] < 0).any():
                raise RuntimeError(
                    "the shrink-n missing-value policy rebuilds the filter "
                    "by registry name; pass the aggregator as a string or "
                    "use missing_policy='masked'"
                )
            received = counts[shrink_partial]
            f_rounds = np.maximum(
                0, self._fs[shrink_partial] - (self.n - received)
            )
            # Attendance must outvote the shrunk tolerance (explicit,
            # never assumed) — same contract as the per-trial engine.
            short = received <= f_rounds
            if short.any():
                worst = int(np.flatnonzero(short)[0])
                validate_fault_count(
                    int(f_rounds[worst]), self.n, 0,
                    n_received=int(received[worst]),
                )
            keys = (
                self._name_ids[shrink_partial] * (self.n + 1) + received
            ) * (self.n + 1) + f_rounds
            _, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            for g in range(first.size):
                sub = shrink_partial[inverse == g]
                rep = int(shrink_partial[first[g]])
                key = (
                    self._names_by_id[int(self._name_ids[rep])],
                    int(counts[rep]),
                    max(0, int(self._fs[rep]) - (self.n - int(counts[rep]))),
                )
                aggregator = self._shrunk_cache.get(key)
                if aggregator is None:
                    aggregator = make_aggregator(*key)
                    self._shrunk_cache[key] = aggregator
                # Row-major boolean selection stacks each trial's usable
                # gradients in ascending agent order — the per-trial sort.
                stacks = gradients[sub][usable[sub]].reshape(
                    sub.size, key[1], self.d
                )
                with aggregation_round(t, aggregator_label(aggregator)):
                    aggregates[sub] = aggregator.aggregate_batch(stacks)

        round.aggregates = aggregates
        round.extras["stalled"] = stalled

    def project(self, round: ProtocolRound) -> np.ndarray:
        """Batched equation-(21) update; stalled trials hold their estimate.

        Pre-projection candidates are screened per trial: a non-finite or
        diverged candidate quarantines only that trial, which the guard
        then holds bit-exactly at its last healthy iterate.
        """
        t = round.iteration
        stalled = round.extras["stalled"]
        etas = self._etas[t]
        previous = self.estimates
        candidates = np.where(
            stalled[:, None],
            previous,
            previous - etas[:, None] * round.aggregates,
        )
        held = self._screen(t, previous, candidates)
        projected = np.asarray(self.constraint.project_batch(held))
        self.estimates = self.guard.hold(
            previous, np.where(stalled[:, None], previous, projected)
        )
        self.iteration = t + 1

        usable = round.extras["usable"]
        views = round.extras["views"]
        self._trace.record(t + 1, self.estimates)
        self._stalled[t] = stalled
        self._usable_counts[t] = usable.sum(axis=1)
        self._missing_counts[t] = self.n - self._usable_counts[t]
        self._staleness_sums[t] = np.where(usable, t - views, 0).sum(axis=1)
        return self.estimates

    # -- run --------------------------------------------------------------
    def _run_result(self) -> BatchAsyncTrace:
        labels = []
        for index, trial in enumerate(self.trials):
            aggregator = self._aggregator_names[index] or type(
                self._aggregators[index]
            ).__name__
            attack = trial.attack.name if trial.attack else "honest"
            labels.append(
                trial.label
                or f"{aggregator}/{attack}/tau{int(self._tau[index])}"
            )
        return BatchAsyncTrace(
            estimates=self._trace.trajectory,
            step_sizes=self._etas,
            stalled=self._stalled,
            missing_counts=self._missing_counts,
            usable_counts=self._usable_counts,
            staleness_sums=self._staleness_sums,
            n=self.n,
            labels=labels,
            quarantined=self.guard.summary(),
        )

    def run(
        self, iterations: int, start_round: Optional[int] = None
    ) -> BatchAsyncTrace:
        """Run to the absolute horizon ``T = iterations``; returns the lazy
        ``0..T`` trace (see :meth:`ProtocolEngine._run_chunk`).  A resumed
        engine pre-samples only ``[start_round, T)``, from the persisted
        per-trial network streams.
        """
        return self._run_chunk(iterations, start_round)

    def _record_round_metrics(
        self, recorder: Recorder, round: ProtocolRound
    ) -> None:
        """Per-round asynchrony counters (recording on only)."""
        usable = round.extras["usable"]
        recorder.count("stalled_trials", int(round.extras["stalled"].sum()))
        recorder.count("usable_messages", int(usable.sum()))
        recorder.count(
            "missing_messages", int(usable.size - usable.sum())
        )
        recorder.gauge(
            "queue_depth", int((self._pending >= 0).sum())
        )

    # -- checkpoint support ------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-able snapshot at a chunk boundary of a longer run.

        The engine pre-samples each trial's network stream block by block,
        never past the chunk horizon, so a snapshot is only
        stream-consistent where ``iteration == horizon`` — exactly at the
        end of a :meth:`run` chunk.  Captures the iterate
        batch, both generator families (attack + network), the per-run
        condition state (burst chains), the in-flight queues and the
        recorded prefix; :meth:`load_state` on a freshly constructed
        engine with the same trials continues bit-identically.
        """
        k = int(self.iteration)
        networks = self._networks.state_dict(k)
        return {
            "schema": "repro/batch-async-state/v1",
            "iteration": k,
            "estimates": self.estimates.tolist(),
            "rng_states": [rng.bit_generator.state for rng in self.rngs],
            **networks,
            "pending": self._pending.tolist(),
            "freshest": self._freshest.tolist(),
            "quarantine": self.guard.state_dict(),
            **self._trace.state(k),
            "stalled": self._stalled[:k].tolist(),
            "missing_counts": self._missing_counts[:k].tolist(),
            "usable_counts": self._usable_counts[:k].tolist(),
            "staleness_sums": self._staleness_sums[:k].tolist(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto a fresh engine."""
        schema = state.get("schema")
        if schema != "repro/batch-async-state/v1":
            raise ValueError(f"unrecognized engine-state schema: {schema!r}")
        if self.iteration != 0 or self._networks.horizon != 0:
            raise RuntimeError(
                "load_state needs a freshly constructed engine"
            )
        k = int(state["iteration"])
        self._trace.load(state)
        self._load_rng_states(state["rng_states"])
        self._networks.load_state(state, k)
        self.iteration = k
        self.estimates = np.asarray(state["estimates"], dtype=float)
        self._pending = np.asarray(state["pending"], dtype=int)
        self._freshest = np.asarray(state["freshest"], dtype=int)
        # Absent in pre-quarantine snapshots: every trial stays active.
        quarantine = state.get("quarantine")
        if quarantine is not None:
            self.guard.load_state(quarantine)
        self._stalled = np.asarray(state["stalled"], dtype=bool)
        self._missing_counts = np.asarray(
            state["missing_counts"], dtype=int
        )
        self._usable_counts = np.asarray(state["usable_counts"], dtype=int)
        self._staleness_sums = np.asarray(
            state["staleness_sums"], dtype=float
        )


def run_asynchronous_batch(
    costs: Union[Sequence[CostFunction], CostStack],
    trials: Sequence[AsyncBatchTrial],
    constraint: ConvexSet,
    schedule: StepSchedule,
    initial_estimate: Sequence[float],
    iterations: int,
) -> BatchAsyncTrace:
    """Convenience wrapper mirroring :func:`~repro.distsys.batch.run_dgd_batch`."""
    simulator = BatchAsynchronousSimulator(
        costs=costs,
        trials=trials,
        constraint=constraint,
        schedule=schedule,
        initial_estimate=initial_estimate,
    )
    # Convenience runners report to the ambient recorder: a no-op
    # with the default NULL_RECORDER, a live stream under the CLI's
    # --telemetry-out / the orchestrator's worker recorders.
    return simulator.set_recorder(current_recorder()).run(iterations)
