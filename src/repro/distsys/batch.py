"""Batched lockstep execution of DGD sweeps — the tensor sweep engine.

Every figure, table and ablation of the paper is a *sweep*: the same
distributed system executed under many (seed, attack, gradient-filter)
combinations.  :class:`~repro.distsys.simulator.SynchronousSimulator` runs
one trial at a time through a per-agent Python loop; :class:`BatchSimulator`
runs ``S`` independent trials in lockstep as one tensor program:

* agent gradients for all trials come from one stacked-coefficient einsum
  (:func:`repro.functions.batched.stack_costs`), shape ``(S, n, d)``;
* Byzantine fabrications are vectorized across the batch through
  :meth:`~repro.attacks.base.ByzantineAttack.fabricate_batch`;
* aggregation runs per *filter group* through
  :meth:`~repro.aggregators.base.GradientAggregator.aggregate_batch`;
* the projected update applies to all trials at once via
  :meth:`~repro.optim.projections.ConvexSet.project_batch`.

Tracing is lazy: only the iterate trajectory ``(T+1, S, d)`` is kept by
default; per-iteration gradient snapshots — the O(T·n·d) copy churn of the
per-trial trace — are opt-in via ``record_gradients=True``.

Semantics deliberately mirror the per-trial simulator so it remains the
reference oracle: each trial owns a generator seeded like the per-trial run,
attacks observe exactly the per-trial observables, and the batch/reference
equivalence is asserted (to 1e-9) by ``tests/distsys/test_batch_equivalence``.
Crash-style silence and the step-S1 elimination rule are not modelled here —
trials needing them must use the per-trial simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..aggregators.base import GradientAggregator
from ..aggregators.masked import aggregator_label
from ..attacks.base import BatchAttackContext, ByzantineAttack
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
from .engine import (
    ProtocolEngine,
    ProtocolRound,
    _config_key,
    group_indices,
    validate_attack_plan,
    validate_faulty_ids,
    validate_initial_estimate,
)

__all__ = [
    "BatchTrial",
    "BatchTrace",
    "BatchSimulator",
    "run_dgd_batch",
    "normalize_trace_rounds",
    "select_trace_rounds",
]


def normalize_trace_rounds(trace_rounds):
    """Validate a ``trace_rounds=`` plan: ``None``, a stride, or a sequence.

    ``None`` keeps every round (the historical full trace).  An int ``k``
    keeps rounds ``{0, k, 2k, ...}`` plus the final round; a sequence keeps
    exactly those rounds (0 and the final round are always added).  Shared
    by every engine with a windowed-trace mode.
    """
    if trace_rounds is None:
        return None
    if isinstance(trace_rounds, (int, np.integer)):
        stride = int(trace_rounds)
        if stride < 1:
            raise ValueError(
                f"trace_rounds stride must be a positive int, got {stride}"
            )
        return stride
    rounds = sorted({int(r) for r in trace_rounds})
    if rounds and rounds[0] < 0:
        raise ValueError(f"trace_rounds must be non-negative, got {rounds[0]}")
    return tuple(rounds)


def select_trace_rounds(stored: np.ndarray, rounds) -> np.ndarray:
    """Positions of ``rounds`` inside a trace's ``stored`` round axis.

    ``stored`` is the ascending array of absolute rounds a trace actually
    holds; ``rounds`` is a ``rounds=`` selector (int or sequence).  Raises
    when a requested round was not recorded — a windowed trace cannot
    recompute what it never stored.
    """
    want = np.atleast_1d(np.asarray(rounds, dtype=int))
    pos = np.searchsorted(stored, want)
    missing = (pos >= stored.size) | (stored[np.minimum(pos, stored.size - 1)] != want)
    if missing.any():
        absent = want[missing].tolist()
        raise ValueError(
            f"rounds {absent} are not stored in this trace "
            f"(stored rounds: {stored.tolist() if stored.size <= 20 else '...'})"
        )
    return pos


class _IterateTrace:
    """The stored iterate rounds of an engine's trace, grown chunk by chunk.

    ``trajectory`` is ``(slots, S, …)``, generic over an engine's per-trial
    iterate shape.  Without a ``trace_rounds`` plan slot ``t`` holds round
    ``t`` of ``0..T``; under one only the planned rounds, 0 and every
    chunk horizon get a slot (``kept[i]`` is slot ``i``'s round), and
    extending a resumed run's horizon never drops a round an earlier chunk
    stored.  Shared by the graph, server and asynchronous engines' traces.
    """

    def __init__(self, trace_rounds, initial: np.ndarray):
        self.plan = normalize_trace_rounds(trace_rounds)
        self.kept: Optional[np.ndarray] = (
            None if self.plan is None else np.zeros(1, dtype=int)
        )
        self._slot: Dict[int, int] = {0: 0}
        self.trajectory = np.array(initial, dtype=float)[None]

    @property
    def rounds(self) -> Optional[np.ndarray]:
        """A trace's ``rounds``: the kept rounds, ``None`` for all of them."""
        return None if self.kept is None else self.kept.copy()

    def planned(self, horizon: int) -> np.ndarray:
        """Rounds a windowed trace keeps through ``horizon``: the plan's,
        the already kept ones, 0 and ``horizon``, ascending."""
        if isinstance(self.plan, int):
            rounds = set(range(0, horizon + 1, self.plan))
        else:
            rounds = {r for r in self.plan if r <= horizon}
        rounds.update(int(r) for r in self.kept)
        rounds.add(int(horizon))
        return np.array(sorted(rounds), dtype=int)

    def extend(self, horizon: int) -> None:
        """Give every round through ``horizon`` the trace keeps a slot."""
        if self.kept is None:
            slots = horizon + 1
        else:
            self._set_kept(self.planned(horizon))
            slots = self.kept.size
        stored = self.trajectory.shape[0]
        if slots > stored:
            trajectory = np.empty((slots,) + self.trajectory.shape[1:])
            trajectory[:stored] = self.trajectory
            self.trajectory = trajectory

    def record(self, round_index: int, estimates) -> Optional[int]:
        """Store round ``round_index`` if the trace keeps it; its slot."""
        slot = (
            round_index if self.kept is None else self._slot.get(round_index)
        )
        if slot is not None:
            self.trajectory[slot] = estimates
        return slot

    def state(self, k: int) -> Dict[str, object]:
        """The trace's part of a round-``k`` snapshot: its stored rounds up
        to ``k`` (and, windowed, which rounds those are)."""
        if self.kept is None:
            return {"trajectory": self.trajectory[: k + 1].tolist()}
        kept = self.kept[self.kept <= k]
        return {
            "trajectory": self.trajectory[: kept.size].tolist(),
            "trace_rounds_kept": kept.tolist(),
        }

    def load(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state`; the snapshot and this trace must agree on
        whether the trace is windowed."""
        kept = state.get("trace_rounds_kept")
        if (kept is not None) != (self.plan is not None):
            raise ValueError(
                "trace_rounds mismatch: the snapshot and the fresh engine "
                "must agree on whether the trace is windowed"
            )
        self.trajectory = np.asarray(state["trajectory"], dtype=float)
        if kept is not None:
            self._set_kept(np.asarray(kept, dtype=int))

    def _set_kept(self, kept: np.ndarray) -> None:
        self.kept = kept
        self._slot = {int(r): i for i, r in enumerate(kept)}


@dataclass
class BatchTrial:
    """One trial of a batched sweep.

    ``schedule`` and ``initial_estimate`` override the simulator-wide
    defaults when set, so a single batch can sweep step-size schedules or
    restart points alongside attacks and filters.
    """

    aggregator: GradientAggregator
    attack: Optional[ByzantineAttack] = None
    faulty_ids: Tuple[int, ...] = ()
    seed: int = 0
    schedule: Optional[StepSchedule] = None
    initial_estimate: Optional[np.ndarray] = None
    omniscient_attack: Optional[bool] = None
    label: Optional[str] = None


@dataclass
class BatchTrace:
    """Lazy trace of a batched execution.

    ``estimates`` stacks the iterate trajectory ``x_0 .. x_T`` of every
    trial; ``gradients`` holds the received ``(n, d)`` stacks per iteration
    only when the simulator ran with ``record_gradients=True``.
    """

    estimates: np.ndarray                      # (K, S, d); K = T+1 when full
    step_sizes: np.ndarray                     # (T, S)
    labels: List[str] = field(default_factory=list)
    gradients: Optional[np.ndarray] = None     # (K-1, S, n, d), opt-in
    #: quarantine records ``{"trial", "round", "reason"}`` of frozen trials
    #: (reasons from :data:`repro.health.QUARANTINE_REASONS`); a frozen
    #: trial's trajectory is held at its last healthy iterate.
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    #: absolute round index of each stored slot under a windowed run
    #: (``trace_rounds=``); ``None`` means every round ``0..T`` is stored.
    rounds: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        """Number of completed iterations ``T``."""
        if self.rounds is not None:
            return int(self.rounds[-1])
        return self.estimates.shape[0] - 1

    @property
    def trials(self) -> int:
        """Batch width ``S``."""
        return self.estimates.shape[1]

    @property
    def stored_rounds(self) -> np.ndarray:
        """Absolute rounds the trace holds (``0..T`` for a full trace)."""
        if self.rounds is not None:
            return np.asarray(self.rounds)
        return np.arange(self.estimates.shape[0])

    @property
    def final_estimates(self) -> np.ndarray:
        """Last iterate of every trial, shape ``(S, d)``."""
        return self.estimates[-1].copy()

    def trial_estimates(self, s: int) -> np.ndarray:
        """Stored trajectory of trial ``s``, shape ``(K, d)``."""
        return self.estimates[:, s, :].copy()

    def _slots(self, rounds) -> np.ndarray:
        if rounds is None:
            return np.arange(self.estimates.shape[0])
        return select_trace_rounds(self.stored_rounds, rounds)

    def distances_to(self, target: Sequence[float], rounds=None) -> np.ndarray:
        """Per-trial distance series ``||x_t - target||``, shape ``(S, K)``.

        ``rounds=`` restricts the computation to a subset of the stored
        rounds (and is required knowledge for windowed traces — asking for
        an unstored round raises instead of silently interpolating).
        """
        tgt = np.asarray(target, dtype=float)
        est = (
            self.estimates
            if rounds is None
            else self.estimates[self._slots(rounds)]
        )
        return np.linalg.norm(est - tgt, axis=2).T

    def losses(
        self, loss_batch: Callable[[np.ndarray], np.ndarray], rounds=None
    ) -> np.ndarray:
        """Per-trial loss series over the selected rounds, shape ``(S, K)``.

        ``loss_batch`` maps a ``(P, d)`` stack of points to ``(P,)`` losses
        (e.g. the honest aggregate loss evaluated through a
        :class:`~repro.functions.batched.CostStack`).
        """
        selected = (
            self.estimates
            if rounds is None
            else self.estimates[self._slots(rounds)]
        )
        k, s, d = selected.shape
        flat = selected.reshape(k * s, d)
        values = np.asarray(loss_batch(flat), dtype=float)
        return values.reshape(k, s).T


class BatchSimulator(ProtocolEngine):
    """Run ``S`` independent DGD trials of one system in lockstep."""

    def __init__(
        self,
        costs: Union[Sequence[CostFunction], CostStack],
        trials: Sequence[BatchTrial],
        constraint: ConvexSet,
        schedule: StepSchedule,
        initial_estimate: Sequence[float],
        record_gradients: bool = False,
        trace_rounds=None,
    ):
        if not trials:
            raise ValueError("need at least one trial")
        self.stack: CostStack = (
            costs if isinstance(costs, CostStack) else stack_costs(costs)
        )
        self.n = self.stack.n
        self.d = self.stack.dim
        self.trials: List[BatchTrial] = list(trials)
        self.constraint = constraint
        self.record_gradients = bool(record_gradients)

        default_initial = validate_initial_estimate(initial_estimate, self.d)

        # Per-trial normalized state lives here — the caller's BatchTrial
        # objects are treated as read-only inputs.
        starts = []
        self.rngs: List[np.random.Generator] = []
        self._faulty: List[Tuple[int, ...]] = []
        self._omniscient: List[bool] = []
        for trial in self.trials:
            faulty = validate_faulty_ids(trial.faulty_ids, self.n)
            omniscient = validate_attack_plan(
                trial.attack,
                len(faulty),
                trial.omniscient_attack,
                full_attendance_engine="batch engine",
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

        self.estimates = np.asarray(
            self.constraint.project_batch(np.stack(starts))
        )
        self.iteration = 0
        self.guard = TrialGuard(len(self.trials))
        # Recording state persists across chunked ``run`` calls so a
        # checkpointed engine resumes mid-trajectory (see ``run``).
        # ``trace_rounds`` switches to the windowed mode: only the planned
        # rounds are stored (plus 0 and the horizon), so a large-n run
        # never materializes the full iterate history.
        self._trace = _IterateTrace(trace_rounds, self.estimates)
        # Opt-in gradient snapshots: one per stored round after round 0.
        self._snapshots: Optional[np.ndarray] = (
            np.empty((0, len(self.trials), self.n, self.d))
            if self.record_gradients
            else None
        )
        self._attack_groups = self._group_attacks()
        self._aggregator_groups = self._group_by_key(
            lambda index: _config_key(self.trials[index].aggregator)
        )
        self._group_schedules(
            [trial.schedule or schedule for trial in self.trials]
        )

    # -- grouping ---------------------------------------------------------
    def _group_by_key(self, key_fn) -> List[Tuple[int, np.ndarray]]:
        """Group trial indices by a key; returns (representative, indices)."""
        return group_indices(len(self.trials), key_fn)

    def _group_attacks(self):
        groups = []
        for rep, idx in self._group_by_key(
            lambda index: (
                _config_key(self.trials[index].attack),
                self._faulty[index],
                self._omniscient[index],
            )
        ):
            trial = self.trials[rep]
            if trial.attack is None or not self._faulty[rep]:
                continue
            faulty = np.array(self._faulty[rep])
            excluded = set(self._faulty[rep])
            honest = np.array([i for i in range(self.n) if i not in excluded])
            groups.append(
                (trial.attack, faulty, honest, self._omniscient[rep], idx)
            )
        return groups

    # -- protocol stages --------------------------------------------------
    def observe(self) -> ProtocolRound:
        """One einsum: all agents' gradients at every trial's estimate.

        Quarantined trials are masked out of the einsum — their rows stay
        zero placeholders that no later stage reads.
        """
        if self.guard.any_quarantined:
            gradients = np.zeros((len(self.trials), self.n, self.d))
            live = self.guard.active
            gradients[live] = self.stack.gradients(self.estimates[live])
        else:
            gradients = self.stack.gradients(self.estimates)  # (S, n, d)
        return ProtocolRound(iteration=self.iteration, gradients=gradients)

    def fabricate(self, round: ProtocolRound) -> None:
        """Vectorized fabrication, one call per attack group.

        Each group's index set is intersected with the guard's active
        mask, so frozen trials neither consume their attack stream nor
        receive fabrications.
        """
        received = round.gradients
        for attack, faulty, honest, omniscient, idx in self._attack_groups:
            live = self.guard.live(idx)
            if live.size == 0:
                continue
            context = BatchAttackContext(
                iteration=round.iteration,
                estimates=self.estimates[live],
                faulty_ids=faulty.tolist(),
                true_gradients=received[np.ix_(live, faulty)],
                honest_gradients=(
                    received[np.ix_(live, honest)] if omniscient else None
                ),
                honest_ids=honest.tolist(),
                rngs=[self.rngs[i] for i in live],
            )
            fabricated = np.asarray(attack.fabricate_batch(context), dtype=float)
            expected = (live.size, faulty.size, self.d)
            if fabricated.shape != expected:
                raise RuntimeError(
                    f"attack {attack.name!r} returned shape {fabricated.shape},"
                    f" expected {expected}"
                )
            received[np.ix_(live, faulty)] = fabricated

    def aggregate(self, round: ProtocolRound) -> None:
        """One ``aggregate_batch`` kernel per filter group.

        Trials whose strict filter (``quarantines_on_nonfinite``) faces a
        non-finite row are quarantined *before* the kernel call — reason
        ``aggregator_refused``, frozen at the pre-update estimate — so the
        rest of the group still aggregates in one invocation.
        """
        aggregates = np.zeros((len(self.trials), self.d))
        t = round.iteration
        for rep, idx in self._aggregator_groups:
            aggregator = self.trials[rep].aggregator
            live = self.guard.live(idx)
            if live.size == 0:
                continue
            if aggregator.quarantines_on_nonfinite:
                refused = nonfinite_rows(round.gradients[live]).any(axis=1)
                if refused.any():
                    fresh = self.guard.quarantine(
                        live[refused], t, AGGREGATOR_REFUSED
                    )
                    self._note_quarantined(fresh, t, AGGREGATOR_REFUSED)
                    live = live[~refused]
                    if live.size == 0:
                        continue
            with aggregation_round(t, aggregator_label(aggregator)):
                aggregates[live] = aggregator.aggregate_batch(
                    round.gradients[live]
                )
        round.aggregates = aggregates

    def project(self, round: ProtocolRound) -> np.ndarray:
        """Batched projected update across every trial at once.

        Pre-projection candidates are screened: trials with non-finite or
        diverged candidates freeze at their pre-update estimate (reasons
        ``nonfinite_iterate`` / ``diverged``), and every frozen trial's
        estimate is re-held after the projection so survivors — and the
        frozen trajectories themselves — are bit-identical to a run
        without the frozen trials.
        """
        etas = self._etas[round.iteration]
        candidates = self.estimates - etas[:, None] * round.aggregates
        previous = self.estimates
        held = self._screen(round.iteration, previous, candidates)
        projected = np.asarray(self.constraint.project_batch(held))
        self.estimates = self.guard.hold(previous, projected)
        self.iteration += 1
        self._last_received = round.gradients
        return self.estimates

    # -- run recording ----------------------------------------------------
    def _extend_horizon(self, horizon: int) -> None:
        """Grow the step sizes and the recording arrays to ``horizon`` rounds.

        Later calls (a resumed engine extending its horizon) reallocate and
        copy the recorded prefix, so the final trace spans the whole
        ``0..T`` trajectory regardless of how many chunks produced it.
        Under a ``trace_rounds`` plan only the kept rounds get trajectory
        (and gradient-snapshot) slots; see :class:`_IterateTrace`.
        """
        s = len(self.trials)
        self._grow_step_sizes(horizon)
        self._trace.extend(horizon)
        if self._snapshots is not None:
            slots = self._trace.trajectory.shape[0] - 1
            recorded = self._snapshots.shape[0]
            if slots > recorded:
                snapshots = np.empty((slots, s, self.n, self.d))
                snapshots[:recorded] = self._snapshots
                self._snapshots = snapshots

    def _record_step(self, estimates: np.ndarray) -> None:
        t = self.iteration  # round just completed (project incremented)
        slot = self._trace.record(t, estimates)
        if slot is not None and self._snapshots is not None:
            self._snapshots[slot - 1] = self._last_received

    def _run_result(self) -> BatchTrace:
        labels = [
            trial.label
            or f"{trial.aggregator.name}/{trial.attack.name if trial.attack else 'honest'}"
            for trial in self.trials
        ]
        return BatchTrace(
            estimates=self._trace.trajectory,
            step_sizes=self._etas,
            labels=labels,
            gradients=self._snapshots,
            quarantined=self.guard.summary(),
            rounds=self._trace.rounds,
        )

    def run(
        self, iterations: int, start_round: Optional[int] = None
    ) -> BatchTrace:
        """Run to the absolute horizon ``T = iterations``; returns the lazy
        ``0..T`` trace (see :meth:`ProtocolEngine._run_chunk`).  Each
        trial's attack stream is consumed round by round, so chunking
        never perturbs it.
        """
        return self._run_chunk(iterations, start_round)

    # -- checkpoint support ------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-able mid-trajectory snapshot (round ``k`` of a longer run).

        Captures everything :meth:`load_state` needs to continue a run
        bit-identically on a freshly constructed engine with the same
        trials: the iterate batch, every trial's attack-stream generator
        state, and the recorded ``0..k`` trajectory prefix (so the resumed
        engine's final trace still spans the whole run).
        """
        k = int(self.iteration)
        state: Dict[str, object] = {
            "schema": "repro/batch-sim-state/v1",
            "iteration": k,
            "estimates": self.estimates.tolist(),
            "rng_states": [rng.bit_generator.state for rng in self.rngs],
            **self._trace.state(k),
            "step_sizes": self._etas[:k].tolist(),
            "quarantine": self.guard.state_dict(),
        }
        if self._snapshots is not None:
            stored = len(state["trajectory"]) - 1
            state["snapshots"] = self._snapshots[:stored].tolist()
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto a fresh engine.

        The engine must have been constructed with the same trials and
        problem; continuing with ``run(T, start_round=k)`` reproduces the
        uninterrupted run bit for bit.  The snapshot's ``step_sizes`` are
        not read back: they depend on the round index alone, so the
        resumed run fills its whole ``0..T`` schedule once.
        """
        schema = state.get("schema")
        if schema != "repro/batch-sim-state/v1":
            raise ValueError(f"unrecognized engine-state schema: {schema!r}")
        if self.iteration != 0:
            raise RuntimeError(
                "load_state needs a freshly constructed engine"
            )
        k = int(state["iteration"])
        s = len(self.trials)
        self._trace.load(state)
        self._load_rng_states(state["rng_states"])
        self.iteration = k
        self.estimates = np.asarray(state["estimates"], dtype=float)
        if self.record_gradients:
            self._snapshots = np.asarray(
                state["snapshots"], dtype=float
            ).reshape(-1, s, self.n, self.d)
        # Absent in pre-quarantine snapshots: every trial stays active.
        quarantine = state.get("quarantine")
        if quarantine is not None:
            self.guard.load_state(quarantine)


def run_dgd_batch(
    costs: Union[Sequence[CostFunction], CostStack],
    trials: Sequence[BatchTrial],
    constraint: ConvexSet,
    schedule: StepSchedule,
    initial_estimate: Sequence[float],
    iterations: int,
    record_gradients: bool = False,
    trace_rounds=None,
) -> BatchTrace:
    """Convenience wrapper mirroring :func:`repro.distsys.simulator.run_dgd`.

    Aggregators referenced by registry name can be resolved by the caller via
    :func:`repro.aggregators.registry.make_aggregator`; trials here carry
    instances so a whole sweep shares kernels per filter group.
    """
    simulator = BatchSimulator(
        costs=costs,
        trials=trials,
        constraint=constraint,
        schedule=schedule,
        initial_estimate=initial_estimate,
        record_gradients=record_gradients,
        trace_rounds=trace_rounds,
    )
    # Convenience runners report to the ambient recorder: a no-op
    # with the default NULL_RECORDER, a live stream under the CLI's
    # --telemetry-out / the orchestrator's worker recorders.
    return simulator.set_recorder(current_recorder()).run(iterations)
