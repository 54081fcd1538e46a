"""The protocol core shared by every execution engine.

All of the repository's engines — the per-trial server simulator, the
batched lockstep sweep engine, the peer-to-peer replica simulator and the
decentralized graph engine — execute the *same* synchronous protocol round:

1. **observe** — honest participants evaluate their local gradients at the
   round's estimate(s);
2. **fabricate** — the Byzantine adversary replaces the compromised
   participants' messages (and, where no broadcast primitive is in force,
   may equivocate per edge);
3. **aggregate** — a gradient-filter condenses each decision maker's view
   into one update direction;
4. **project** — the projected gradient step moves the estimate(s).

:class:`ProtocolEngine` owns that loop as a template method; each engine is
a thin configuration supplying the four stage hooks.  The module also
centralizes the engines' input validation: duplicate/out-of-range faulty
ids and non-finite initial estimates fail loudly in every engine, and
:func:`validate_fault_count` guards the engines that *declare* a tolerance
``f`` separately from their fault set (the server simulator; batched
trials carry no declared ``f`` — their fault count is the ground truth).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.recorder import NULL_RECORDER, Recorder

__all__ = [
    "ProtocolRound",
    "ProtocolEngine",
    "validate_faulty_ids",
    "validate_fault_count",
    "validate_initial_estimate",
    "validate_attack_plan",
]


# -- trial grouping ------------------------------------------------------------

def _value_key(value) -> object:
    """A hashable, lossless key for one constructor parameter value."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_value_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _value_key(v)) for k, v in value.items()))
    if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
        return value
    if hasattr(value, "__dict__"):
        return _config_key(value)
    return id(value)  # opaque value: never merge across instances


def group_indices(count: int, key_fn) -> List[Tuple[int, np.ndarray]]:
    """Group ``range(count)`` by a key; returns (representative, indices).

    Shared by every batched engine: trials with identical filter/attack/
    schedule configurations run through one kernel invocation per group.
    """
    groups: Dict[object, List[int]] = {}
    for index in range(count):
        groups.setdefault(key_fn(index), []).append(index)
    return [(members[0], np.array(members)) for members in groups.values()]


def _config_key(obj) -> object:
    """Exact-configuration key for grouping equal filters/attacks/schedules.

    Built from the object's type and full-precision attribute values —
    ``repr`` is *not* usable here: numpy summarizes large arrays with
    ``...`` and schedules format floats with ``%g``, either of which would
    silently merge distinct configurations into one group.
    """
    if obj is None:
        return None
    return (type(obj),) + tuple(
        (name, _value_key(value)) for name, value in sorted(vars(obj).items())
    )


# -- shared input validation ---------------------------------------------------

def validate_faulty_ids(faulty_ids: Sequence[int], n: int) -> Tuple[int, ...]:
    """Normalize a faulty-id collection to a sorted tuple, loudly.

    Rejects duplicate ids (historically silently de-duplicated, masking
    misconfigured sweeps) and ids outside ``range(n)``.
    """
    ids = [int(i) for i in faulty_ids]
    seen: set = set()
    duplicates = sorted({i for i in ids if i in seen or seen.add(i)})
    if duplicates:
        raise ValueError(f"duplicate faulty ids {duplicates}")
    unknown = sorted(i for i in ids if not 0 <= i < n)
    if unknown:
        raise ValueError(f"faulty ids {unknown} out of range for n={n}")
    return tuple(sorted(ids))


def validate_fault_count(
    f: int, n: int, n_faulty: int, n_received: Optional[int] = None
) -> int:
    """Check the declared tolerance ``f`` against the actual fault count.

    The paper treats ``f`` as a known system parameter: the server must
    tolerate *up to* ``f`` faults, so a system declaring ``f`` while hosting
    more than ``f`` Byzantine agents is a silent lie — every guarantee is
    void while the run still "works".  Requires ``0 <= f < n`` and
    ``n_faulty <= f``.

    ``n_received`` makes partial attendance explicit: the synchronous
    engines always receive ``n`` messages, but an asynchronous round may
    aggregate fewer.  When given, a round whose attendance cannot outvote
    the declared tolerance (``n_received <= f``) is rejected — up to ``f``
    of the received messages may be fabricated, so such a round has no
    honest majority of inputs and must be stalled or shrunk, never
    silently aggregated as if attendance were full.
    """
    f = int(f)
    if not 0 <= f < n:
        raise ValueError(f"need 0 <= f < n, got n={n}, f={f}")
    if n_faulty > f:
        raise ValueError(
            f"{n_faulty} Byzantine agents exceed the declared tolerance f={f}"
        )
    if n_received is not None:
        n_received = int(n_received)
        if not 0 <= n_received <= n:
            raise ValueError(
                f"received {n_received} messages in a system of {n} agents"
            )
        if n_received <= f:
            raise ValueError(
                f"only {n_received} of {n} agents attended; a round tolerating "
                f"f={f} faults needs at least f+1 = {f + 1} messages"
            )
    return f


def validate_initial_estimate(
    initial_estimate: Sequence[float], dim: Optional[int] = None
) -> np.ndarray:
    """Coerce the initial estimate to a finite 1-D float vector."""
    arr = np.asarray(initial_estimate, dtype=float)
    if arr.ndim != 1:
        raise ValueError(
            f"initial estimate must be a 1-D vector, got shape {arr.shape}"
        )
    if dim is not None and arr.shape != (dim,):
        raise ValueError(
            f"initial estimate must have shape ({dim},), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("initial estimate contains non-finite entries")
    return arr


def validate_attack_plan(
    attack,
    n_faulty: int,
    omniscient: Optional[bool] = None,
    full_attendance_engine: Optional[str] = None,
) -> bool:
    """Shared validation of an engine's attack configuration.

    Every engine runs the same three preconditions: faulty agents need an
    attack to speak for them; engines that cannot represent a missing
    message (named via ``full_attendance_engine``) must reject
    crash-capable attacks (``may_be_silent``) instead of silently
    fabricating for a crashed agent; and an attack requiring omniscient
    access cannot have it explicitly withheld.  Returns the resolved
    omniscience flag (defaulting to the attack's own requirement).
    """
    if n_faulty and attack is None:
        raise ValueError("faulty agents present but no attack given")
    if attack is None:
        return False
    if full_attendance_engine is not None and attack.may_be_silent:
        raise ValueError(
            f"attack {attack.name!r} models crash-style silence; the "
            f"{full_attendance_engine} runs full-attendance lockstep — "
            "use SynchronousSimulator or AsynchronousSimulator"
        )
    if omniscient is None:
        omniscient = bool(attack.requires_omniscience)
    if attack.requires_omniscience and not omniscient:
        raise ValueError(f"attack {attack.name!r} requires omniscient access")
    return bool(omniscient)


# -- the protocol round --------------------------------------------------------

@dataclass
class ProtocolRound:
    """Mutable state threaded through one observe→fabricate→aggregate→project
    round.

    Engines populate the slots they need: the per-trial server engine keeps a
    gradient *dict* keyed by agent id, the batch engines keep ``(S, n, d)``
    tensors, and the peer-to-peer engine additionally records each replica's
    post-broadcast ``views``.  ``extras`` carries engine-specific context
    (e.g. the live Byzantine agents of the round).
    """

    iteration: int
    estimate: Optional[np.ndarray] = None     # shared estimate x_t (server/P2P)
    gradients: Any = None                     # observed→delivered messages
    views: Any = None                         # per-receiver delivery (P2P)
    aggregates: Any = None                    # filter output(s)
    eliminated: List[int] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)


class ProtocolEngine(abc.ABC):
    """Template method owning the canonical synchronous protocol loop.

    Subclasses implement the four stage hooks; the base class owns the round
    ordering, the run loop, and the (optional) per-run recording hooks used
    by trace-producing engines.
    """

    #: current iteration index; engines mirroring external state (e.g. the
    #: server's counter) may override this as a property.
    iteration: int = 0

    #: the engine's telemetry recorder.  The class-level default is the
    #: shared :data:`~repro.telemetry.recorder.NULL_RECORDER`, so every
    #: engine — including ones whose constructors predate telemetry — is
    #: born with recording off and the hot loop pays one attribute check
    #: per round (the overhead ``BENCH_telemetry.json`` gates).
    telemetry: Recorder = NULL_RECORDER

    def set_recorder(self, recorder: Optional[Recorder]) -> "ProtocolEngine":
        """Attach a telemetry recorder (``None`` restores the null one).

        Recording is strictly observational: the engine's RNG streams,
        estimates and traces are untouched, so trajectories are
        bit-identical with recording on or off (the determinism
        invariant pinned by ``tests/distsys/test_telemetry_determinism``).
        """
        self.telemetry = recorder if recorder is not None else NULL_RECORDER
        return self

    # -- stage hooks ------------------------------------------------------
    @abc.abstractmethod
    def observe(self) -> ProtocolRound:
        """Collect the honest participants' gradients for this round."""

    @abc.abstractmethod
    def fabricate(self, round: ProtocolRound) -> None:
        """Let the Byzantine adversary replace/deliver compromised messages."""

    @abc.abstractmethod
    def aggregate(self, round: ProtocolRound) -> None:
        """Apply the gradient-filter(s) to each decision maker's view."""

    @abc.abstractmethod
    def project(self, round: ProtocolRound) -> Any:
        """Apply the projected update; returns the engine's step result."""

    # -- the loop ---------------------------------------------------------
    def step(self) -> Any:
        """Run one full protocol round through the four stages."""
        if self.telemetry.enabled:
            return self._step_recorded(self.telemetry)
        round = self.observe()
        self.fabricate(round)
        self.aggregate(round)
        return self.project(round)

    def _step_recorded(self, recorder: Recorder) -> Any:
        """One round with per-stage wall-time recording.

        Only reached when a live recorder is attached; the disabled path
        in :meth:`step` stays branch-plus-dispatch identical to the
        pre-telemetry loop.
        """
        clock = recorder.clock
        t0 = clock()
        round = self.observe()
        t1 = clock()
        self.fabricate(round)
        t2 = clock()
        self.aggregate(round)
        t3 = clock()
        result = self.project(round)
        recorder.stage_times(
            t1 - t0, t2 - t1, t3 - t2, clock() - t3, self.iteration
        )
        self._record_round_metrics(recorder, round)
        return result

    def _record_round_metrics(
        self, recorder: Recorder, round: ProtocolRound
    ) -> None:
        """Engine-specific per-round counters (stalls, queue depths, ...).

        Called only when recording is on; the default records nothing.
        """

    def run(self, iterations: int) -> Any:
        """Run ``iterations`` rounds; returns the engine's run result."""
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self._begin_run(iterations)
        with self.telemetry.span(
            "engine_run",
            engine=type(self).__name__,
            rounds=int(iterations),
        ):
            for _ in range(iterations):
                self._record_step(self.step())
        return self._run_result()

    def _run_chunk(self, iterations: int, start_round: Optional[int]) -> Any:
        """The resumable engines' ``run(T, start_round=…)``.

        ``iterations`` is the *absolute* horizon ``T``.  A fresh engine
        (``start_round`` omitted) runs all ``T`` rounds; a resumed engine
        (after ``load_state``, or carrying on after an earlier ``run``)
        passes the round it stopped at and runs only ``T - start_round``
        more.  :meth:`_extend_horizon` grows the engine's per-run state to
        ``T`` first, and the returned trace spans the whole ``0..T`` run,
        bit-identical to an uninterrupted one.
        """
        start = 0 if start_round is None else int(start_round)
        if start != self.iteration:
            raise ValueError(
                f"start_round={start} but the engine is at iteration "
                f"{self.iteration}; resume exactly where the engine "
                "stopped (pass start_round=engine.iteration)"
            )
        if iterations <= start:
            raise ValueError(
                f"iterations is the absolute horizon T and must exceed "
                f"start_round; got T={iterations}, start_round={start}"
            )
        self._extend_horizon(int(iterations))
        with self.telemetry.span(
            "engine_run",
            engine=type(self).__name__,
            start_round=start,
            horizon=int(iterations),
            trials=len(self.trials),
        ):
            for _ in range(int(iterations) - start):
                self._record_step(self.step())
        return self._run_result()

    # -- quarantine bookkeeping (engines holding a TrialGuard) -------------
    def _note_quarantined(
        self, trials: Sequence[int], round_index: int, reason: str
    ) -> None:
        """Emit one telemetry event per freshly frozen trial."""
        if not trials or not self.telemetry.enabled:
            return
        for trial in trials:
            self.telemetry.emit(
                "trial_quarantined",
                trial=int(trial),
                round=int(round_index),
                reason=reason,
                engine=type(self).__name__,
            )

    def _screen(self, round_index: int, previous: Any, candidates: Any) -> Any:
        """``self.guard.screen`` plus one event per trial it froze."""
        before = set(self.guard.records)
        held = self.guard.screen(round_index, previous, candidates)
        for trial in sorted(self.guard.records.keys() - before):
            self._note_quarantined(
                [trial], round_index, str(self.guard.records[trial]["reason"])
            )
        return held

    def _load_rng_states(self, states: Sequence[Dict[str, Any]]) -> None:
        """Restore every trial's attack-stream generator from a snapshot."""
        if len(states) != len(self.rngs):
            raise ValueError(
                f"state holds {len(states)} trial generators but the "
                f"engine has {len(self.rngs)} trials"
            )
        for rng, state in zip(self.rngs, states):
            rng.bit_generator.state = state

    def _group_schedules(self, schedules: Sequence[Any]) -> None:
        """Group the trials by equal step schedule and empty ``_etas``.

        A group that covers every trial indexes its column through a
        slice, so :meth:`_grow_step_sizes` fills it without a scatter.
        """
        self._schedule_groups = [
            (schedules[rep], idx if idx.size < len(schedules) else slice(None))
            for rep, idx in group_indices(
                len(schedules), lambda index: _config_key(schedules[index])
            )
        ]
        #: ``(T, S)`` step sizes, filled per run (``_grow_step_sizes``)
        self._etas = np.empty((0, len(schedules)))

    def _grow_step_sizes(self, horizon: int) -> None:
        """Extend the ``(T, S)`` step sizes ``_etas`` to ``horizon`` rounds.

        Step sizes depend on the round index alone, so only the rounds not
        yet filled call their ``_schedule_groups`` schedule: a run cut into
        chunks makes one call per round and group, like an uninterrupted
        one, and a restored engine (``_etas`` empty) fills its prefix once.
        """
        done = self._etas.shape[0]
        if horizon <= done:
            return
        etas = np.empty((horizon, len(self.trials)))
        etas[:done] = self._etas
        for sched, idx in self._schedule_groups:
            etas[done:, idx] = np.array(
                [sched(t) for t in range(done, horizon)]
            )[:, None]
        self._etas = etas

    def _project_all(self, estimates: np.ndarray) -> np.ndarray:
        """Project every agent iterate of an ``(S, n, d)`` batch at once."""
        s, n, d = estimates.shape
        flat = self.constraint.project_batch(estimates.reshape(s * n, d))
        return np.asarray(flat).reshape(s, n, d)

    # -- per-run recording hooks (trace-producing engines override) -------
    def _begin_run(self, iterations: int) -> None:
        """Allocate per-run recording state (default: none)."""

    def _extend_horizon(self, horizon: int) -> None:
        """Grow resumable per-run state to ``horizon`` rounds (default:
        none)."""

    def _record_step(self, result: Any) -> None:
        """Record one step's result during :meth:`run` (default: none)."""

    def _run_result(self) -> Any:
        """The value :meth:`run` returns (default: ``None``)."""
        return None
