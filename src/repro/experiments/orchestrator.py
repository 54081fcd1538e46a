"""Crash-safe, sharded sweep execution: cells, supervision, resume.

Every experiment family decomposes its sweep into *cells* — independent
units of work (a configuration times a seed chunk) identified by a stable
string key — and routes them through :func:`run_sweep_cells`:

* **Content-addressed checkpointing.**  The sweep spec is hashed
  (:func:`~repro.experiments.checkpoint.spec_hash`) and each completed
  cell's result is atomically written to a
  :class:`~repro.experiments.checkpoint.CheckpointStore` under
  ``(spec_hash, cell_key)``.  A re-run of the same spec skips finished
  cells (``resume=True``, the default); an interrupted sweep — crash,
  ``kill -9``, ``max_cells`` budget — resumes from the last completed
  cell, and a *changed* spec hashes differently so it can never collide
  with stale results.

* **Supervised multi-process sharding.**  ``jobs`` worker processes run
  cells concurrently, each attempt in its own ``multiprocessing`` child
  with a per-cell deadline.  A worker that raises a *deterministic* error
  fails the cell immediately (re-running identical code on identical
  inputs cannot help); a worker that crashes (killed, segfault), exceeds
  the ``cell_timeout``, or raises a *transient* error (``MemoryError``,
  ``OSError``) is retried with exponential backoff plus deterministic
  jitter, up to ``max_retries`` times.

* **Packed attempts.**  Supervised cells are sent in contiguous packs,
  one forked attempt per pack, so a worker runs several cells in one
  batched engine.  Each member is still settled, checkpointed and
  reported under its own key, and a pack that fails in any way falls
  back to one-cell attempts.  A pack's deadline is ``cell_timeout`` times
  its member count: inside a pack the timeout limits the whole pack, not
  each member.

* **Graceful degradation.**  A cell whose retry budget is exhausted does
  not abort the sweep: it lands in the report's ``failed_cells`` with its
  error provenance, every other cell completes, and the caller decides
  what a partial sweep is worth.

* **Mid-trajectory engine checkpoints.**  Long cells can additionally
  snapshot their *engine* state every ``checkpoint_every`` rounds through
  :func:`run_engine_checkpointed`, under the contract that
  :func:`run_sweep_cells` hands each cell's attempt — the resumable
  ``run(T, start_round=k)`` / ``state_dict`` / ``load_state`` contract of
  the batched engines guarantees the resumed trajectory is bit-identical
  to an uninterrupted run (DESIGN.md, "resume ≡ uninterrupted").

A family supplies one worker: a picklable callable (a module-level
function, or a ``functools.partial`` of one) from a list of JSON-able
payload dicts to one JSON-able result per payload, in order.  Every
attempt — a pack, a one-cell attempt, an in-process cell — calls it on
its own payloads; a one-cell attempt under a checkpoint contract also
gets the cell's contract as the second argument.  Workers re-derive
everything else (problem instances, topologies) from the payloads, so a
cell is reproducible from its checkpoint key alone.
"""

from __future__ import annotations

import bisect
import multiprocessing
import random
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry.recorder import (
    NULL_RECORDER,
    EventSink,
    Recorder,
    current_recorder,
    use_recorder,
)
from .checkpoint import CheckpointStore, spec_hash

__all__ = [
    "TRANSIENT_EXCEPTIONS",
    "SweepCell",
    "OrchestratorConfig",
    "CellOutcome",
    "SweepReport",
    "EngineCheckpointer",
    "run_engine_checkpointed",
    "run_sweep_cells",
]

#: Exception types a worker may raise transiently: the same cell can
#: succeed on retry (freed memory, recovered filesystem).  Everything
#: else is deterministic — the cell's inputs fully determine the error —
#: and is failed without retry.
TRANSIENT_EXCEPTIONS = (MemoryError, OSError)

@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    ``key`` is the cell's stable identity inside its sweep (checkpoint
    addressing, report provenance); ``payload`` is the JSON-able argument
    the family's worker function receives.
    """

    key: str
    payload: Dict[str, object]


@dataclass
class OrchestratorConfig:
    """Execution policy for :func:`run_sweep_cells`.

    ``jobs=1`` with no ``cell_timeout`` runs cells in the calling process
    (no supervision overhead); any concurrency or timeout spawns one
    supervised child process per attempt.  ``max_cells`` bounds how many
    cells this *invocation* may execute (cached cells are free) — the
    sweep reports ``interrupted=True`` and the next resumed invocation
    picks up the remainder, which is also how the CI smoke test kills a
    sweep "halfway" deterministically.  ``checkpoint_every`` snapshots
    each cell's engine into the ``checkpoint_dir`` store, so it needs one.
    """

    jobs: int = 1
    checkpoint_dir: Optional[Union[str, Path]] = None
    resume: bool = True
    cell_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.25
    max_cells: Optional[int] = None
    checkpoint_every: Optional[int] = None
    #: seconds between ``cell_heartbeat`` telemetry events per running
    #: cell (supervised mode, recording on); liveness for long cells.
    heartbeat_every: float = 1.0

    def __post_init__(self):
        if not self.heartbeat_every > 0:
            raise ValueError(
                f"heartbeat_every must be positive, got "
                f"heartbeat_every={self.heartbeat_every!r}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got jobs={self.jobs!r}")
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ValueError(
                f"cell_timeout must be positive, got "
                f"cell_timeout={self.cell_timeout!r}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got "
                f"max_retries={self.max_retries!r}"
            )
        if self.backoff < 0:
            raise ValueError(
                f"backoff must be non-negative, got backoff={self.backoff!r}"
            )
        if self.max_cells is not None and self.max_cells < 0:
            raise ValueError(
                f"max_cells must be non-negative, got "
                f"max_cells={self.max_cells!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got "
                f"checkpoint_every={self.checkpoint_every!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every needs a checkpoint_dir to write engine "
                f"snapshots to, got checkpoint_every={self.checkpoint_every!r}"
                " and checkpoint_dir=None"
            )


@dataclass
class CellOutcome:
    """How one cell ended: completed / cached / failed / skipped."""

    key: str
    status: str
    result: Optional[object] = None
    error: Optional[str] = None
    attempts: int = 0


@dataclass
class SweepReport:
    """The orchestrated sweep's provenance: every cell's outcome.

    ``failed_cells`` is the graceful-degradation contract: a sweep with
    exhausted cells still returns, and the report says exactly which
    cells are missing and why.
    """

    spec_hash: str
    outcomes: List[CellOutcome] = field(default_factory=list)
    interrupted: bool = False

    def _by_status(self, status: str) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def completed(self) -> List[CellOutcome]:
        """Cells executed to completion this invocation."""
        return self._by_status("completed")

    @property
    def cached(self) -> List[CellOutcome]:
        """Cells answered from the checkpoint store."""
        return self._by_status("cached")

    @property
    def skipped(self) -> List[CellOutcome]:
        """Cells not attempted (``max_cells`` budget exhausted)."""
        return self._by_status("skipped")

    @property
    def failed_cells(self) -> List[Dict[str, object]]:
        """Provenance of every exhausted cell: key, error, attempts."""
        return [
            {"key": o.key, "error": o.error, "attempts": o.attempts}
            for o in self.outcomes
            if o.status == "failed"
        ]

    @property
    def quarantined_cells(self) -> List[Dict[str, object]]:
        """Provenance of every usable cell that froze trials mid-run.

        Unlike ``failed_cells`` these cells *returned* — their surviving
        trials are real results — but some trials were quarantined by the
        engine's health guard (non-finite iterate, divergence, aggregator
        refusal).  Each entry carries the cell key plus the engine's
        per-trial quarantine records, so a post-mortem can name the exact
        trial, round, and reason without re-running anything.
        """
        flagged: List[Dict[str, object]] = []
        for o in self.outcomes:
            if o.status not in ("completed", "cached"):
                continue
            records = _quarantine_records(o.result)
            if records:
                flagged.append({"key": o.key, "quarantined": records})
        return flagged

    def results(self) -> Dict[str, object]:
        """Usable cell results by key (completed plus cached), in cell
        order."""
        return {
            o.key: o.result
            for o in self.outcomes
            if o.status in ("completed", "cached")
        }


def _quarantine_records(result: object) -> List[Dict[str, object]]:
    """The quarantine records a cell result carries, if any.

    Cell workers attach the engine's per-trial quarantine summary under a
    ``"quarantined"`` key; anything else (legacy results, non-dict
    payloads) reads as clean.
    """
    if not isinstance(result, dict):
        return []
    records = result.get("quarantined")
    if not isinstance(records, list):
        return []
    return [r for r in records if isinstance(r, dict)]


def _cell_quarantines(
    trace, offsets: Sequence[int], **fields: object
) -> List[List[Dict[str, object]]]:
    """Each cell's quarantine records, for cells sharing one engine.

    Cell ``c`` owns the trials from ``offsets[c]`` up to the next cell's
    first; its records are renumbered to its own trial order and labelled
    (after any family ``fields``), whatever else shared its engine.
    """
    cells: List[List[Dict[str, object]]] = [[] for _ in offsets]
    for record in trace.quarantined:
        trial = int(record["trial"])
        c = bisect.bisect_right(offsets, trial) - 1
        label = trace.labels[trial]
        cells[c].append(
            {**record, "trial": trial - offsets[c], **fields, "label": label}
        )
    return cells


def _with_quarantine(result: dict, records: list) -> dict:
    """A cell result carrying its quarantine records, if it has any."""
    return {**result, "quarantined": records} if records else result


# -- mid-trajectory engine checkpointing --------------------------------------


@dataclass
class EngineCheckpointer:
    """Partial-state persistence for one cell's engine run.

    Snapshots live in the same store as completed cells, under the cell's
    key suffixed ``@partial`` (same atomic write, same corruption
    tolerance), and are dropped when the cell completes.
    """

    store: CheckpointStore
    sweep_hash: str
    key: str

    @property
    def partial_key(self) -> str:
        return f"{self.key}@partial"

    def load(self) -> Optional[Dict[str, object]]:
        state = self.store.get(self.sweep_hash, self.partial_key)
        return state if isinstance(state, dict) else None

    def save(self, state: Dict[str, object]) -> None:
        self.store.put(self.sweep_hash, self.partial_key, state)

    def discard(self) -> None:
        self.store.discard(self.sweep_hash, self.partial_key)


def run_engine_checkpointed(
    make_engine: Callable[[], object],
    iterations: int,
    checkpoint_every: Optional[int] = None,
    checkpointer: Optional[EngineCheckpointer] = None,
):
    """Drive a resumable engine to ``iterations`` with periodic snapshots.

    The engine contract is the batched engines' resume API:
    ``run(T, start_round=k)`` (absolute horizon, explicit resume point),
    ``state_dict()`` at chunk boundaries, ``load_state`` onto a fresh
    instance.  A usable partial snapshot restores the engine and the run
    continues from its round; a corrupt or incompatible snapshot (code or
    spec drift) is discarded and the run restarts from round 0.  Either
    way the result is bit-identical to an uninterrupted
    ``make_engine().run(iterations)`` — the resumable-engine invariant
    pinned by ``tests/distsys/test_resumable_engines.py``.
    """
    recorder = current_recorder()
    engine = make_engine()
    if checkpointer is not None:
        state = checkpointer.load()
        if state is not None:
            try:
                engine.load_state(state)
            except Exception:
                checkpointer.discard()
                engine = make_engine()
    if engine.iteration >= iterations:
        # The partial snapshot already covers the horizon; one final chunk
        # cannot be empty, so rebuild and rerun (cheap, and only reachable
        # when a spec shrank its horizon under the same key — which a
        # spec-hash change normally prevents).
        engine = make_engine()
    if recorder.enabled and hasattr(engine, "set_recorder"):
        # One central attachment point: every checkpointed engine reports
        # its stage timings into the ambient stream without the family
        # workers threading a recorder through make_engine.
        engine.set_recorder(recorder)
    chunk = checkpoint_every or iterations
    trace = None
    while engine.iteration < iterations:
        boundary = min(iterations, engine.iteration + chunk)
        with recorder.span(
            "engine_chunk",
            start=int(engine.iteration),
            boundary=int(boundary),
        ):
            trace = engine.run(boundary, start_round=engine.iteration)
        if checkpointer is not None and engine.iteration < iterations:
            checkpointer.save(engine.state_dict())
    if checkpointer is not None:
        checkpointer.discard()
    return trace


def _run_cell_engine(
    make_engine: Callable[[], object],
    iterations: int,
    checkpoint: Optional[Dict[str, object]] = None,
):
    """Run a family's engine to ``iterations`` under the ambient recorder,
    through :func:`run_engine_checkpointed` when a cell's ``checkpoint``
    contract (see :func:`run_sweep_cells`) is given; returns the trace."""
    if not checkpoint:
        return make_engine().set_recorder(current_recorder()).run(iterations)
    return run_engine_checkpointed(
        make_engine,
        iterations,
        checkpoint_every=int(checkpoint["every"]),
        checkpointer=EngineCheckpointer(
            store=CheckpointStore(checkpoint["dir"]),
            sweep_hash=str(checkpoint["spec_hash"]),
            key=str(checkpoint["key"]),
        ),
    )


# -- supervised execution -----------------------------------------------------


class _PipeSink(EventSink):
    """Stream a worker's events to the supervisor as ``("evt", ...)``.

    Rides the attempt's existing result pipe; every event tuple precedes
    the final ``("ok", ...)``/``("err", ...)`` message, and pipes are
    FIFO, so the supervisor sees the worker's whole stream before it
    settles the cell.  A broken pipe (supervisor killed the attempt)
    drops the event — telemetry must never fail a worker.
    """

    def __init__(self, conn):
        self._conn = conn

    def write(self, event: Dict[str, object]) -> None:
        try:
            self._conn.send(("evt", event))
        except (BrokenPipeError, OSError, ValueError):
            pass


def _cell_entry(conn, worker, args, telemetry=None) -> None:
    """Child-process entry: run the worker on ``args``, report over the pipe.

    ``telemetry`` is ``None`` (recording off — the historical code path)
    or the attempt's ``(key, attempt number, progress_every, members)``:
    the child then installs a pipe-backed recorder as the process-global
    one, so the worker, its engines, and the checkpoint layer all stream
    into the supervisor's merged event stream.  Span ids are prefixed
    with ``key#a<attempt>:`` so no two attempts (or the supervisor
    itself) can collide.  A pack's attempt runs under its pack key, and
    its one ``cell`` span lists the member cell keys in ``members``.
    """
    recorder: Recorder = NULL_RECORDER
    span_fields: Dict[str, object] = {}
    if telemetry is not None:
        key, attempt, progress_every, members = telemetry
        recorder = Recorder(
            sinks=[_PipeSink(conn)],
            context={"cell": key, "attempt": int(attempt)},
            span_prefix=f"{key}#a{attempt}:",
            progress_every=progress_every,
        )
        if members:
            span_fields["members"] = list(members)
    try:
        with use_recorder(recorder):
            if recorder.enabled:
                try:
                    with recorder.span("cell", **span_fields):
                        result = worker(*args)
                finally:
                    recorder.flush_metrics()
            else:
                result = worker(*args)
    except BaseException as exc:
        transient = isinstance(exc, TRANSIENT_EXCEPTIONS)
        message = f"{type(exc).__name__}: {exc}"
        try:
            conn.send(("err", transient, message, traceback.format_exc()))
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", result))
    except BaseException as exc:
        # Unpicklable/oversized result: deterministic — same payload will
        # fail the same way, so report it as such rather than crashing.
        conn.send(("err", False, f"result not transmittable: {exc!r}", ""))
    finally:
        conn.close()


def _retry_delay(key: str, attempt: int, backoff: float) -> float:
    """Exponential backoff with deterministic jitter in [1.0, 1.25)."""
    jitter = random.Random(f"{key}#{attempt}").random()
    return backoff * (2 ** (attempt - 1)) * (1.0 + 0.25 * jitter)


@dataclass
class _Attempt:
    """One attempt at a tuple of cells.

    A single cell is a plain cell attempt.  Several cells are a pack, run
    through the worker in one supervised child: a pack is always its
    cells' first attempt and never retries — when it fails, each member
    is queued again as a plain attempt 1.
    """

    cells: Tuple[SweepCell, ...]
    attempt: int
    eligible_at: float = 0.0

    @property
    def key(self) -> str:
        if len(self.cells) == 1:
            return self.cells[0].key
        return f"pack[{self.cells[0].key}..{self.cells[-1].key}]"

    @property
    def tags(self) -> Dict[str, object]:
        """Fields tagging a pack member's lifecycle events with its pack."""
        return {"pack": self.key} if len(self.cells) > 1 else {}

    def worker_args(self, contract: Optional[Dict[str, object]]) -> tuple:
        """The worker's arguments: the cells' payloads, plus the cell's
        checkpoint contract when the sweep has one (such attempts are
        never packs)."""
        payloads = [cell.payload for cell in self.cells]
        if contract is None:
            return (payloads,)
        (cell,) = self.cells
        return (payloads, {**contract, "key": cell.key})

    def result_error(self, results: object) -> Optional[str]:
        """Why a worker's return value cannot settle this attempt (not a
        list of one result per cell), or ``None`` when it can."""
        if isinstance(results, list) and len(results) == len(self.cells):
            return None
        got = (
            f"{len(results)} results"
            if isinstance(results, list)
            else type(results).__name__
        )
        return f"worker returned {got} for {len(self.cells)} cells"

    def completed(
        self, recorder: Recorder, results: List[object], seconds: float
    ) -> List[CellOutcome]:
        """Emit each cell's ``cell_completed`` and return its outcome."""
        if recorder.enabled:
            for cell in self.cells:
                recorder.emit(
                    "cell_completed",
                    cell=cell.key,
                    attempts=self.attempt,
                    seconds=seconds,
                    **self.tags,
                )
        return [
            CellOutcome(
                key=cell.key,
                status="completed",
                result=result,
                attempts=self.attempt,
            )
            for cell, result in zip(self.cells, results)
        ]


def _pack_cells(cells: Sequence[SweepCell], jobs: int) -> List[_Attempt]:
    """Cut the pending cells, in order, into near-equal contiguous packs.

    ``min(jobs, len(cells))`` packs: one per worker, since a pack's time
    is mostly per-round cost, which splitting it further only repeats.
    A pack of one cell is a plain cell attempt.
    """
    count = min(jobs, len(cells))
    queue: List[_Attempt] = []
    start = 0
    for index in range(count):
        size = len(cells) // count + (index < len(cells) % count)
        members = tuple(cells[start : start + size])
        queue.append(_Attempt(cells=members, attempt=1))
        start += size
    return queue


def _classify_failure(
    item: _Attempt,
    transient: bool,
    message: str,
    config: OrchestratorConfig,
    now: float,
) -> Tuple[Optional[_Attempt], Optional[CellOutcome]]:
    """Retry the attempt or fail the cell, per the transience contract."""
    if transient and item.attempt <= config.max_retries:
        return (
            _Attempt(
                cells=item.cells,
                attempt=item.attempt + 1,
                eligible_at=now
                + _retry_delay(item.key, item.attempt, config.backoff),
            ),
            None,
        )
    return (
        None,
        CellOutcome(
            key=item.key,
            status="failed",
            error=message,
            attempts=item.attempt,
        ),
    )


@dataclass
class _Running:
    """One live supervised attempt and its supervision bookkeeping."""

    proc: object
    conn: object
    deadline: Optional[float]
    item: _Attempt
    started: float
    last_beat: float


def _settle(
    recorder: Recorder,
    item: _Attempt,
    retry: Optional[_Attempt],
    error: str,
    seconds: float,
) -> None:
    """Emit the retry/failed lifecycle event for one failed attempt."""
    if not recorder.enabled:
        return
    if retry is not None:
        recorder.emit(
            "cell_retry",
            cell=item.key,
            attempt=item.attempt,
            error=error,
            seconds=seconds,
        )
        recorder.count("cell_retries")
    else:
        recorder.emit(
            "cell_failed",
            cell=item.key,
            attempts=item.attempt,
            error=error,
            seconds=seconds,
        )


def _run_cells_supervised(
    queue: List[_Attempt],
    worker: Callable[..., List[object]],
    contract: Optional[Dict[str, object]],
    config: OrchestratorConfig,
    recorder: Recorder = NULL_RECORDER,
    on_complete: Optional[Callable[[CellOutcome], None]] = None,
) -> List[CellOutcome]:
    """One supervised child process per attempt; jobs-wide concurrency.

    ``queue`` holds cell attempts and packs (:func:`_pack_cells`).  A pack
    runs its members' payloads through ``worker`` in one child, under one
    deadline of ``cell_timeout × members`` for the whole pack, and its
    members start, complete and settle one by one, each event tagged
    ``pack=<pack key>``.  A pack that raises, crashes, overruns its
    deadline or returns the wrong number of results emits
    ``pack_fallback`` and queues every member as a plain attempt 1 under
    the per-cell deadline.  A member that raises, crashes or hangs past
    the pack's budget therefore reads as in an unpacked run; a member
    slower than ``cell_timeout`` that fits in the pack's budget completes,
    where an unpacked run would time it out.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    outcomes: List[CellOutcome] = []
    running: Dict[str, _Running] = {}
    pending = list(queue)

    def finish(key: str) -> None:
        run = running.pop(key)
        run.conn.close()
        run.proc.join(timeout=5.0)
        if run.proc.is_alive():
            run.proc.kill()
            run.proc.join()

    def settle(outcome: CellOutcome) -> None:
        outcomes.append(outcome)
        if on_complete is not None:
            on_complete(outcome)

    def fail(run: _Running, transient: bool, error: str, now: float):
        item = run.item
        elapsed = now - run.started
        if len(item.cells) > 1:
            if recorder.enabled:
                recorder.emit(
                    "pack_fallback",
                    pack=item.key,
                    cells=len(item.cells),
                    error=error,
                    seconds=elapsed,
                )
            finish(item.key)
            pending.extend(
                _Attempt(cells=(cell,), attempt=1) for cell in item.cells
            )
            return
        retry, outcome = _classify_failure(
            item, transient, error, config, now
        )
        _settle(recorder, item, retry, error, elapsed)
        finish(item.key)
        if outcome is not None:
            settle(outcome)
        if retry is not None:
            pending.append(retry)

    while pending or running:
        now = time.monotonic()
        # Launch every eligible attempt that fits under the jobs cap.
        launchable = [
            item
            for item in pending
            if item.eligible_at <= now and item.key not in running
        ]
        for item in launchable:
            if len(running) >= config.jobs:
                break
            pending.remove(item)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_cell_entry,
                args=(
                    child_conn,
                    worker,
                    item.worker_args(contract),
                    (
                        item.key,
                        item.attempt,
                        recorder.progress_every,
                        [cell.key for cell in item.cells]
                        if len(item.cells) > 1
                        else (),
                    )
                    if recorder.enabled
                    else None,
                ),
            )
            proc.start()
            child_conn.close()
            deadline = (
                now + config.cell_timeout * len(item.cells)
                if config.cell_timeout is not None
                else None
            )
            running[item.key] = _Running(
                proc=proc,
                conn=parent_conn,
                deadline=deadline,
                item=item,
                started=now,
                last_beat=now,
            )
            if recorder.enabled:
                for cell in item.cells:
                    recorder.emit(
                        "cell_started",
                        cell=cell.key,
                        attempt=item.attempt,
                        **item.tags,
                    )
        if recorder.enabled:
            recorder.gauge(
                "cells_running",
                sum(len(run.item.cells) for run in running.values()),
            )
            recorder.gauge(
                "cells_pending", sum(len(item.cells) for item in pending)
            )

        progressed = False
        now = time.monotonic()
        for key in list(running):
            run = running[key]
            item = run.item
            message = None
            try:
                # Drain the attempt's streamed telemetry events (if any)
                # up to its final ok/err message — pipes are FIFO, so the
                # final message is always last.
                while run.conn.poll():
                    received = run.conn.recv()
                    if received[0] == "evt":
                        recorder.forward(received[1])
                        continue
                    message = received
                    break
            except (EOFError, OSError):
                message = None  # writer died mid-send: treat as crash
                if run.proc.is_alive():
                    run.proc.join(timeout=5.0)
            if message is not None:
                progressed = True
                if message[0] == "ok":
                    error = item.result_error(message[1])
                    if error is None:
                        completed = item.completed(
                            recorder, message[1], now - run.started
                        )
                        finish(key)
                        for outcome in completed:
                            settle(outcome)
                    else:
                        fail(run, False, error, now)
                else:
                    _, transient, text, _ = message
                    fail(run, transient, text, now)
            elif not run.proc.is_alive():
                progressed = True
                # A crash is environmental until retries exhaust.
                fail(
                    run,
                    True,
                    f"worker crashed (exit code {run.proc.exitcode})",
                    now,
                )
            elif run.deadline is not None and now > run.deadline:
                progressed = True
                run.proc.kill()
                run.proc.join()
                limit = config.cell_timeout * len(item.cells)
                if len(item.cells) > 1:
                    text = f"pack timed out after {limit:g}s"
                else:
                    text = f"cell timed out after {limit:g}s"
                    if recorder.enabled:
                        recorder.emit(
                            "cell_timeout",
                            cell=key,
                            attempt=item.attempt,
                            seconds=now - run.started,
                        )
                fail(run, True, text, now)
            elif (
                recorder.enabled
                and now - run.last_beat >= config.heartbeat_every
            ):
                run.last_beat = now
                for cell in item.cells:
                    recorder.emit(
                        "cell_heartbeat",
                        cell=cell.key,
                        attempt=item.attempt,
                        elapsed=now - run.started,
                        **item.tags,
                    )
        if not progressed:
            time.sleep(0.01)
    if recorder.enabled:
        recorder.gauge("cells_running", 0)
        recorder.gauge("cells_pending", 0)
    return outcomes


def _run_cells_in_process(
    queue: List[_Attempt],
    worker: Callable[..., List[object]],
    contract: Optional[Dict[str, object]],
    config: OrchestratorConfig,
    recorder: Recorder = NULL_RECORDER,
    on_complete: Optional[Callable[[CellOutcome], None]] = None,
) -> List[CellOutcome]:
    """The unsupervised fast path: jobs=1, no timeout, one cell per
    attempt, and the supervised path's retry rule — a retry waits out its
    backoff in place."""
    outcomes: List[CellOutcome] = []
    for item in queue:
        while item is not None:
            (cell,) = item.cells
            started = time.monotonic()
            transient = False
            try:
                if recorder.enabled:
                    recorder.emit(
                        "cell_started", cell=cell.key, attempt=item.attempt
                    )
                    try:
                        with recorder.span("cell", cell=cell.key):
                            results = worker(*item.worker_args(contract))
                    finally:
                        # Delta-flush so this cell's engine metrics land
                        # in their own metrics event, like a worker's.
                        recorder.flush_metrics()
                else:
                    results = worker(*item.worker_args(contract))
                error = item.result_error(results)
            except Exception as exc:
                transient = isinstance(exc, TRANSIENT_EXCEPTIONS)
                error = f"{type(exc).__name__}: {exc}"
            now = time.monotonic()
            if error is None:
                settled = item.completed(recorder, results, now - started)
                retry = None
            else:
                retry, outcome = _classify_failure(
                    item, transient, error, config, now
                )
                _settle(recorder, item, retry, error, now - started)
                settled = [outcome] if outcome is not None else []
            for outcome in settled:
                outcomes.append(outcome)
                if on_complete is not None:
                    on_complete(outcome)
            if retry is not None:
                time.sleep(max(0.0, retry.eligible_at - time.monotonic()))
            item = retry
    return outcomes


def run_sweep_cells(
    spec: Dict[str, object],
    cells: Sequence[SweepCell],
    worker: Callable[..., List[object]],
    config: Optional[OrchestratorConfig] = None,
    recorder: Optional[Recorder] = None,
) -> SweepReport:
    """Execute a sweep's cells crash-safely; returns the full report.

    ``spec`` is the sweep's canonical description — everything that shapes
    the results — hashed into the checkpoint address space.  ``cells``
    must carry unique keys; results are reported in cell order regardless
    of completion order.  ``worker`` must be picklable: a module-level
    function or a ``functools.partial`` of one (it runs in child
    processes whenever supervision is on).  It maps a list of payloads to
    one result per payload, in order; a return value of any other shape
    fails the attempt without retry.

    Supervised sweeps cut their pending cells into ``min(jobs, pending)``
    contiguous packs and run each pack as one attempt; a pack that fails
    in any way falls back to one-cell attempts.  A pack's deadline is
    ``cell_timeout × members``: inside a pack the timeout limits the whole
    pack, not each member.  The in-process path and mid-trajectory
    checkpointed cells always run one cell per attempt.

    With ``config.checkpoint_every`` set, each attempt also passes the
    worker its cell's checkpoint contract (``dir``, ``spec_hash``, ``key``,
    ``every``) as the second argument.

    ``recorder`` (default: the ambient :func:`current_recorder`) receives
    the sweep's full lifecycle stream — scheduled/cached/skipped cells,
    per-attempt started/heartbeat/retry/timeout/completed/failed events
    (worker events stream back over the attempt pipes), and the
    checkpoint layer's read/write/corruption events.  Recording is
    observational only: with the default :data:`NULL_RECORDER` this
    function is behaviourally identical to the pre-telemetry one.
    """
    config = config or OrchestratorConfig()
    rec = recorder if recorder is not None else current_recorder()
    sweep_hash = spec_hash(spec)
    seen = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate cell key: {cell.key!r}")
        seen.add(cell.key)

    with use_recorder(rec), rec.span(
        "sweep", sweep_hash=sweep_hash, cells=len(cells)
    ):
        store = (
            CheckpointStore(config.checkpoint_dir)
            if config.checkpoint_dir is not None
            else None
        )
        by_key: Dict[str, CellOutcome] = {}
        to_run: List[SweepCell] = []
        for cell in cells:
            if rec.enabled:
                rec.emit("cell_scheduled", cell=cell.key)
            cached = (
                store.get(sweep_hash, cell.key)
                if (store is not None and config.resume)
                else None
            )
            if cached is not None:
                if rec.enabled:
                    rec.emit("cell_cached", cell=cell.key)
                by_key[cell.key] = CellOutcome(
                    key=cell.key, status="cached", result=cached
                )
            else:
                to_run.append(cell)

        interrupted = False
        if config.max_cells is not None and len(to_run) > config.max_cells:
            for cell in to_run[config.max_cells:]:
                if rec.enabled:
                    rec.emit("cell_skipped", cell=cell.key)
                by_key[cell.key] = CellOutcome(key=cell.key, status="skipped")
            to_run = to_run[: config.max_cells]
            interrupted = True
        # Each cell's engine snapshots under the cell's own key.
        contract = (
            {
                "dir": str(config.checkpoint_dir),
                "spec_hash": sweep_hash,
                "every": int(config.checkpoint_every),
            }
            if config.checkpoint_every is not None
            else None
        )

        def persist(outcome: CellOutcome) -> None:
            # Checkpoints land the moment each cell completes, not at
            # sweep end: a sweep killed -9 mid-run resumes from every
            # cell that finished before the kill.
            if outcome.status != "completed" or store is None:
                return
            try:
                store.put(sweep_hash, outcome.key, outcome.result)
            except OSError as exc:
                # Disk full (or any filesystem trouble) on the
                # parent-side checkpoint write must not discard a
                # finished cell: the result stays in this report,
                # only the on-disk copy is missing, so the cell
                # simply re-runs on a future resume.
                warnings.warn(
                    f"checkpoint write failed for cell "
                    f"{outcome.key!r} at "
                    f"{store.path_for(sweep_hash, outcome.key)}: "
                    f"{exc}; result kept in memory, cell will "
                    f"re-run on resume",
                    RuntimeWarning,
                    stacklevel=2,
                )
                if rec.enabled:
                    rec.emit(
                        "checkpoint_write_failed",
                        cell=outcome.key,
                        error=str(exc),
                    )

        supervised = config.jobs > 1 or config.cell_timeout is not None
        # A mid-trajectory snapshot belongs to one cell's engine, so
        # checkpointed cells never share an engine with other cells.
        queue = (
            _pack_cells(to_run, config.jobs)
            if supervised and contract is None
            else [_Attempt(cells=(cell,), attempt=1) for cell in to_run]
        )
        execute = (
            _run_cells_supervised if supervised else _run_cells_in_process
        )
        executed = execute(queue, worker, contract, config, rec, persist)
        for outcome in executed:
            by_key[outcome.key] = outcome
        if rec.enabled:
            for outcome in executed:
                records = _quarantine_records(outcome.result)
                if records:
                    rec.emit(
                        "cell_quarantined",
                        cell=outcome.key,
                        trials=len(records),
                        records=records,
                    )

        report = SweepReport(
            spec_hash=sweep_hash,
            outcomes=[by_key[cell.key] for cell in cells],
            interrupted=interrupted,
        )
    rec.flush_metrics()
    return report
