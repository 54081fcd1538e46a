"""The recorder protocol: spans, metrics and structured events.

Every engine and the sweep orchestrator report what they are doing
through one small surface — a :class:`Recorder` — and pay (near) nothing
when nobody is listening:

* **Hierarchical spans** — ``sweep → cell → engine run → round chunk``.
  :meth:`Recorder.span` opens a context manager that emits a
  ``span_open``/``span_close`` event pair with a monotonic duration;
  nested spans record their parent id, so a post-mortem can reconstruct
  the whole execution tree from the flat event stream.

* **Counters, gauges and histograms** — rounds, stalls, retries, masked
  kernel calls, queue depths, per-stage wall time.  Metrics accumulate
  in-process (plain dict updates, no event per increment) and are
  flushed as one ``metrics`` event by :meth:`Recorder.flush_metrics`;
  flushing *resets* the accumulators, so summing ``metrics`` events over
  a stream never double-counts.

* **Structured events** — one JSON object per line in the
  :class:`JsonlSink`, every event stamped with the versioned
  :data:`EVENT_SCHEMA` so readers can reject streams they do not
  understand (the same versioning discipline as the checkpoint
  payloads).

* **An injectable monotonic clock** — ``Recorder(clock=...)`` takes any
  zero-argument float callable.  Tests inject a fake clock and get
  bit-stable event streams; production uses ``time.perf_counter``.

The **zero-overhead contract**: the module-level :data:`NULL_RECORDER`
(a :class:`NullRecorder`) is the default everywhere.  Its ``enabled``
flag is ``False`` and every method is a no-op, so a hot tensor loop
guards its instrumentation with one attribute check per round
(``if recorder.enabled``) and otherwise runs the exact pre-telemetry
code path.  ``BENCH_telemetry.json`` measures that guard and CI gates
it at ≤3% on the engine bench.

The **determinism contract**: a recorder observes; it never touches an
engine's RNG streams, estimates, or traces.  Trajectories are
bit-identical with recording on or off
(``tests/distsys/test_telemetry_determinism.py``), which is what makes
telemetry safe to leave attached to a production sweep.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Callable, Dict, IO, List, Optional, Sequence, Union

__all__ = [
    "EVENT_SCHEMA",
    "EventSink",
    "MemorySink",
    "JsonlSink",
    "ProgressSink",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "set_current_recorder",
    "use_recorder",
]

#: Versioned schema tag stamped on every emitted event, like the
#: checkpoint payloads' ``repro/checkpoint-cell/v1``.
EVENT_SCHEMA = "repro/telemetry-event/v1"

#: Event keys owned by the recorder itself; ``emit`` fields may not
#: shadow them (they would corrupt the stream's structure).
_RESERVED_KEYS = frozenset(
    {"schema", "type", "t", "span", "parent", "name", "duration", "status"}
)


# -- sinks ---------------------------------------------------------------------


class EventSink:
    """Where emitted events go; one recorder fans out to many sinks."""

    def write(self, event: Dict[str, object]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further writes are undefined."""


class MemorySink(EventSink):
    """Collect events in a list — the test and summarize-in-process sink."""

    def __init__(self):
        self.events: List[Dict[str, object]] = []

    def write(self, event: Dict[str, object]) -> None:
        self.events.append(event)


class JsonlSink(EventSink):
    """One JSON document per line, flushed per event.

    Accepts a path (opened/owned by the sink) or an open text stream
    (borrowed; ``close`` only flushes it).  Per-event flushing means a
    ``kill -9`` loses at most the line being written — the reader side
    (:func:`repro.telemetry.summarize.read_events`) tolerates a torn
    final line the same way checkpoint reads tolerate torn cells.
    """

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            self._stream: IO[str] = open(target, "w")
            self._owned = True
        else:
            self._stream = target
            self._owned = False

    def write(self, event: Dict[str, object]) -> None:
        self._stream.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._owned:
            self._stream.close()
        else:
            try:
                self._stream.flush()
            except ValueError:  # borrowed stream already closed
                pass


class ProgressSink(EventSink):
    """Human-oriented live progress lines for the noteworthy events.

    Renders the cell lifecycle and engine progress (``round_chunk``)
    onto ``stream`` (stderr by default) and ignores the rest of the
    stream — the JSONL sink is the complete record; this one is for
    watching a sweep live from a terminal.
    """

    #: Lifecycle event types worth a terminal line.
    NOTEWORTHY = frozenset(
        {
            "cell_scheduled",
            "cell_started",
            "cell_cached",
            "cell_skipped",
            "cell_retry",
            "cell_timeout",
            "cell_completed",
            "cell_failed",
            "cell_heartbeat",
            "cell_quarantined",
            "pack_fallback",
            "round_chunk",
            "checkpoint_corrupt",
            "trial_quarantined",
        }
    )

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream if stream is not None else sys.stderr

    def write(self, event: Dict[str, object]) -> None:
        kind = event.get("type")
        if kind not in self.NOTEWORTHY:
            return
        cell = event.get("cell", event.get("pack"))
        detail: List[str] = []
        for key in ("attempt", "attempts", "error", "elapsed", "seconds",
                    "iteration", "rounds_per_s", "delay", "key",
                    "trial", "round", "reason"):
            if key in event:
                value = event[key]
                if isinstance(value, float):
                    value = f"{value:.3g}"
                detail.append(f"{key}={value}")
        prefix = f"[{str(kind)[5:] if str(kind).startswith('cell_') else kind}]"
        target = f" {cell}" if cell else ""
        suffix = f" ({', '.join(detail)})" if detail else ""
        try:
            self.stream.write(f"{prefix}{target}{suffix}\n")
            self.stream.flush()
        except (OSError, ValueError):
            # Progress display is best-effort: a closed/broken terminal
            # stream must never take the sweep down with it.
            pass


# -- spans ---------------------------------------------------------------------


class _Span:
    """Context manager emitting a ``span_open``/``span_close`` pair."""

    __slots__ = ("recorder", "name", "fields", "span_id", "opened_at")

    def __init__(self, recorder: "Recorder", name: str, fields: Dict[str, object]):
        self.recorder = recorder
        self.name = name
        self.fields = fields
        self.span_id: Optional[str] = None
        self.opened_at = 0.0

    def __enter__(self) -> "_Span":
        self.opened_at = self.recorder.clock()
        self.span_id = self.recorder._open_span(self.name, self.fields)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.recorder._close_span(
            self.name,
            self.span_id,
            self.recorder.clock() - self.opened_at,
            status="error" if exc_type is not None else "ok",
            error=None if exc is None else f"{exc_type.__name__}: {exc}",
        )
        return False


class _NullSpan:
    """The shared do-nothing span of the :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: The four protocol stages, in loop order — the keys of the per-stage
#: wall-time histograms every instrumented engine populates.
STAGES = ("observe", "fabricate", "aggregate", "project")


def _metric_key(name: str, labels: Dict[str, object]) -> str:
    """Flatten a metric name plus labels into one stable string key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Recorder:
    """Collects spans, metrics and events; fans events out to sinks.

    One recorder is one *stream*: a single process's (or worker's)
    ordered sequence of events plus its metric accumulators.  Sharing a
    recorder across threads is supported for the metric dictionaries
    (guarded updates) but span nesting assumes one logical execution —
    exactly the engines' single-threaded reality.

    ``context`` entries are merged into every emitted event (e.g. the
    orchestrator stamps worker streams with their cell key), and
    ``span_prefix`` namespaces span ids so forwarded worker streams can
    never collide with the supervisor's own spans.
    """

    enabled = True

    def __init__(
        self,
        sinks: Sequence[EventSink] = (),
        clock: Optional[Callable[[], float]] = None,
        context: Optional[Dict[str, object]] = None,
        span_prefix: str = "",
        progress_every: Optional[int] = None,
    ):
        if progress_every is not None and progress_every < 1:
            raise ValueError(
                f"progress_every must be >= 1, got {progress_every!r}"
            )
        self.sinks: List[EventSink] = list(sinks)
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        self.context = dict(context or {})
        self.span_prefix = span_prefix
        self.progress_every = progress_every
        self._span_stack: List[str] = []
        self._next_span = 1
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        #: name -> [count, total, min, max]
        self._histograms: Dict[str, List[float]] = {}
        self._rounds_in_chunk = 0
        self._chunk_seconds = 0.0

    # -- event plumbing ---------------------------------------------------
    def _write(self, event: Dict[str, object]) -> None:
        for sink in self.sinks:
            sink.write(event)

    def forward(self, event: Dict[str, object]) -> None:
        """Pass a fully-formed event through to this recorder's sinks.

        Used by the orchestrator's supervisor to merge event streams
        arriving from worker processes — the events keep their own span
        ids (already namespaced by the worker's ``span_prefix``) and
        context.
        """
        self._write(event)

    def emit(self, type_: str, **fields: object) -> None:
        """Emit one structured event at the current span."""
        event: Dict[str, object] = {
            "schema": EVENT_SCHEMA,
            "type": type_,
            "t": self.clock(),
        }
        if self._span_stack:
            event["span"] = self._span_stack[-1]
        if self.context:
            event.update(self.context)
        for key, value in fields.items():
            if key in _RESERVED_KEYS:
                raise ValueError(f"field {key!r} shadows a reserved event key")
            event[key] = value
        self._write(event)

    # -- spans ------------------------------------------------------------
    def span(self, name: str, **fields: object) -> _Span:
        """A context manager recording one hierarchical span."""
        return _Span(self, name, fields)

    def _open_span(self, name: str, fields: Dict[str, object]) -> str:
        span_id = f"{self.span_prefix}{self._next_span}"
        self._next_span += 1
        event: Dict[str, object] = {
            "schema": EVENT_SCHEMA,
            "type": "span_open",
            "t": self.clock(),
            "span": span_id,
            "name": name,
        }
        if self._span_stack:
            event["parent"] = self._span_stack[-1]
        if self.context:
            event.update(self.context)
        event.update(fields)
        self._span_stack.append(span_id)
        self._write(event)
        return span_id

    def _close_span(
        self,
        name: str,
        span_id: Optional[str],
        duration: float,
        status: str,
        error: Optional[str],
    ) -> None:
        if self._span_stack and self._span_stack[-1] == span_id:
            self._span_stack.pop()
        event: Dict[str, object] = {
            "schema": EVENT_SCHEMA,
            "type": "span_close",
            "t": self.clock(),
            "span": span_id,
            "name": name,
            "duration": duration,
            "status": status,
        }
        if self.context:
            event.update(self.context)
        if error is not None:
            event["error"] = error
        self._write(event)

    # -- metrics ----------------------------------------------------------
    def count(self, name: str, value: float = 1, **labels: object) -> None:
        """Add ``value`` to a monotonically-increasing counter."""
        key = _metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a point-in-time gauge (queue depth, cells running, ...)."""
        with self._lock:
            self._gauges[_metric_key(name, labels)] = float(value)

    def observe_value(self, name: str, value: float, **labels: object) -> None:
        """Record one histogram observation (count/total/min/max)."""
        key = _metric_key(name, labels)
        with self._lock:
            stats = self._histograms.get(key)
            if stats is None:
                self._histograms[key] = [1, value, value, value]
            else:
                stats[0] += 1
                stats[1] += value
                if value < stats[2]:
                    stats[2] = value
                if value > stats[3]:
                    stats[3] = value

    def stage_times(
        self,
        observe: float,
        fabricate: float,
        aggregate: float,
        project: float,
        iteration: int,
    ) -> None:
        """The engine hot-path entry: one call per recorded round.

        Updates the four per-stage wall-time histograms plus the round
        counter without emitting any event, and — when ``progress_every``
        is set — emits a ``round_chunk`` progress event every that many
        rounds with the chunk's rounds/s.
        """
        with self._lock:
            for stage, dt in (
                ("observe", observe),
                ("fabricate", fabricate),
                ("aggregate", aggregate),
                ("project", project),
            ):
                key = f"stage_seconds{{stage={stage}}}"
                stats = self._histograms.get(key)
                if stats is None:
                    self._histograms[key] = [1, dt, dt, dt]
                else:
                    stats[0] += 1
                    stats[1] += dt
                    if dt < stats[2]:
                        stats[2] = dt
                    if dt > stats[3]:
                        stats[3] = dt
            self._counters["rounds"] = self._counters.get("rounds", 0) + 1
        if self.progress_every is not None:
            self._rounds_in_chunk += 1
            self._chunk_seconds += observe + fabricate + aggregate + project
            if self._rounds_in_chunk >= self.progress_every:
                rate = (
                    self._rounds_in_chunk / self._chunk_seconds
                    if self._chunk_seconds > 0
                    else float("inf")
                )
                self.emit(
                    "round_chunk",
                    iteration=int(iteration),
                    rounds=self._rounds_in_chunk,
                    rounds_per_s=rate,
                )
                self._rounds_in_chunk = 0
                self._chunk_seconds = 0.0

    def metrics_snapshot(self) -> Dict[str, object]:
        """The current accumulators, without flushing them."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "count": stats[0],
                        "total": stats[1],
                        "min": stats[2],
                        "max": stats[3],
                    }
                    for name, stats in self._histograms.items()
                },
            }

    def flush_metrics(self) -> None:
        """Emit a ``metrics`` event and reset the accumulators.

        Flushing is delta-style on purpose: every ``metrics`` event in a
        stream holds only what accrued since the previous flush, so
        summarize tooling can *sum* them — across cells, workers and
        chunks — without double counting.
        """
        with self._lock:
            if not (self._counters or self._gauges or self._histograms):
                return
            snapshot = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "count": stats[0],
                        "total": stats[1],
                        "min": stats[2],
                        "max": stats[3],
                    }
                    for name, stats in self._histograms.items()
                },
            }
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        self.emit("metrics", **snapshot)

    def close(self) -> None:
        """Flush pending metrics and close every owned sink."""
        self.flush_metrics()
        for sink in self.sinks:
            sink.close()


class NullRecorder(Recorder):
    """The default recorder: disabled, and every operation is a no-op.

    Hot loops branch on :attr:`enabled` once per round; everything else
    (spans around whole runs, counters in cold I/O paths) may simply
    call through — each call lands on one of these empty methods.
    """

    enabled = False

    def __init__(self):
        super().__init__(sinks=(), clock=time.perf_counter)

    def emit(self, type_: str, **fields: object) -> None:
        pass

    def forward(self, event: Dict[str, object]) -> None:
        pass

    def span(self, name: str, **fields: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def count(self, name: str, value: float = 1, **labels: object) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def observe_value(self, name: str, value: float, **labels: object) -> None:
        pass

    def stage_times(
        self,
        observe: float,
        fabricate: float,
        aggregate: float,
        project: float,
        iteration: int,
    ) -> None:
        pass

    def flush_metrics(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide default recorder; engines and the checkpoint layer
#: fall back to it so un-instrumented callers pay only no-op calls.
NULL_RECORDER = NullRecorder()

_current: Recorder = NULL_RECORDER


def current_recorder() -> Recorder:
    """The process-global active recorder (default: :data:`NULL_RECORDER`).

    Worker processes install their pipe-backed recorder here so sweep
    workers, engines and the checkpoint store all report into the same
    stream without threading a recorder through every signature.
    """
    return _current


def set_current_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install the process-global recorder; returns the previous one."""
    global _current
    previous = _current
    _current = recorder if recorder is not None else NULL_RECORDER
    return previous


class use_recorder:
    """Context manager scoping the process-global recorder."""

    def __init__(self, recorder: Optional[Recorder]):
        self.recorder = recorder
        self._previous: Optional[Recorder] = None

    def __enter__(self) -> Recorder:
        self._previous = set_current_recorder(self.recorder)
        return current_recorder()

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_current_recorder(self._previous)
        return False
