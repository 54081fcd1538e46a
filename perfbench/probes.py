"""Timing probes the benchmark installs around the library's public calls.

Both probes offer ``probe.call(label)``, a context manager each workload
wraps around every top-level library call it makes, and both keep what they
measure in memory until the run ends.  Every call is bracketed, outside its
timed span, by calibration bursts that give the host's speed right around
it (:func:`calibration_seconds`):

* :class:`PhaseClock` is the untraced probe.  It wraps only each engine's
  ``step`` (two clock reads per protocol round) so a call's time splits into
  set-up (before the first round), round loop, and the tail after the last
  round, with no recorder attached.
* :class:`Tracer` is the traced probe.  It wraps the public functions of every
  layer in spans, attaches a live :class:`~repro.telemetry.recorder.Recorder`
  with a :class:`~repro.telemetry.recorder.MemorySink` as the ambient
  recorder, and folds the spans into per-layer inclusive and self times.

Nothing here edits the library: wrappers replace class attributes and module
globals for the lifetime of one probe and ``close()`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.telemetry.recorder import MemorySink, Recorder, use_recorder

clock = time.perf_counter
_MISSING = object()


def calibration_seconds(bursts: int = 3) -> float:
    """Median time of a fixed burst of small NumPy and Python work.

    The burst mixes the operations the engines' hot loops are made of (small
    array sorts and reductions, Python loops and dicts) and never touches the
    library, so it tracks the host's current speed and nothing else.  It is
    short (a few ms) so that it samples the speed right next to a call.
    """
    points = np.random.default_rng(0).normal(size=(64, 6, 2))
    times = []
    for _ in range(bursts):
        t0 = clock()
        for _ in range(200):
            np.sort(points, axis=1).mean(axis=1)
            sum(range(50))
            {i: i for i in range(20)}
        times.append(clock() - t0)
    return sorted(times)[len(times) // 2]


class Patches:
    """Attribute replacements that ``close()`` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    def wrap_method(self, cls, name: str, make: Callable) -> None:
        """Replace the plain method ``cls.<name>`` (own or inherited)."""
        self.replace(cls, name, make(getattr(cls, name)))

    def wrap_function(self, func: Callable, make: Callable) -> None:
        """Replace ``func`` in every ``repro`` module that binds it.

        Engines import helpers by name (``from .faults import
        sample_network_run``), so the function object is bound in each
        importing module, not only where it is defined.
        """
        wrapped = make(func)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.replace(module, attr, wrapped)

    def close(self) -> None:
        for owner, name, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved.clear()


@dataclass
class Call:
    """One top-level library call made by a workload."""

    label: str
    start: float
    end: float = 0.0
    first_round: Optional[float] = None
    last_round: Optional[float] = None
    #: the last in-process engine that ran a round inside this call
    engine: object = None
    #: mean of the calibration bursts right before and right after the call
    calibration: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Probe:
    def __init__(self, engine_classes) -> None:
        self.calls: List[Call] = []
        self._open: Optional[Call] = None
        self._patches = Patches()
        for cls in engine_classes:
            self._patches.wrap_method(cls, "step", self._timed_step)

    def _timed_step(self, step):
        @functools.wraps(step)
        def timed(engine):
            t0 = clock()
            result = step(engine)
            call = self._open
            if call is not None:
                if call.first_round is None:
                    call.first_round = t0
                call.last_round = clock()
                call.engine = engine
            return result

        return timed

    @contextlib.contextmanager
    def call(self, label: str):
        before = calibration_seconds()
        record = Call(label, clock())
        self._open = record
        try:
            yield record
        finally:
            record.end = clock()
            self._open = None
            record.calibration = (before + calibration_seconds()) / 2
            self.calls.append(record)

    def close(self) -> None:
        self._patches.close()


class PhaseClock(_Probe):
    """Untraced probe: finds each call's round loop from ``step`` alone."""


@dataclass
class LayerTotals:
    """Per-span-name folds of a traced run."""

    inclusive: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_time: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    #: bytes taken from wrapped calls' results (``account=``)
    bytes: Counter = field(default_factory=Counter)


class Tracer(_Probe):
    """Traced probe: spans around every layer call, plus a live recorder.

    A span's *self time* is its duration minus that of its direct child
    spans.  Inclusive time and call counts are taken on the outermost span
    of a name only, so a layer that re-enters itself is not counted twice.
    ``call()`` opens the root span :attr:`ROOT`, whose self time is the
    part of the run no layer span covers.
    """

    ROOT = "workload"

    def __init__(self, engine_classes) -> None:
        super().__init__(engine_classes)
        self.sink = MemorySink()
        self.recorder = Recorder(sinks=[self.sink])
        self.totals = LayerTotals()
        #: every closed span as ``(name, start, end, depth)``
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._depth: Counter = Counter()

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str) -> None:
        self._stack.append([name, clock(), 0.0])
        self._depth[name] += 1

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        end = clock()
        duration = end - start
        self._depth[name] -= 1
        totals = self.totals
        totals.self_time[name] += duration - children
        if self._depth[name] == 0:
            totals.inclusive[name] += duration
            totals.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((name, start, end, len(self._stack)))

    def wrap(self, name: str, func: Callable, account: Optional[Callable] = None):
        """``func`` inside a span while a call is open; ``account(result)``
        adds result bytes (on the outermost span of the name only)."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._open is None:
                return func(*args, **kwargs)
            self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit()
            if account is not None and self._depth[name] == 0:
                self.totals.bytes[name] += account(result)
            return result

        return traced

    def span_method(self, cls, name: str, span: str, account=None) -> None:
        self._patches.wrap_method(cls, name, lambda f: self.wrap(span, f, account))

    def span_function(self, func: Callable, span: str, account=None) -> None:
        self._patches.wrap_function(func, lambda f: self.wrap(span, f, account))

    def span_context(self, func: Callable, namer: Callable) -> None:
        """Span every ``with func(...)`` block, named by ``namer(...)``."""

        def make(original):
            @contextlib.contextmanager
            def traced(*args, **kwargs):
                self._enter(namer(*args, **kwargs))
                try:
                    with original(*args, **kwargs):
                        yield
                finally:
                    self._exit()

            return traced

        self._patches.wrap_function(func, make)

    # -- calls ------------------------------------------------------------
    @contextlib.contextmanager
    def call(self, label: str):
        with use_recorder(self.recorder), super().call(label) as record:
            self._enter(self.ROOT)
            try:
                yield record
            finally:
                self._exit()

    def events(self) -> List[Dict[str, object]]:
        """The recorder's event stream, metrics flushed."""
        self.recorder.flush_metrics()
        return self.sink.events

    def self_time_table(self) -> List[tuple]:
        """``(layer, self seconds)`` rows, largest first, then the root
        span's self time as ``unattributed_s``."""
        rows = sorted(
            (
                (name, seconds)
                for name, seconds in self.totals.self_time.items()
                if name != self.ROOT
            ),
            key=lambda row: -row[1],
        )
        rows.append(("unattributed_s", self.totals.self_time.get(self.ROOT, 0.0)))
        return rows
