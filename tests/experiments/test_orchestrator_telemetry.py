"""Telemetry contract of the sweep orchestrator: the lifecycle stream.

A recorded sweep must narrate every cell's life — scheduled, started,
retried, cached, completed, failed — and merge the event streams workers
emit in their child processes back into the supervisor's stream, so one
JSONL file post-mortems the whole run.  These tests drive real sweeps
(in-process and supervised) against a ``MemorySink`` and assert on the
stream, including the acceptance path: kill-and-resume surfacing its
cache hits as ``cell_cached`` events.
"""

import time
from collections import Counter
from pathlib import Path

from repro.experiments.orchestrator import (
    OrchestratorConfig,
    SweepCell,
    run_sweep_cells,
)
from repro.telemetry.recorder import MemorySink, Recorder, use_recorder
from repro.telemetry.summarize import render_summary, summarize_events

SPEC = {"family": "telemetry-test", "version": 1}


# Module-level workers: supervised attempts import them in child processes.
# A worker maps its attempt's list of payloads to one result per payload.

def _double(payloads):
    return [{"value": payload["x"] * 2} for payload in payloads]


def _explode(payloads):
    raise ValueError(f"cell {payloads[0]['x']} is unrunnable")


def _flaky(payloads):
    (payload,) = payloads
    marker = Path(payload["marker"])
    if not marker.exists():
        marker.write_text("tried")
        raise OSError("simulated transient filesystem error")
    return [{"value": payload["x"]}]


def _slow(payloads):
    (payload,) = payloads
    time.sleep(payload["seconds"])
    return [{"value": payload["x"]}]


def cells(count=3):
    return [
        SweepCell(key=f"cell-{i}", payload={"x": i}) for i in range(count)
    ]


def recorded(spec, sweep_cells, worker, config=None):
    sink = MemorySink()
    recorder = Recorder(sinks=(sink,))
    report = run_sweep_cells(spec, sweep_cells, worker, config,
                             recorder=recorder)
    return report, sink.events


def events_of(events, kind):
    return [e for e in events if e.get("type") == kind]


class TestLifecycleStream:
    def test_full_cell_lifecycle_in_process(self):
        report, events = recorded(SPEC, cells(), _double)
        assert len(report.completed) == 3
        keys = {f"cell-{i}" for i in range(3)}
        assert {e["cell"] for e in events_of(events, "cell_scheduled")} == keys
        assert {e["cell"] for e in events_of(events, "cell_started")} == keys
        completed = events_of(events, "cell_completed")
        assert {e["cell"] for e in completed} == keys
        assert all(e["attempts"] == 1 for e in completed)
        # The sweep span wraps everything and closes cleanly.
        sweep_opens = [e for e in events_of(events, "span_open")
                       if e.get("name") == "sweep"]
        assert len(sweep_opens) == 1 and sweep_opens[0]["cells"] == 3
        closes = [e for e in events_of(events, "span_close")
                  if e.get("name") == "sweep"]
        assert closes and closes[0]["status"] == "ok"

    def test_failures_and_retries_are_narrated(self, tmp_path):
        mixed = [
            SweepCell(key="flaky",
                      payload={"x": 1, "marker": str(tmp_path / "m")}),
            SweepCell(key="bad", payload={"x": 2}),
        ]

        def worker(payloads):
            if payloads[0]["x"] == 2:
                raise ValueError("unrunnable")
            return _flaky(payloads)

        report, events = recorded(
            SPEC, mixed, worker, OrchestratorConfig(backoff=0.0)
        )
        (retry,) = events_of(events, "cell_retry")
        assert retry["cell"] == "flaky" and "OSError" in retry["error"]
        (failed,) = events_of(events, "cell_failed")
        assert failed["cell"] == "bad" and "ValueError" in failed["error"]
        (completed,) = events_of(events, "cell_completed")
        assert completed["cell"] == "flaky" and completed["attempts"] == 2

    def test_kill_and_resume_surfaces_cache_hits(self, tmp_path):
        config = OrchestratorConfig(checkpoint_dir=tmp_path, max_cells=2)
        first, first_events = recorded(SPEC, cells(4), _double, config)
        assert first.interrupted
        assert {e["cell"] for e in events_of(first_events, "cell_skipped")}

        resumed, events = recorded(
            SPEC, cells(4), _double,
            OrchestratorConfig(checkpoint_dir=tmp_path),
        )
        assert not resumed.interrupted
        cached = {e["cell"] for e in events_of(events, "cell_cached")}
        assert cached == {"cell-0", "cell-1"}
        started = {e["cell"] for e in events_of(events, "cell_started")}
        assert started == {"cell-2", "cell-3"}  # cache hits never re-run

    def test_unrecorded_sweep_emits_nothing(self):
        sink = MemorySink()
        with use_recorder(Recorder(sinks=(sink,))):
            pass  # recorder active only outside the sweep
        report = run_sweep_cells(SPEC, cells(1), _double)
        assert len(report.completed) == 1
        assert sink.events == []


class TestSupervisedStream:
    """jobs/timeout paths: children stream events over the result pipe."""

    def test_worker_events_merge_into_supervisor_stream(self):
        # As many workers as cells: every attempt is one cell's child.
        config = OrchestratorConfig(jobs=4)
        report, events = recorded(SPEC, cells(4), _double, config)
        assert len(report.completed) == 4
        # Each child's cell span arrives with its worker-side context and
        # namespaced span id; the supervisor's own lifecycle events frame it.
        worker_spans = [e for e in events_of(events, "span_close")
                        if e.get("name") == "cell"]
        assert {e["cell"] for e in worker_spans} == {
            f"cell-{i}" for i in range(4)
        }
        assert all(e["status"] == "ok" for e in worker_spans)
        assert all("#a1:" in str(e["span"]) for e in worker_spans)
        assert {e["cell"] for e in events_of(events, "cell_completed")} == {
            f"cell-{i}" for i in range(4)
        }

    def test_supervised_retry_emits_retry_then_second_attempt(self, tmp_path):
        cell = SweepCell(
            key="flaky", payload={"x": 7, "marker": str(tmp_path / "m")}
        )
        report, events = recorded(
            SPEC, [cell], _flaky,
            OrchestratorConfig(cell_timeout=60.0, backoff=0.0),
        )
        (outcome,) = report.completed
        assert outcome.attempts == 2
        (retry,) = events_of(events, "cell_retry")
        assert retry["cell"] == "flaky"
        attempts = [e["attempt"] for e in events_of(events, "cell_started")]
        assert attempts == [1, 2]
        # The second attempt's worker span is namespaced by its attempt.
        spans = [e for e in events_of(events, "span_close")
                 if e.get("name") == "cell"]
        assert any("#a2:" in str(e["span"]) for e in spans)

    def test_timeout_is_narrated(self):
        cell = SweepCell(key="hang", payload={"x": 0, "seconds": 60.0})
        report, events = recorded(
            SPEC, [cell], _slow,
            OrchestratorConfig(cell_timeout=0.5, max_retries=0, backoff=0.0),
        )
        assert report.failed_cells
        (timeout,) = events_of(events, "cell_timeout")
        assert timeout["cell"] == "hang"
        (failed,) = events_of(events, "cell_failed")
        assert "timed out" in failed["error"]

    def test_heartbeats_for_long_cells(self):
        cell = SweepCell(key="slowpoke", payload={"x": 0, "seconds": 1.0})
        _, events = recorded(
            SPEC, [cell], _slow,
            OrchestratorConfig(cell_timeout=30.0, heartbeat_every=0.2),
        )
        beats = events_of(events, "cell_heartbeat")
        assert beats and all(e["cell"] == "slowpoke" for e in beats)
        assert all(e["elapsed"] > 0 for e in beats)


class TestPackedStream:
    """A packed async sweep narrates every member cell, under its own key,
    and one worker ``cell`` span per pack."""

    def test_members_narrated_once_and_one_span_per_pack(self):
        from repro.experiments.asynchronous import (
            orchestrated_asynchronous_sweep,
        )

        sink = MemorySink()
        with use_recorder(Recorder(sinks=(sink,))):
            _, report = orchestrated_asynchronous_sweep(
                staleness_bounds=(0, 2),
                drop_rates=(0.0, 0.3),
                aggregators=("cge", "cwtm"),
                iterations=40,
                seeds=(0, 1),
                attack="nan",
                config=OrchestratorConfig(jobs=2),
            )
        events = sink.events
        keys = [o.key for o in report.outcomes]
        assert len(report.completed) == len(keys) == 8
        for kind in ("cell_scheduled", "cell_started", "cell_completed"):
            assert Counter(e["cell"] for e in events_of(events, kind)) == (
                Counter(keys)
            ), kind
        members = {}
        for e in events_of(events, "cell_started"):
            members.setdefault(e["pack"], []).append(e["cell"])
        assert len(members) == 2
        assert all(
            e["pack"] in members for e in events_of(events, "cell_completed")
        )
        opens = [e for e in events_of(events, "span_open")
                 if e.get("name") == "cell"]
        assert {e["cell"]: e["members"] for e in opens} == members
        closes = [e for e in events_of(events, "span_close")
                  if e.get("name") == "cell"]
        assert sorted(e["cell"] for e in closes) == sorted(members)
        assert all(e["status"] == "ok" for e in closes)
        # Quarantines are reported per cell, in each cell's own indices.
        quarantined = events_of(events, "cell_quarantined")
        assert quarantined and all(
            0 <= r["trial"] < 2 for e in quarantined for r in e["records"]
        )
        text = render_summary(summarize_events(events))
        assert "Slowest cells" in text and "pack[" in text
