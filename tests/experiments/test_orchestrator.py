"""Fault-injection tests for the crash-safe sweep orchestrator.

The contract under attack: whatever a cell's worker does — raise, die,
hang, or leave a corrupted checkpoint behind — the sweep must neither
hang nor lose cells.  Deterministic errors fail fast (retrying identical
code on identical inputs cannot help), environmental failures retry with
backoff, and exhausted cells degrade into ``report.failed_cells`` while
every other cell completes.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.checkpoint import CheckpointStore, spec_hash
from repro.experiments.orchestrator import (
    EngineCheckpointer,
    OrchestratorConfig,
    SweepCell,
    run_engine_checkpointed,
    run_sweep_cells,
)
from repro.experiments.runner import SweepSpec, orchestrated_regression_sweep
from repro.telemetry.recorder import MemorySink, Recorder

SPEC = {"family": "test", "version": 1}


# Workers live at module level: supervised attempts run them in child
# processes, so they must be importable, and everything they need must
# arrive through the JSON payloads.  A worker maps its attempt's list of
# payloads to one result per payload.

def _double(payloads, checkpoint=None):
    return [{"value": payload["x"] * 2} for payload in payloads]


def _explode(payloads):
    raise ValueError(f"cell {payloads[0]['x']} is unrunnable")


def _flaky(payloads):
    """Fails transiently until a marker file exists, then succeeds."""
    (payload,) = payloads
    marker = Path(payload["marker"])
    if not marker.exists():
        marker.write_text("tried")
        raise OSError("simulated transient filesystem error")
    return [{"value": payload["x"]}]


def _die(payloads):
    """Hard-crashes the worker process once, then succeeds."""
    (payload,) = payloads
    marker = Path(payload["marker"])
    if not marker.exists():
        marker.write_text("tried")
        os._exit(42)
    return [{"value": payload["x"]}]


def _hang(payloads):
    (payload,) = payloads
    time.sleep(payload["seconds"])
    return [{"value": payload["x"]}]


def _poisoned(payloads):
    """``_double``, unless a payload's poison makes the attempt raise, die
    or hang, or (``short``) drop its last result."""
    for payload in payloads:
        poison = payload.get("poison")
        if poison == "raise":
            raise ValueError(f"cell {payload['x']} is unrunnable")
        if poison == "exit":
            os._exit(42)
        if poison == "hang":
            time.sleep(60.0)
    results = _double(payloads)
    if any(payload.get("poison") == "short" for payload in payloads):
        results.pop()
    return results


def _scripted(payloads):
    """One cell's scripted fate: ``raise`` a deterministic error, ``flaky``
    (one transient error, then success), ``transient`` (always a transient
    error), or succeed."""
    (payload,) = payloads
    script = payload.get("script")
    if script == "raise":
        raise ValueError(f"cell {payload['x']} is unrunnable")
    if script == "transient":
        raise OSError("disk on fire")
    if script == "flaky":
        return _flaky(payloads)
    return _double(payloads)


def _miscounted(payloads):
    """Returns the wrong shape: ``payload["returns"]`` picks too few
    results, too many, or a bare result instead of a list."""
    results = _double(payloads)
    returns = payloads[0]["returns"]
    if returns == "none":
        return []
    if returns == "extra":
        return results + results
    return results[0]


def _contract_echo(payloads, checkpoint=None):
    """Each result records its attempt's size and the contract it got."""
    return [
        {"x": payload["x"], "members": len(payloads), "checkpoint": checkpoint}
        for payload in payloads
    ]


def cells(count=3):
    return [
        SweepCell(key=f"cell-{i}", payload={"x": i}) for i in range(count)
    ]


class TestInProcessExecution:
    def test_results_in_cell_order(self):
        report = run_sweep_cells(SPEC, cells(), _double)
        assert [o.key for o in report.outcomes] == [
            "cell-0", "cell-1", "cell-2",
        ]
        assert [o.result["value"] for o in report.outcomes] == [0, 2, 4]
        assert not report.interrupted and not report.failed_cells

    def test_deterministic_error_fails_fast_others_complete(self):
        mixed = [
            SweepCell(key="good", payload={"x": 1}),
            SweepCell(key="bad", payload={"x": 2}),
        ]

        def worker(payloads):
            (payload,) = payloads
            if payload["x"] == 2:
                raise ValueError("unrunnable")
            return [{"value": payload["x"]}]

        report = run_sweep_cells(SPEC, mixed, worker)
        assert len(report.completed) == 1
        (failed,) = report.failed_cells
        assert failed["key"] == "bad"
        assert failed["attempts"] == 1  # no retry for deterministic errors
        assert "ValueError" in failed["error"]
        assert set(report.results()) == {"good"}

    def test_transient_error_retries_to_success(self, tmp_path):
        cell = SweepCell(
            key="flaky", payload={"x": 7, "marker": str(tmp_path / "m")}
        )
        report = run_sweep_cells(
            SPEC, [cell], _flaky, OrchestratorConfig(backoff=0.0)
        )
        (outcome,) = report.completed
        assert outcome.attempts == 2
        assert outcome.result == {"value": 7}

    def test_transient_retries_exhaust_into_failed_cells(self, tmp_path):
        def always_transient(payloads):
            raise OSError("disk on fire")

        report = run_sweep_cells(
            SPEC,
            cells(1),
            always_transient,
            OrchestratorConfig(max_retries=2, backoff=0.0),
        )
        (failed,) = report.failed_cells
        assert failed["attempts"] == 3  # initial try + 2 retries
        assert "disk on fire" in failed["error"]

    def test_duplicate_cell_keys_rejected(self):
        dupes = [SweepCell("same", {"x": 0}), SweepCell("same", {"x": 1})]
        with pytest.raises(ValueError, match="duplicate cell key"):
            run_sweep_cells(SPEC, dupes, _double)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(jobs=0),
            dict(cell_timeout=0.0),
            dict(max_retries=-1),
            dict(backoff=-0.5),
            dict(max_cells=-1),
            dict(checkpoint_every=0),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            OrchestratorConfig(**kwargs)

    def test_checkpoint_every_needs_a_checkpoint_dir(self, tmp_path):
        # Without a store no engine snapshot could be written.
        with pytest.raises(
            ValueError, match="checkpoint_every.*checkpoint_dir"
        ):
            OrchestratorConfig(jobs=2, checkpoint_every=5)
        OrchestratorConfig(jobs=2, checkpoint_every=5, checkpoint_dir=tmp_path)


class TestCheckpointing:
    def config(self, tmp_path, **kwargs):
        return OrchestratorConfig(checkpoint_dir=tmp_path, **kwargs)

    def test_warm_store_answers_from_cache(self, tmp_path):
        first = run_sweep_cells(SPEC, cells(), _double, self.config(tmp_path))
        second = run_sweep_cells(SPEC, cells(), _double, self.config(tmp_path))
        assert len(first.completed) == 3
        assert len(second.cached) == 3 and not second.completed
        assert second.results() == first.results()

    def test_no_resume_recomputes(self, tmp_path):
        run_sweep_cells(SPEC, cells(), _double, self.config(tmp_path))
        report = run_sweep_cells(
            SPEC, cells(), _double, self.config(tmp_path, resume=False)
        )
        assert len(report.completed) == 3 and not report.cached

    def test_changed_spec_does_not_collide(self, tmp_path):
        run_sweep_cells(SPEC, cells(), _double, self.config(tmp_path))
        other = dict(SPEC, version=2)
        report = run_sweep_cells(other, cells(), _double, self.config(tmp_path))
        assert len(report.completed) == 3 and not report.cached

    def test_corrupted_checkpoint_is_recomputed(self, tmp_path):
        config = self.config(tmp_path)
        run_sweep_cells(SPEC, cells(), _double, config)
        store = CheckpointStore(tmp_path)
        victim = store.path_for(spec_hash(SPEC), "cell-1")
        victim.write_text(victim.read_text()[: 10])  # truncated JSON
        report = run_sweep_cells(SPEC, cells(), _double, config)
        statuses = {o.key: o.status for o in report.outcomes}
        assert statuses == {
            "cell-0": "cached", "cell-1": "completed", "cell-2": "cached",
        }
        assert report.results()["cell-1"] == {"value": 2}

    def test_max_cells_interrupts_then_resume_finishes(self, tmp_path):
        config = self.config(tmp_path, max_cells=2)
        first = run_sweep_cells(SPEC, cells(5), _double, config)
        assert first.interrupted
        assert len(first.completed) == 2 and len(first.skipped) == 3
        second = run_sweep_cells(SPEC, cells(5), _double, config)
        assert second.interrupted  # 3 left > 2 budget
        third = run_sweep_cells(SPEC, cells(5), _double, config)
        assert not third.interrupted
        assert set(third.results()) == {f"cell-{i}" for i in range(5)}

    def test_failed_cells_are_not_checkpointed(self, tmp_path):
        config = self.config(tmp_path)
        run_sweep_cells(SPEC, cells(1), _explode, config)
        # The failure must not poison the store: a fixed worker completes.
        report = run_sweep_cells(SPEC, cells(1), _double, config)
        assert len(report.completed) == 1 and not report.cached


class TestSupervisedExecution:
    """One child process per attempt: crashes, hangs, and real sharding."""

    def test_worker_kill_is_retried_to_success(self, tmp_path):
        cell = SweepCell(
            key="dies-once", payload={"x": 5, "marker": str(tmp_path / "m")}
        )
        report = run_sweep_cells(
            SPEC,
            [cell],
            _die,
            OrchestratorConfig(cell_timeout=60.0, backoff=0.0),
        )
        (outcome,) = report.completed
        assert outcome.attempts == 2
        assert outcome.result == {"value": 5}

    def test_worker_crash_exhausts_into_failed_cells(self, tmp_path):
        def die_forever(payloads):
            os._exit(13)

        report = run_sweep_cells(
            SPEC,
            cells(1),
            die_forever,
            OrchestratorConfig(
                cell_timeout=60.0, max_retries=1, backoff=0.0
            ),
        )
        (failed,) = report.failed_cells
        assert failed["attempts"] == 2
        assert "crashed" in failed["error"]

    def test_timeout_kills_and_fails_the_cell(self):
        cell = SweepCell(key="hang", payload={"x": 0, "seconds": 60.0})
        started = time.monotonic()
        report = run_sweep_cells(
            SPEC,
            [cell],
            _hang,
            OrchestratorConfig(
                cell_timeout=0.5, max_retries=0, backoff=0.0
            ),
        )
        elapsed = time.monotonic() - started
        (failed,) = report.failed_cells
        assert "timed out" in failed["error"]
        assert elapsed < 30.0  # killed, not joined to completion

    def test_deterministic_error_not_retried_under_supervision(self):
        report = run_sweep_cells(
            SPEC,
            cells(1),
            _explode,
            OrchestratorConfig(cell_timeout=60.0, backoff=0.0),
        )
        (failed,) = report.failed_cells
        assert failed["attempts"] == 1
        assert "ValueError" in failed["error"]

    def test_sharded_jobs_complete_every_cell_in_order(self):
        report = run_sweep_cells(
            SPEC, cells(6), _double, OrchestratorConfig(jobs=3)
        )
        assert [o.key for o in report.outcomes] == [
            f"cell-{i}" for i in range(6)
        ]
        assert [o.result["value"] for o in report.outcomes] == [
            0, 2, 4, 6, 8, 10,
        ]


class TestPackedExecution:
    """Supervised cells run in packs, and a failed pack falls back to
    per-cell attempts whose outcomes read as in an unpacked run."""

    @staticmethod
    def packs(events):
        return {e["pack"] for e in events if e.get("type") == "cell_started"
                and "pack" in e}

    def run(self, sweep_cells, config, worker=_double):
        sink = MemorySink()
        report = run_sweep_cells(
            SPEC, sweep_cells, worker, config,
            recorder=Recorder(sinks=(sink,)),
        )
        return report, sink.events

    @pytest.mark.parametrize(
        "count, jobs, packs",
        [(36, 2, 2), (100, 2, 2), (3, 2, 1), (4, 4, 0), (6, 3, 3)],
    )
    def test_pack_count(self, count, jobs, packs):
        report, events = self.run(
            cells(count), OrchestratorConfig(jobs=jobs), _double
        )
        assert [o.result["value"] for o in report.outcomes] == [
            2 * i for i in range(count)
        ]
        assert all(o.attempts == 1 for o in report.outcomes)
        assert len(self.packs(events)) == packs

    def test_checkpoint_every_runs_per_cell(self, tmp_path):
        _, events = self.run(
            cells(6),
            OrchestratorConfig(
                jobs=2, checkpoint_dir=tmp_path, checkpoint_every=5
            ),
            _double,
        )
        assert not self.packs(events)

    @pytest.mark.parametrize("poison", ["raise", "exit", "hang", "short"])
    def test_failed_pack_falls_back_per_cell(self, poison):
        sweep_cells = [
            SweepCell(
                key=f"cell-{i}",
                payload={"x": i, **({"poison": poison} if i == 1 else {})},
            )
            for i in range(6)
        ]
        config = OrchestratorConfig(
            jobs=2, cell_timeout=1.0, max_retries=1, backoff=0.0
        )
        packed, events = self.run(sweep_cells, config, worker=_poisoned)
        # As many workers as cells: every attempt holds one cell.
        unpacked, _ = self.run(
            sweep_cells, replace(config, jobs=len(sweep_cells)),
            worker=_poisoned,
        )
        (fallback,) = [e for e in events if e["type"] == "pack_fallback"]
        assert fallback["pack"] == "pack[cell-0..cell-2]"
        assert fallback["cells"] == 3
        for got in packed.outcomes:
            if got.key != "cell-1":
                assert (got.status, got.attempts, got.result) == (
                    "completed", 1, {"value": 2 * int(got.key[-1])}
                )
        got, want = packed.outcomes[1], unpacked.outcomes[1]
        assert (got.status, got.error, got.attempts, got.result) == (
            want.status, want.error, want.attempts, want.result
        )
        assert packed.failed_cells == unpacked.failed_cells

    def test_contract_reaches_each_cell_and_no_pack(self, tmp_path):
        for jobs in (2, 1):  # supervised, then in process
            store = tmp_path / f"jobs{jobs}"
            report, _ = self.run(
                cells(6),
                OrchestratorConfig(
                    jobs=jobs, checkpoint_dir=store, checkpoint_every=5
                ),
                worker=_contract_echo,
            )
            assert {o.status for o in report.outcomes} == {"completed"}
            for outcome in report.outcomes:
                assert outcome.result == {
                    "x": int(outcome.key[-1]),
                    "members": 1,
                    "checkpoint": {
                        "dir": str(store),
                        "spec_hash": spec_hash(SPEC),
                        "every": 5,
                        "key": outcome.key,
                    },
                }
        report, events = self.run(
            cells(6),
            OrchestratorConfig(jobs=2, checkpoint_dir=tmp_path / "packed"),
            worker=_contract_echo,
        )
        assert len(self.packs(events)) == 2
        assert [o.result for o in report.outcomes] == [
            {"x": i, "members": 3, "checkpoint": None} for i in range(6)
        ]


class TestOneRetryRule:
    """The in-process path and one-cell supervised attempts settle every
    failure the same way: same status, attempts and error per cell."""

    @staticmethod
    def settled(report):
        return [(o.key, o.status, o.attempts, o.error) for o in report.outcomes]

    def both_paths(self, tmp_path, worker, payloads):
        runs = []
        for path, jobs in (("in-process", 1), ("supervised", len(payloads))):
            marker_dir = tmp_path / path
            marker_dir.mkdir()
            sweep_cells = [
                SweepCell(
                    key=f"cell-{i}",
                    payload={
                        "x": i, "marker": str(marker_dir / f"m{i}"), **extra
                    },
                )
                for i, extra in enumerate(payloads)
            ]
            config = OrchestratorConfig(jobs=jobs, max_retries=2, backoff=0.0)
            runs.append(run_sweep_cells(SPEC, sweep_cells, worker, config))
        return runs

    def test_same_outcomes_in_process_and_supervised(self, tmp_path):
        in_process, supervised = self.both_paths(
            tmp_path,
            _scripted,
            [{}, {"script": "raise"}, {"script": "flaky"},
             {"script": "transient"}],
        )
        assert self.settled(in_process) == self.settled(supervised)
        assert self.settled(in_process) == [
            ("cell-0", "completed", 1, None),
            ("cell-1", "failed", 1, "ValueError: cell 1 is unrunnable"),
            ("cell-2", "completed", 2, None),
            ("cell-3", "failed", 3, "OSError: disk on fire"),
        ]
        assert [o.result for o in supervised.outcomes] == [
            o.result for o in in_process.outcomes
        ]

    @pytest.mark.parametrize("returns", ["none", "extra", "bare"])
    def test_wrong_result_count_fails_without_retry(self, tmp_path, returns):
        for report in self.both_paths(
            tmp_path, _miscounted, [{"returns": returns}] * 2
        ):
            for outcome in report.outcomes:
                assert (outcome.status, outcome.attempts) == ("failed", 1)
                assert "worker returned" in outcome.error


class TestEngineCheckpointing:
    """Mid-trajectory snapshots: resume ≡ uninterrupted at the bit level."""

    def make_engine(self):
        from repro.aggregators.registry import make_aggregator
        from repro.attacks.registry import make_attack
        from repro.distsys import BatchSimulator, BatchTrial
        from repro.experiments.paper_regression import paper_problem
        from repro.functions.batched import stack_costs

        problem = paper_problem()
        return BatchSimulator(
            costs=stack_costs(problem.costs),
            trials=[
                BatchTrial(
                    aggregator=make_aggregator("cge", problem.n, problem.f),
                    attack=make_attack("gradient_reverse"),
                    faulty_ids=tuple(problem.faulty_ids),
                    seed=0,
                )
            ],
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
        )

    def checkpointer(self, tmp_path):
        return EngineCheckpointer(
            store=CheckpointStore(tmp_path),
            sweep_hash=spec_hash(SPEC),
            key="cell-0",
        )

    def test_resume_from_partial_is_bit_identical(self, tmp_path):
        uninterrupted = self.make_engine().run(30).estimates
        ckpt = self.checkpointer(tmp_path)
        # Simulate a kill at round 12: partial state saved, process gone.
        engine = self.make_engine()
        engine.run(12, start_round=0)
        ckpt.save(engine.state_dict())
        trace = run_engine_checkpointed(
            self.make_engine, 30, checkpoint_every=10, checkpointer=ckpt
        )
        assert np.array_equal(trace.estimates, uninterrupted)
        assert ckpt.load() is None  # partial discarded on completion

    def test_corrupt_partial_restarts_from_scratch(self, tmp_path):
        uninterrupted = self.make_engine().run(20).estimates
        ckpt = self.checkpointer(tmp_path)
        ckpt.save({"schema": "repro/garbage/v0", "round": "twelve"})
        trace = run_engine_checkpointed(
            self.make_engine, 20, checkpoint_every=7, checkpointer=ckpt
        )
        assert np.array_equal(trace.estimates, uninterrupted)

    def test_truncated_partial_file_restarts_from_scratch(self, tmp_path):
        uninterrupted = self.make_engine().run(20).estimates
        ckpt = self.checkpointer(tmp_path)
        engine = self.make_engine()
        engine.run(8, start_round=0)
        ckpt.save(engine.state_dict())
        victim = ckpt.store.path_for(ckpt.sweep_hash, ckpt.partial_key)
        victim.write_text(victim.read_text()[: 20])
        trace = run_engine_checkpointed(
            self.make_engine, 20, checkpoint_every=7, checkpointer=ckpt
        )
        assert np.array_equal(trace.estimates, uninterrupted)

    def test_unchunked_run_without_checkpointer(self):
        trace = run_engine_checkpointed(self.make_engine, 15)
        assert np.array_equal(
            trace.estimates, self.make_engine().run(15).estimates
        )


class TestDelayEngineOrchestratedResume:
    """Kill-and-resume for the fused decentralized-delay batch engine."""

    def make_engine(self):
        from repro.attacks.registry import make_attack
        from repro.distsys import (
            BatchDelayedDecentralizedSimulator,
            DelayBatchTrial,
            FaultSchedule,
            IIDDrop,
            LinkDelay,
            ring_topology,
            uniform_delay,
        )
        from repro.experiments.paper_regression import paper_problem
        from repro.functions.batched import stack_costs

        problem = paper_problem()
        return BatchDelayedDecentralizedSimulator(
            costs=stack_costs(problem.costs),
            trials=[
                DelayBatchTrial(
                    aggregator="cwtm",
                    topology=ring_topology(problem.n, hops=2),
                    attack=make_attack("gradient_reverse"),
                    faulty_ids=tuple(problem.faulty_ids),
                    conditions=(
                        LinkDelay(uniform_delay(0, 2)),
                        IIDDrop(0.2),
                    ),
                    fault_schedule=FaultSchedule().crash(
                        2, at=5, recover_at=15
                    ),
                    staleness_bound=2,
                    missing_policy="shrink",
                    seed=seed,
                )
                for seed in (0, 1)
            ],
            constraint=problem.constraint,
            schedule=problem.schedule,
            initial_estimate=problem.initial_estimate,
        )

    def test_resume_from_partial_is_bit_identical(self, tmp_path):
        uninterrupted = self.make_engine().run(30).estimates
        ckpt = EngineCheckpointer(
            store=CheckpointStore(tmp_path),
            sweep_hash=spec_hash(SPEC),
            key="delay-cell-0",
        )
        # Simulate a kill at round 12: partial state saved, process gone.
        engine = self.make_engine()
        engine.run(12, start_round=0)
        ckpt.save(engine.state_dict())
        trace = run_engine_checkpointed(
            self.make_engine, 30, checkpoint_every=10, checkpointer=ckpt
        )
        assert np.array_equal(trace.estimates, uninterrupted)
        assert ckpt.load() is None  # partial discarded on completion

    def test_orchestrated_kill_and_resume_equals_direct(self, tmp_path):
        from repro.distsys import ring_topology
        from repro.experiments.decentralized_delay import (
            decentralized_delay_sweep,
            orchestrated_decentralized_delay_sweep,
        )
        from repro.experiments.paper_regression import paper_problem

        kwargs = dict(
            topologies=[ring_topology(paper_problem().n, hops=2)],
            staleness_bounds=(2,),
            drop_rates=(0.0, 0.3),
            aggregators=("cwtm", "cge_mean"),
            iterations=25,
            seeds=(0, 1),
        )
        direct = decentralized_delay_sweep(**kwargs)
        # Kill after one cell, with mid-trajectory engine checkpoints on.
        config = OrchestratorConfig(
            checkpoint_dir=tmp_path, checkpoint_every=7, max_cells=1
        )
        _, first = orchestrated_decentralized_delay_sweep(
            config=config, **kwargs
        )
        assert first.interrupted and first.skipped
        resumed, second = orchestrated_decentralized_delay_sweep(
            config=OrchestratorConfig(
                checkpoint_dir=tmp_path, checkpoint_every=7
            ),
            **kwargs,
        )
        assert not second.interrupted
        assert second.cached  # the killed run's finished cell reused
        assert resumed == direct  # exact dataclass equality, bitwise


class TestSweepResumeEquivalence:
    """Kill a family sweep halfway; the resumed results are identical."""

    SPECS = [
        SweepSpec(aggregator=a, attack=b, seed=0)
        for a in ("cge", "cwtm")
        for b in ("gradient_reverse", "random")
    ]

    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        uninterrupted, _ = orchestrated_regression_sweep(
            self.SPECS, iterations=40
        )
        config = OrchestratorConfig(checkpoint_dir=tmp_path, max_cells=2)
        _, first = orchestrated_regression_sweep(
            self.SPECS, iterations=40, config=config
        )
        assert first.interrupted and len(first.skipped) == 2
        resumed, second = orchestrated_regression_sweep(
            self.SPECS,
            iterations=40,
            config=OrchestratorConfig(checkpoint_dir=tmp_path),
        )
        assert not second.interrupted
        assert len(second.cached) == 2 and len(second.completed) == 2
        assert len(resumed) == len(uninterrupted)
        for a, b in zip(uninterrupted, resumed):
            assert a.label == b.label
            assert np.array_equal(a.output, b.output)
            assert np.array_equal(a.distances, b.distances)

    def test_mid_trajectory_checkpoints_change_nothing(self, tmp_path):
        uninterrupted, _ = orchestrated_regression_sweep(
            self.SPECS[:2], iterations=40
        )
        chunked, report = orchestrated_regression_sweep(
            self.SPECS[:2],
            iterations=40,
            config=OrchestratorConfig(
                checkpoint_dir=tmp_path, checkpoint_every=7
            ),
        )
        assert len(report.completed) == 2
        for a, b in zip(uninterrupted, chunked):
            assert np.array_equal(a.output, b.output)
            assert np.array_equal(a.distances, b.distances)
