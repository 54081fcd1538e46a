"""Quarantine provenance through the orchestration stack.

Covers the fault-containment reporting chain: cell workers attach
quarantine records, ``SweepReport.quarantined_cells`` surfaces them next
to ``failed_cells``, the sweep-report artifact round-trips them even with
results elided, the checkpoint store sweeps orphaned temp files, and a
parent-side checkpoint write failure degrades to a warning instead of
discarding a finished cell.
"""

import json
import os
import time
import warnings

import numpy as np
import pytest

from repro.experiments.artifacts import load_sweep_report, save_sweep_report
from repro.experiments.asynchronous import orchestrated_asynchronous_sweep
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.orchestrator import (
    CellOutcome,
    OrchestratorConfig,
    SweepCell,
    SweepReport,
    run_sweep_cells,
)

QUARANTINED_RESULT = {
    "rows": [],
    "quarantined": [
        {"trial": 0, "round": 1, "reason": "aggregator_refused",
         "label": "mean/nan/seed0"},
    ],
}


def _report_with(result):
    return SweepReport(
        spec_hash="a" * 64,
        outcomes=[
            CellOutcome(key="clean", status="completed", result={"rows": []}),
            CellOutcome(key="hot", status="completed", result=result),
            CellOutcome(key="broken", status="failed", error="boom",
                        attempts=2),
        ],
    )


def test_quarantined_cells_surfaces_records():
    report = _report_with(QUARANTINED_RESULT)
    assert report.quarantined_cells == [
        {"key": "hot", "quarantined": QUARANTINED_RESULT["quarantined"]}
    ]
    # failed and clean cells stay out of the quarantine report
    assert {c["key"] for c in report.failed_cells} == {"broken"}


@pytest.mark.parametrize(
    "result", [None, [], {"rows": []}, {"quarantined": None}, 3]
)
def test_quarantined_cells_ignores_clean_and_legacy_results(result):
    report = _report_with(result)
    assert report.quarantined_cells == []


@pytest.mark.parametrize("include_results", [False, True])
def test_artifact_roundtrip_preserves_quarantined_cells(
    tmp_path, include_results
):
    report = _report_with(QUARANTINED_RESULT)
    path = tmp_path / "report.json"
    save_sweep_report(report, path, include_results=include_results)
    loaded = load_sweep_report(path)
    assert loaded.quarantined_cells == report.quarantined_cells
    assert loaded.failed_cells == report.failed_cells


def test_artifact_loads_pre_quarantine_reports(tmp_path):
    """Old reports (no ``quarantined`` key) still load, reading as clean."""
    report = _report_with({"rows": []})
    path = tmp_path / "report.json"
    save_sweep_report(report, path)
    document = json.loads(path.read_text())
    for entry in document["outcomes"]:
        entry.pop("quarantined", None)
    path.write_text(json.dumps(document))
    loaded = load_sweep_report(path)
    assert loaded.quarantined_cells == []


def test_clean_orphans_removes_only_stale_tmp_files(tmp_path):
    store = CheckpointStore(tmp_path)
    sweep_hash = "b" * 64
    store.put(sweep_hash, "cell", {"rows": []})
    spec_dir = store.path_for(sweep_hash, "cell").parent
    stale = spec_dir / "dead-writer.json.tmp"
    stale.write_text("torn")
    old = time.time() - 3600
    os.utime(stale, (old, old))
    fresh = spec_dir / "live-writer.json.tmp"
    fresh.write_text("in flight")

    removed = store.clean_orphans(sweep_hash)
    assert removed == [stale]
    assert not stale.exists()
    assert fresh.exists()  # a concurrent writer's file survives
    assert store.get(sweep_hash, "cell") == {"rows": []}

    # age 0 sweeps everything, for post-crash cleanup in tests/tools
    assert store.clean_orphans(sweep_hash, max_age_seconds=0.0) == [fresh]
    assert store.clean_orphans("c" * 64) == []  # absent dir is a no-op


def test_put_failure_sweeps_stale_orphans(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path)
    sweep_hash = "d" * 64
    store.put(sweep_hash, "seed-cell", {"rows": []})
    spec_dir = store.path_for(sweep_hash, "seed-cell").parent
    stale = spec_dir / "dead-writer.json.tmp"
    stale.write_text("torn")
    old = time.time() - 3600
    os.utime(stale, (old, old))

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(
        "repro.experiments.checkpoint.os.replace", refuse
    )
    with pytest.raises(OSError):
        store.put(sweep_hash, "victim", {"rows": []})
    monkeypatch.undo()
    # its own temp file and the stale orphan are both gone
    assert list(spec_dir.glob("*.tmp")) == []
    # and the store still works once space is back
    store.put(sweep_hash, "victim", {"rows": [1]})
    assert store.get(sweep_hash, "victim") == {"rows": [1]}


def _quarantining_worker(payloads):
    return [dict(QUARANTINED_RESULT) for _ in payloads]


def test_parent_checkpoint_write_failure_degrades_to_warning(
    tmp_path, monkeypatch
):
    def refuse(self, sweep_hash, key, payload):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(CheckpointStore, "put", refuse)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_sweep_cells(
            spec={"family": "test"},
            cells=[SweepCell(key="only", payload={})],
            worker=_quarantining_worker,
            config=OrchestratorConfig(checkpoint_dir=tmp_path),
        )
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert any("checkpoint write failed" in m for m in messages)
    assert any("re-run on resume" in m for m in messages)
    # the finished result is kept in memory despite the failed write
    assert report.completed and report.completed[0].result is not None
    assert [c["key"] for c in report.quarantined_cells] == ["only"]


def test_orchestrated_hostile_sweep_quarantines_and_resumes(tmp_path):
    """End to end: a ``nan`` sweep completes, reports, and resumes identically.

    The acceptance contract: with <= f hostile agents the sweep family
    completes without raising, the strict filter's refusals land in
    ``quarantined_cells``, and a resumed (fully cached) run reproduces the
    quarantine provenance byte for byte.
    """
    kwargs = dict(
        staleness_bounds=(0,),
        drop_rates=(0.0,),
        aggregators=("mean", "cwtm"),
        attack="nan",
        iterations=15,
        seeds=(0,),
        config=OrchestratorConfig(checkpoint_dir=tmp_path),
    )
    rows, report = orchestrated_asynchronous_sweep(**kwargs)
    assert not report.failed_cells
    flagged = report.quarantined_cells
    assert [c["key"] for c in flagged] == ["tau0/drop0.0/mean"]
    record = flagged[0]["quarantined"][0]
    assert record["reason"] == "aggregator_refused"
    assert "label" in record
    # cwtm tolerates the NaN rows and still produced its row
    assert any(row.aggregator == "cwtm" for row in rows)
    assert all(np.isfinite(row.mean_radius) for row in rows
               if row.aggregator == "cwtm")

    resumed_rows, resumed = orchestrated_asynchronous_sweep(**kwargs)
    assert [o.status for o in resumed.outcomes] == ["cached", "cached"]
    assert (
        json.dumps(resumed.quarantined_cells, sort_keys=True)
        == json.dumps(flagged, sort_keys=True)
    )
