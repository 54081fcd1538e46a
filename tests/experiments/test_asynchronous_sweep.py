"""Tests for the asynchronous experiment family."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.experiments.asynchronous import (
    DEFAULT_POLICIES,
    AsynchronousSweepRow,
    asynchronous_sweep,
    orchestrated_asynchronous_sweep,
    render_asynchronous_report,
)
from repro.experiments.orchestrator import OrchestratorConfig
from repro.experiments.paper_regression import paper_problem

GRID = dict(
    staleness_bounds=(0, 2),
    drop_rates=(0.0, 0.3),
    aggregators=("cge", "cwtm"),
    iterations=80,
)


def canonical(value) -> str:
    """Canonical JSON of rows or cell results (NaN equal to NaN)."""
    return json.dumps(value, sort_keys=True, default=asdict)


def cell_seeds(key, seeds):
    """A cell's seeds: its key's ``/seeds<first>-<last>`` chunk, or all."""
    _, _, span = key.partition("/seeds")
    if not span:
        return list(seeds)
    first, last = (int(s) for s in span.split("-"))
    return [s for s in seeds if first <= s <= last]


@pytest.fixture(scope="module")
def paper_module():
    return paper_problem()


@pytest.fixture(scope="module")
def rows(paper_module):
    return asynchronous_sweep(
        problem=paper_module,
        staleness_bounds=(0, 2),
        drop_rates=(0.0, 0.3),
        aggregators=("cge", "cwtm"),
        iterations=80,
        seeds=(0, 1),
    )


class TestSweepStructure:
    def test_covers_the_grid(self, rows):
        assert len(rows) == 2 * 2 * 2  # staleness x drop x filters
        assert sorted({r.staleness_bound for r in rows}) == [0, 2]
        assert sorted({r.drop_rate for r in rows}) == [0.0, 0.3]

    def test_declared_policies(self, rows):
        for row in rows:
            assert row.policy == DEFAULT_POLICIES[row.aggregator]

    def test_radii_finite_and_ordered(self, rows):
        for row in rows:
            assert np.isfinite(row.mean_radius)
            assert row.worst_radius >= row.mean_radius

    def test_staleness_bound_governs_missing_rate(self, rows):
        # A looser bound can only make more in-flight traffic usable.
        for drop in (0.0, 0.3):
            for aggregator in ("cge", "cwtm"):
                tight, loose = [
                    r
                    for r in rows
                    if r.drop_rate == drop and r.aggregator == aggregator
                ]
                assert tight.staleness_bound < loose.staleness_bound
                assert tight.missing_rate >= loose.missing_rate

    def test_seed_count_recorded(self, rows):
        assert all(r.seeds == 2 for r in rows)


class TestReport:
    def test_report_renders_every_cell(self, rows):
        text = render_asynchronous_report(rows, iterations=80)
        assert "convergence radius" in text
        assert "tau" in text and "policy" in text
        assert text.count("cwtm") == sum(1 for r in rows if r.aggregator == "cwtm")

    def test_rows_are_dataclasses(self, rows):
        assert isinstance(rows[0], AsynchronousSweepRow)


class TestOrchestratedSweep:
    """The orchestrated path pins row-for-row to the direct sweep."""

    def test_rows_match_direct_sweep_across_seed_chunks(
        self, rows, tmp_path
    ):
        from repro.experiments.asynchronous import (
            orchestrated_asynchronous_sweep,
        )
        from repro.experiments.orchestrator import OrchestratorConfig

        orchestrated, report = orchestrated_asynchronous_sweep(
            staleness_bounds=(0, 2),
            drop_rates=(0.0, 0.3),
            aggregators=("cge", "cwtm"),
            iterations=80,
            seeds=(0, 1),
            seed_chunk=1,  # two resumable cells per configuration
            config=OrchestratorConfig(checkpoint_dir=tmp_path),
        )
        assert len(report.outcomes) == 2 * 2 * 2 * 2
        assert not report.failed_cells
        # Chunk merging reassociates the seed means, so float fields are
        # compared at the documented 1e-9 resume tolerance rather than
        # bit-exactly; the integer diagnostics must still match exactly.
        assert len(orchestrated) == len(rows)
        for got, want in zip(orchestrated, rows):
            assert (got.staleness_bound, got.drop_rate, got.aggregator,
                    got.policy, got.attack, got.seeds, got.stalled) == (
                want.staleness_bound, want.drop_rate, want.aggregator,
                want.policy, want.attack, want.seeds, want.stalled)
            for field in ("mean_radius", "worst_radius", "missing_rate",
                          "mean_staleness"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-9, abs=1e-12, nan_ok=True
                ), field

    def test_killed_and_resumed_equals_uninterrupted(self, rows, tmp_path):
        from repro.experiments.asynchronous import (
            orchestrated_asynchronous_sweep,
        )
        from repro.experiments.orchestrator import OrchestratorConfig

        kwargs = dict(
            staleness_bounds=(0, 2),
            drop_rates=(0.0, 0.3),
            aggregators=("cge", "cwtm"),
            iterations=80,
            seeds=(0, 1),
        )
        _, first = orchestrated_asynchronous_sweep(
            **kwargs,
            config=OrchestratorConfig(checkpoint_dir=tmp_path, max_cells=3),
        )
        assert first.interrupted and len(first.skipped) == 5
        resumed, second = orchestrated_asynchronous_sweep(
            **kwargs, config=OrchestratorConfig(checkpoint_dir=tmp_path)
        )
        assert len(second.cached) == 3 and len(second.completed) == 5
        assert resumed == rows


class TestDirectEqualsOrchestrated:
    """Each cell folds its own trials, so the rows do not depend on how the
    sweep was split into engines: one seed included."""

    @pytest.mark.parametrize("seeds", [(0,), (0, 1)])
    def test_in_process(self, paper_module, seeds):
        direct = asynchronous_sweep(problem=paper_module, seeds=seeds, **GRID)
        rows, report = orchestrated_asynchronous_sweep(seeds=seeds, **GRID)
        assert not report.failed_cells
        assert canonical(rows) == canonical(direct)

    @pytest.mark.parametrize("seeds", [(0,), (0, 1)])
    def test_packed_kill_and_resume(self, paper_module, seeds, tmp_path):
        direct = asynchronous_sweep(problem=paper_module, seeds=seeds, **GRID)
        _, first = orchestrated_asynchronous_sweep(
            seeds=seeds,
            config=OrchestratorConfig(
                jobs=2, checkpoint_dir=tmp_path, max_cells=3
            ),
            **GRID,
        )
        assert first.interrupted and len(first.completed) == 3
        rows, second = orchestrated_asynchronous_sweep(
            seeds=seeds,
            config=OrchestratorConfig(jobs=2, checkpoint_dir=tmp_path),
            **GRID,
        )
        assert len(second.cached) == 3 and len(second.completed) == 5
        assert canonical(rows) == canonical(direct)


class TestPackedEqualsPerCell:
    """Supervised cells run in packs, one batched engine per pack; every
    cell's result equals the one its own engine produces."""

    @pytest.mark.parametrize("seed_chunk", [None, 1, 2])
    @pytest.mark.parametrize("attack", ["gradient_reverse", "nan", "alie"])
    def test_cell_results_match(self, attack, seed_chunk):
        kwargs = dict(GRID, attack=attack, seeds=(0, 1, 2),
                      seed_chunk=seed_chunk)
        _, per_cell = orchestrated_asynchronous_sweep(**kwargs)
        _, packed = orchestrated_asynchronous_sweep(
            config=OrchestratorConfig(jobs=2), **kwargs
        )
        assert not packed.failed_cells
        assert canonical([o.result for o in packed.outcomes]) == canonical(
            [o.result for o in per_cell.outcomes]
        )
        if attack != "nan":
            return
        assert packed.quarantined_cells
        for cell in packed.quarantined_cells:
            seeds = cell_seeds(cell["key"], kwargs["seeds"])
            prefix = cell["key"].partition("/seeds")[0]
            for record in cell["quarantined"]:
                # the cell's own trial order, and the cell's own label
                assert 0 <= record["trial"] < len(seeds)
                assert record["label"] == (
                    f"{prefix}/s{seeds[record['trial']]}"
                )
