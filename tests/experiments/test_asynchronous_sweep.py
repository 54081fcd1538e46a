"""Tests for the asynchronous experiment family.

``TestDirectEqualsOrchestrated`` and ``TestPackedEqualsPerCell`` run over
every sweep family (asynchronous, regression, graph and delay): each
family has one engine-and-fold path, which the direct sweep, the per-cell
worker and the pack worker all reach.
"""

import json
from dataclasses import asdict, is_dataclass

import numpy as np
import pytest

from repro.distsys import make_topology
from repro.experiments.asynchronous import (
    DEFAULT_POLICIES,
    AsynchronousSweepRow,
    asynchronous_sweep,
    orchestrated_asynchronous_sweep,
    render_asynchronous_report,
)
from repro.experiments.decentralized import (
    decentralized_sweep,
    orchestrated_decentralized_sweep,
)
from repro.experiments.decentralized_delay import (
    decentralized_delay_sweep,
    orchestrated_decentralized_delay_sweep,
)
from repro.experiments.orchestrator import OrchestratorConfig
from repro.experiments.paper_regression import paper_problem
from repro.experiments.runner import (
    SweepSpec,
    orchestrated_regression_sweep,
    run_regression_sweep,
)

GRID = dict(
    staleness_bounds=(0, 2),
    drop_rates=(0.0, 0.3),
    aggregators=("cge", "cwtm"),
    iterations=80,
)


def _plain(value):
    """JSON form of result dataclasses and the arrays inside them."""
    return asdict(value) if is_dataclass(value) else value.tolist()


def canonical(value) -> str:
    """Canonical JSON of rows or cell results (NaN equal to NaN)."""
    return json.dumps(value, sort_keys=True, default=_plain)


def cell_seeds(key, seeds):
    """A cell's seeds: its key's ``/seeds<first>-<last>`` chunk, or all."""
    _, _, span = key.partition("/seeds")
    if not span:
        return list(seeds)
    first, last = (int(s) for s in span.split("-"))
    return [s for s in seeds if first <= s <= last]


class Asynchronous:
    """The staleness x drop x filter grid (8 cells)."""

    def direct(self, problem, seeds, attack):
        return asynchronous_sweep(
            problem=problem, seeds=seeds, attack=attack, **GRID
        )

    def orchestrated(self, seeds, attack, config=None, seed_chunk=None):
        return orchestrated_asynchronous_sweep(
            seeds=seeds, attack=attack, seed_chunk=seed_chunk, config=config,
            **GRID,
        )

    def cell_labels(self, key, seeds):
        """The cell's own trial labels, in its own trial order."""
        prefix = key.partition("/seeds")[0]
        return [f"{prefix}/s{seed}" for seed in cell_seeds(key, seeds)]


class Regression:
    """One cell per (filter, seed) spec; ``mean`` is the hostile slice."""

    AGGREGATORS = ("cge", "cwtm", "median", "mean")

    def specs(self, seeds, attack):
        return [
            SweepSpec(aggregator, attack, seed=seed)
            for aggregator in self.AGGREGATORS
            for seed in seeds
        ]

    def direct(self, problem, seeds, attack):
        return run_regression_sweep(problem, self.specs(seeds, attack), 60)

    def orchestrated(self, seeds, attack, config=None, seed_chunk=None):
        return orchestrated_regression_sweep(
            self.specs(seeds, attack), 60, config=config
        )

    def cell_labels(self, key, seeds):
        return [key.rsplit("/s", 1)[0]]  # one trial, labelled filter/attack


def two_topologies():
    n = paper_problem().n
    return [make_topology("complete", n), make_topology("ring", n, hops=2)]


class Graph:
    """Two topologies x (cwtm, mean) x (honest, attack): 8 cells."""

    def kwargs(self, seeds, attack):
        return dict(
            topologies=two_topologies(),
            aggregators=("cwtm", "mean"),
            attacks=(None, attack),
            iterations=60,
            seeds=seeds,
        )

    def direct(self, problem, seeds, attack):
        return decentralized_sweep(
            problem=problem, **self.kwargs(seeds, attack)
        )

    def orchestrated(self, seeds, attack, config=None, seed_chunk=None):
        return orchestrated_decentralized_sweep(
            config=config, **self.kwargs(seeds, attack)
        )

    def cell_labels(self, key, seeds):
        return [key.split("-", 1)[1]] * len(seeds)  # topology/filter/attack


class Delay:
    """Two topologies x two bounds x two policies: 8 cells; ``mean`` is
    the hostile slice of the masked cells."""

    AGGREGATORS = ("cwtm", "mean", "cge_mean")

    def kwargs(self, seeds, attack):
        return dict(
            topologies=two_topologies(),
            staleness_bounds=(0, 2),
            drop_rates=(0.3,),
            aggregators=self.AGGREGATORS,
            attack=attack,
            iterations=60,
            seeds=seeds,
        )

    def direct(self, problem, seeds, attack):
        return decentralized_delay_sweep(
            problem=problem, **self.kwargs(seeds, attack)
        )

    def orchestrated(self, seeds, attack, config=None, seed_chunk=None):
        return orchestrated_decentralized_delay_sweep(
            config=config, **self.kwargs(seeds, attack)
        )

    def cell_labels(self, key, seeds):
        topology, tau, drop, policy = key.split("-", 1)[1].split("/")
        return [
            f"{topology}/{tau}/{drop}/{aggregator}/s{seed}"
            for aggregator in self.AGGREGATORS
            if DEFAULT_POLICIES[aggregator] == policy
            for seed in seeds
        ]


FAMILIES = [Asynchronous(), Regression(), Graph(), Delay()]
FAMILY_IDS = ["asynchronous", "regression", "graph", "delay"]


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


@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
class TestDirectEqualsOrchestrated:
    """Each cell folds its own trials, so the rows do not depend on how the
    sweep was split into engines: one seed included, hostile slice
    included."""

    @pytest.mark.parametrize("attack", ["gradient_reverse", "nan"])
    @pytest.mark.parametrize("seeds", [(0,), (0, 1)])
    def test_in_process(self, family, paper_module, seeds, attack):
        direct = family.direct(paper_module, seeds, attack)
        rows, report = family.orchestrated(seeds, attack)
        assert not report.failed_cells
        assert canonical(rows) == canonical(direct)

    @pytest.mark.parametrize("attack", ["gradient_reverse", "nan"])
    @pytest.mark.parametrize("seeds", [(0,), (0, 1)])
    def test_packed(self, family, paper_module, seeds, attack):
        direct = family.direct(paper_module, seeds, attack)
        rows, report = family.orchestrated(
            seeds, attack, OrchestratorConfig(jobs=2)
        )
        assert not report.failed_cells
        assert all(o.attempts == 1 for o in report.outcomes)
        assert canonical(rows) == canonical(direct)

    @pytest.mark.parametrize("attack", ["gradient_reverse", "nan"])
    @pytest.mark.parametrize("seeds", [(0,), (0, 1)])
    def test_packed_kill_and_resume(
        self, family, paper_module, seeds, attack, tmp_path
    ):
        direct = family.direct(paper_module, seeds, attack)
        _, first = family.orchestrated(
            seeds,
            attack,
            OrchestratorConfig(jobs=2, checkpoint_dir=tmp_path, max_cells=3),
        )
        assert first.interrupted and len(first.completed) == 3
        rows, second = family.orchestrated(
            seeds, attack, OrchestratorConfig(jobs=2, checkpoint_dir=tmp_path)
        )
        assert len(second.cached) == 3
        assert len(second.completed) == len(second.outcomes) - 3
        assert canonical(rows) == canonical(direct)


class TestPackedEqualsPerCell:
    """Supervised cells run in packs, one batched engine per pack (or per
    topology run, for the graph family); every cell's result equals the
    one its own engine produces."""

    @pytest.mark.parametrize(
        "family, seed_chunk",
        [(FAMILIES[0], chunk) for chunk in (None, 1, 2)]
        + [(family, None) for family in FAMILIES[1:]],
        ids=[f"asynchronous-{chunk}" for chunk in (None, 1, 2)]
        + FAMILY_IDS[1:],
    )
    @pytest.mark.parametrize("attack", ["gradient_reverse", "nan", "alie"])
    def test_cell_results_match(self, family, attack, seed_chunk):
        seeds = (0, 1, 2)
        _, per_cell = family.orchestrated(seeds, attack, seed_chunk=seed_chunk)
        _, packed = family.orchestrated(
            seeds, attack, OrchestratorConfig(jobs=2), seed_chunk
        )
        assert not packed.failed_cells
        assert canonical([o.result for o in packed.outcomes]) == canonical(
            [o.result for o in per_cell.outcomes]
        )
        if attack != "nan":
            return
        assert packed.quarantined_cells
        for cell in packed.quarantined_cells:
            labels = family.cell_labels(cell["key"], seeds)
            for record in cell["quarantined"]:
                # the cell's own trial order, and the cell's own label
                assert 0 <= record["trial"] < len(labels)
                assert record["label"] == labels[record["trial"]]
