"""Checkpoint address pins for the graph sweeps.

A stored cell lives at ``(spec_hash(spec), cell key)``, and the graph
sweeps put every topology's serialized adjacency into the spec.  A change
to how topologies are stored or serialized that moves one byte of that
payload re-keys every existing checkpoint store, so a resumed sweep would
silently start cold.  The digests below were recorded before the topology
layer moved to compressed sparse rows; they must never change.
"""

import pytest

from repro.experiments import (
    CheckpointStore,
    OrchestratorConfig,
    orchestrated_decentralized_delay_sweep,
    orchestrated_decentralized_sweep,
)

DECENTRALIZED_SPEC_HASH = (
    "3df46ec5f2df2577326c819f637685fe187800baf1bdf421e54881d40926f45d"
)
DELAY_SPEC_HASH = (
    "705796256da8aaf3898cc525e0750a1cfb5ef6a497e4d7450511acf41d9ad2bb"
)


def _one_cell(tmp_path, sweep, **grid):
    """Run the sweep over its default topologies with a one-cell budget."""
    config = OrchestratorConfig(checkpoint_dir=tmp_path, max_cells=1)
    _, report = sweep(iterations=2, seeds=[0], config=config, **grid)
    [done] = report.completed
    return report.spec_hash, done.key


@pytest.mark.parametrize(
    "sweep, grid, key, digest",
    [
        (
            orchestrated_decentralized_sweep,
            {"aggregators": ["cwtm"], "attacks": [None]},
            "t0-complete/cwtm/honest",
            DECENTRALIZED_SPEC_HASH,
        ),
        (
            orchestrated_decentralized_delay_sweep,
            {"staleness_bounds": [1], "drop_rates": [0.0],
             "aggregators": ["cwtm"]},
            "t0-complete/tau1/drop0.0/masked",
            DELAY_SPEC_HASH,
        ),
    ],
    ids=["decentralized", "decentralized_delay"],
)
def test_default_grid_cell_address_is_pinned(
    tmp_path, sweep, grid, key, digest
):
    sweep_hash, done = _one_cell(tmp_path, sweep, **grid)
    assert sweep_hash == digest
    assert done == key
    assert CheckpointStore(tmp_path).path_for(sweep_hash, key).is_file()
