"""Regenerate the pinned engine snapshots used by ``test_resumable_engines``.

Run from the repository root::

    PYTHONPATH=src python tests/distsys/data/generate_engine_snapshots.py

The resulting ``engine_snapshots.json`` holds the JSON ``state_dict()`` of
each of the three resumable batched engines built by
``tests/distsys/test_resumable_engines.py`` (the server, asynchronous and
fused graph engines) after 11 of a 30-round run.  It pins the checkpoint
format across commits: a snapshot written by an older build must still
compare equal and still resume to the uninterrupted trajectory.  Only
regenerate after an *intentional* change to a ``state_dict`` schema, and
say so in the commit message.
"""

import importlib.util
import json
from pathlib import Path

from repro.experiments.paper_regression import paper_problem

HERE = Path(__file__).parent
OUT = HERE / "engine_snapshots.json"

#: the round each snapshot is taken at, and the horizon it resumes to
SNAPSHOT_ROUND = 11


def _engine_factories():
    """The test module's engine builders: fixture and test share one copy."""
    path = HERE.parent / "test_resumable_engines.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENGINES


def snapshots():
    paper = paper_problem()
    states = {}
    for make in _engine_factories():
        engine = make(paper)
        engine.run(SNAPSHOT_ROUND)
        states[make.__name__] = engine.state_dict()
    return states


def main() -> None:
    text = json.dumps(snapshots(), sort_keys=True)
    OUT.write_text(text + "\n")
    print(f"wrote {OUT}: {len(text)} bytes")


if __name__ == "__main__":
    main()
