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

Entries whose key is not an engine builder's name are snapshots of a
retired schema (``delay_engine_v1``: the fused graph engine's whole-run
v1 snapshot, taken before v2 replaced it); no build writes them any more,
so they are carried over byte for byte and the engines must keep loading
them.
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
    previous = json.loads(OUT.read_text()) if OUT.exists() else {}
    engines = _engine_factories()
    names = {make.__name__ for make in engines}
    states = {
        key: state for key, state in previous.items() if key not in names
    }
    for make in engines:
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
