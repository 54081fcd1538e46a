"""Regenerate the pinned server-sweep trajectories of ``test_server_sweep_pin``.

Run from the repository root::

    PYTHONPATH=src python tests/distsys/data/generate_server_sweep.py

The resulting ``server_sweep_trajectories.npz`` holds the batched server
engine's ``(T + 1, S, d)`` iterates and quarantine records for the sweep
built by ``tests/distsys/test_server_sweep_pin.py`` (the benchmark paper
sweep's nine filters × five attacks plus its hostile slice, two seeds,
T = 80).  It pins every float of the server engine's kernels and attack
streams, so an optimisation of that engine can prove it moved none.
Only regenerate after an *intentional* semantic change, and say so in
the commit message.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro.experiments.paper_regression import paper_problem

HERE = Path(__file__).parent
OUT = HERE / "server_sweep_trajectories.npz"


def _test_module():
    """The test module: fixture and test share one sweep definition."""
    path = HERE.parent / "test_server_sweep_pin.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    pin = _test_module()
    trace = pin.build_engine(paper_problem()).run(pin.ITERATIONS)
    trials, rounds, reasons = pin.quarantine_arrays(trace)
    labels = np.array(["/".join(map(str, combo)) for combo in pin.COMBOS])
    np.savez_compressed(
        OUT,
        estimates=trace.estimates,
        labels=labels,
        quarantine_trial=trials,
        quarantine_round=rounds,
        quarantine_reason=reasons,
    )
    print(
        f"wrote {OUT}: estimates {trace.estimates.shape}, "
        f"{trials.size} quarantined trials"
    )


if __name__ == "__main__":
    main()
