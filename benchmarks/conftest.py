"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation), prints the paper-shaped rows/series, and writes the rendering to
``benchmarks/results/`` so EXPERIMENTS.md can quote it.

The timing benches write what changes from run to run — their
``BENCH_*.json`` headlines, their timing renderings and the telemetry
smoke stream — to the git-ignored ``benchmarks/out/`` instead, so a test
run leaves the tree clean.  The committed ``BENCH_*.json`` at the
repository root are the regression gate's baselines
(``check_bench_regression.py --baseline . --fresh benchmarks/out``).
"""

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory collecting the deterministic benchmark renderings."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def out_dir() -> Path:
    """Git-ignored directory collecting the timing benches' outputs."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def emit(directory: Path, name: str, text: str) -> None:
    """Print a rendering and persist it as ``<directory>/<name>.txt``."""
    print()
    print(text)
    (directory / f"{name}.txt").write_text(text + "\n")


def emit_json(out_dir: Path, name: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark summary as
    ``benchmarks/out/BENCH_<name>.json``, so dashboards and CI can diff
    headline numbers without parsing the text renderings."""
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
