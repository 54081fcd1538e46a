"""Documentation integrity: docs reference real code and real files.

Parses the dotted ``repro.*`` references out of THEORY.md / DESIGN.md /
COOKBOOK.md / README.md and verifies each one resolves to an importable
module or attribute, and that every ``tests/``, ``benchmarks/`` and
``scripts/`` file or directory the docs point at actually exists — so the
documentation cannot silently rot.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [
    ROOT / "docs" / "THEORY.md",
    ROOT / "docs" / "COOKBOOK.md",
    ROOT / "DESIGN.md",
    ROOT / "README.md",
]
#: docs whose path pointers are checked beside THEORY.md's test pointers
POINTER_DOCS = [
    ROOT / "docs" / "COOKBOOK.md",
    ROOT / "DESIGN.md",
    ROOT / "README.md",
]

_REF = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")


def dotted_references():
    refs = set()
    for doc in DOCS:
        for match in _REF.finditer(doc.read_text()):
            refs.add(match.group(1))
    return sorted(refs)


REFS = dotted_references()


def resolve(dotted: str) -> bool:
    """Import the longest module prefix, then walk attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_reference_corpus_nonempty():
    assert len(REFS) > 30  # the docs are reference-dense by design


@pytest.mark.parametrize("dotted", REFS)
def test_reference_resolves(dotted):
    assert resolve(dotted), f"stale documentation reference: {dotted}"


def test_design_bench_targets_exist():
    text = (ROOT / "DESIGN.md").read_text()
    targets = set(re.findall(r"`benchmarks/(test_bench_[a-z0-9_]+\.py)`", text))
    assert targets, "DESIGN.md lists no bench targets?"
    for name in sorted(targets):
        assert (ROOT / "benchmarks" / name).exists(), f"missing bench {name}"


def test_theory_md_test_pointers_exist():
    text = (ROOT / "docs" / "THEORY.md").read_text()
    files = set(re.findall(r"`tests/([a-z_/]+\.py)`", text))
    assert files
    for rel in sorted(files):
        assert (ROOT / "tests" / rel).exists(), f"missing test file {rel}"


_POINTER = re.compile(r"`((?:tests|benchmarks|scripts)/[^`\s]*)`")
#: git-ignored directories hold what runs write (``benchmarks/out/``), so
#: a pointer into one names an output, not a file a checkout holds
_OUTPUT_DIRS = tuple(
    line.strip()
    for line in (ROOT / ".gitignore").read_text().splitlines()
    if line.strip().endswith("/") and not line.startswith("#")
)


def path_pointers():
    pointers = set()
    for doc in POINTER_DOCS:
        for match in _POINTER.finditer(doc.read_text()):
            if not match.group(1).startswith(_OUTPUT_DIRS):
                pointers.add(match.group(1))
    return sorted(pointers)


@pytest.mark.parametrize("pointer", path_pointers())
def test_path_pointer_exists(pointer):
    assert (ROOT / pointer).exists(), f"stale documentation pointer: {pointer}"
