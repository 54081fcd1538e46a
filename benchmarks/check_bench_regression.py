"""CI bench-regression gate over the ``BENCH_*.json`` headline artifacts.

Three gates run over every freshly-regenerated ``BENCH_*.json``:

* **speedup** — files whose committed baseline reports a ``speedup`` field
  fail (exit 1) when the fresh speedup drops more than ``--threshold``
  (default 30%) below the baseline, so a PR that quietly serializes a
  batched engine back into a Python loop breaks the build instead of the
  perf trajectory.
* **degenerate engine gap** — files reporting a ``degenerate_engine_gap``
  (``BENCH_async.json``, ``BENCH_decentralized_delay.json``) fail when the
  fresh gap exceeds ``--gap-tolerance`` (default 1e-9): the asynchronous
  and delay-tolerant engines' degenerate configurations are pinned to the
  synchronous engines, and a drifting gap means an equivalence contract
  silently broke.
* **disabled-telemetry overhead** — files reporting a
  ``disabled_overhead_fraction`` (``BENCH_telemetry.json``) fail when the
  fresh fraction exceeds ``--overhead-tolerance`` (default 0.03): the
  telemetry layer's contract is that the default null recorder costs the
  engine hot loop at most one attribute check per round, and a growing
  fraction means instrumentation leaked into the disabled path.
* **scaling curve** — files reporting a ``throughput`` table
  (``BENCH_scale.json``) fail when any per-point fresh throughput drops
  more than ``--throughput-threshold`` (default 50%, looser than the
  speedup gate because raw agent-rounds/s varies across CI machines)
  below its baseline, or when ``max_abs_error_vs_reference`` exceeds
  ``--error-tolerance`` (default 0.0: a windowed trace *selects* rounds,
  it never perturbs them, so the small-n reference pin is exact).

Files reporting none of these fields are listed but never gate; a baseline file
whose fresh counterpart is *missing* fails loudly (a deleted bench is a
silent regression too).

Usage (what the GitHub Actions workflow runs; the benches write their
fresh headlines to the git-ignored ``benchmarks/out/``, and the committed
copies at the repository root are the baselines)::

    python benchmarks/check_bench_regression.py \
        --baseline . --fresh benchmarks/out
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_field(path: Path, field: str):
    """The file's ``field`` value, or None when it does not report one."""
    payload = json.loads(path.read_text())
    value = payload.get(field)
    return None if value is None else float(value)


def load_table(path: Path, field: str):
    """The file's ``field`` dict of floats, or None when absent."""
    payload = json.loads(path.read_text())
    value = payload.get(field)
    if value is None:
        return None
    return {key: float(entry) for key, entry in value.items()}


def check(
    baseline_dir: Path,
    fresh_dir: Path,
    threshold: float,
    gap_tolerance: float,
    overhead_tolerance: float,
    throughput_threshold: float,
    error_tolerance: float,
) -> int:
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines under {baseline_dir}")
        return 1
    failures = []
    for baseline_path in baselines:
        name = baseline_path.name
        baseline = load_field(baseline_path, "speedup")
        gated_gap = load_field(baseline_path, "degenerate_engine_gap")
        gated_overhead = load_field(
            baseline_path, "disabled_overhead_fraction"
        )
        gated_throughput = load_table(baseline_path, "throughput")
        # Exact-zero reference pinning only applies to scaling-curve
        # artifacts (the windowed trace selects rounds, it never perturbs
        # them); other benches report a max_abs_error_vs_reference with a
        # float-tolerance meaning and are covered by their own gates.
        gated_error = (
            load_field(baseline_path, "max_abs_error_vs_reference")
            if gated_throughput is not None
            else None
        )
        if (
            baseline is None
            and gated_gap is None
            and gated_overhead is None
            and gated_throughput is None
            and gated_error is None
        ):
            print(f"  {name}: no gated fields in baseline (not gated)")
            continue
        fresh_path = fresh_dir / name
        if not fresh_path.exists():
            failures.append(f"{name}: fresh artifact missing")
            continue
        if baseline is not None:
            fresh = load_field(fresh_path, "speedup")
            if fresh is None:
                failures.append(
                    f"{name}: fresh artifact dropped its speedup field"
                )
            else:
                floor = (1.0 - threshold) * baseline
                # ``not (>= floor)`` so a NaN speedup fails instead of
                # slipping through both comparisons.
                regressed = not fresh >= floor
                verdict = "REGRESSION" if regressed else "ok"
                print(
                    f"  {name}: speedup {fresh:.2f}x vs baseline "
                    f"{baseline:.2f}x (floor {floor:.2f}x) — {verdict}"
                )
                if regressed:
                    failures.append(
                        f"{name}: speedup {fresh:.2f}x fell more than "
                        f"{threshold:.0%} below the committed {baseline:.2f}x"
                    )
        if gated_gap is not None:
            fresh_gap = load_field(fresh_path, "degenerate_engine_gap")
            if fresh_gap is None:
                failures.append(
                    f"{name}: fresh artifact dropped its "
                    "degenerate_engine_gap field"
                )
            else:
                # ``not (<= tolerance)`` so a NaN gap (diverged engines)
                # fails instead of slipping through both comparisons.
                broken = not fresh_gap <= gap_tolerance
                verdict = "CONTRACT BROKEN" if broken else "ok"
                print(
                    f"  {name}: degenerate engine gap {fresh_gap:.3g} "
                    f"(tolerance {gap_tolerance:.0e}) — {verdict}"
                )
                if broken:
                    failures.append(
                        f"{name}: degenerate engine gap {fresh_gap:.3g} "
                        f"exceeds {gap_tolerance:.0e} — an engine "
                        "equivalence contract broke"
                    )
        if gated_overhead is not None:
            fresh_overhead = load_field(
                fresh_path, "disabled_overhead_fraction"
            )
            if fresh_overhead is None:
                failures.append(
                    f"{name}: fresh artifact dropped its "
                    "disabled_overhead_fraction field"
                )
            else:
                # ``not (<= tolerance)`` so a NaN fraction fails instead
                # of slipping through both comparisons.
                leaked = not fresh_overhead <= overhead_tolerance
                verdict = "OVERHEAD LEAKED" if leaked else "ok"
                print(
                    f"  {name}: disabled-telemetry overhead "
                    f"{fresh_overhead:+.1%} (tolerance "
                    f"{overhead_tolerance:.0%}) — {verdict}"
                )
                if leaked:
                    failures.append(
                        f"{name}: disabled-telemetry overhead "
                        f"{fresh_overhead:+.1%} exceeds "
                        f"{overhead_tolerance:.0%} — instrumentation "
                        "leaked into the disabled engine hot loop"
                    )
        if gated_throughput is not None:
            fresh_table = load_table(fresh_path, "throughput")
            if fresh_table is None:
                failures.append(
                    f"{name}: fresh artifact dropped its throughput table"
                )
            else:
                for point, base_rate in sorted(gated_throughput.items()):
                    fresh_rate = fresh_table.get(point)
                    if fresh_rate is None:
                        failures.append(
                            f"{name}: fresh throughput table dropped "
                            f"point {point!r}"
                        )
                        continue
                    floor = (1.0 - throughput_threshold) * base_rate
                    # ``not (>= floor)`` so a NaN rate fails instead of
                    # slipping through both comparisons.
                    regressed = not fresh_rate >= floor
                    verdict = "REGRESSION" if regressed else "ok"
                    print(
                        f"  {name}: {point} throughput {fresh_rate:,.0f}/s "
                        f"vs baseline {base_rate:,.0f}/s "
                        f"(floor {floor:,.0f}/s) — {verdict}"
                    )
                    if regressed:
                        failures.append(
                            f"{name}: {point} throughput "
                            f"{fresh_rate:,.0f}/s fell more than "
                            f"{throughput_threshold:.0%} below the "
                            f"committed {base_rate:,.0f}/s"
                        )
        if gated_error is not None:
            fresh_error = load_field(
                fresh_path, "max_abs_error_vs_reference"
            )
            if fresh_error is None:
                failures.append(
                    f"{name}: fresh artifact dropped its "
                    "max_abs_error_vs_reference field"
                )
            else:
                # ``not (<= tolerance)`` so a NaN error (diverged
                # engines) fails instead of slipping through.
                drifted = not fresh_error <= error_tolerance
                verdict = "CONTRACT BROKEN" if drifted else "ok"
                print(
                    f"  {name}: max abs error vs reference "
                    f"{fresh_error:.3g} (tolerance {error_tolerance:.3g}) "
                    f"— {verdict}"
                )
                if drifted:
                    failures.append(
                        f"{name}: max abs error vs reference "
                        f"{fresh_error:.3g} exceeds {error_tolerance:.3g} "
                        "— the windowed trace perturbed the dynamics"
                    )
    if failures:
        print("bench-regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench-regression gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        required=True,
        help="directory holding the committed BENCH_*.json copies",
    )
    parser.add_argument(
        "--fresh",
        default="benchmarks/out",
        help="directory holding the freshly-regenerated artifacts "
        "(default: benchmarks/out, where the timing benches write them)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated fractional speedup drop (default 0.30)",
    )
    parser.add_argument(
        "--gap-tolerance",
        type=float,
        default=1e-9,
        help="maximum tolerated degenerate engine gap (default 1e-9)",
    )
    parser.add_argument(
        "--overhead-tolerance",
        type=float,
        default=0.03,
        help="maximum tolerated disabled-telemetry overhead fraction "
        "(default 0.03)",
    )
    parser.add_argument(
        "--throughput-threshold",
        type=float,
        default=0.50,
        help="maximum tolerated fractional per-point throughput drop in "
        "scaling-curve tables (default 0.50)",
    )
    parser.add_argument(
        "--error-tolerance",
        type=float,
        default=0.0,
        help="maximum tolerated max_abs_error_vs_reference (default 0.0: "
        "the windowed-trace reference pin is exact)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        parser.error("threshold must be in [0, 1)")
    if args.gap_tolerance < 0.0:
        parser.error("gap tolerance must be non-negative")
    if args.overhead_tolerance < 0.0:
        parser.error("overhead tolerance must be non-negative")
    if not 0.0 <= args.throughput_threshold < 1.0:
        parser.error("throughput threshold must be in [0, 1)")
    if args.error_tolerance < 0.0:
        parser.error("error tolerance must be non-negative")
    return check(
        Path(args.baseline),
        Path(args.fresh),
        args.threshold,
        args.gap_tolerance,
        args.overhead_tolerance,
        args.throughput_threshold,
        args.error_tolerance,
    )


if __name__ == "__main__":
    sys.exit(main())
