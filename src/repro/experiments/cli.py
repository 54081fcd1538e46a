"""Command-line entry point: regenerate any paper table or figure.

Installed as ``repro-experiments``; also runnable as
``python -m repro.experiments.cli``.

Examples::

    repro-experiments table1
    repro-experiments figure2 --iterations 1500 --stride 150
    repro-experiments figure4 --iterations 300
    repro-experiments ablation-filters
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from ..telemetry.recorder import (
    JsonlSink,
    ProgressSink,
    Recorder,
    current_recorder,
    use_recorder,
)
from .ablations import (
    adaptive_attack_sweep,
    dimension_sweep,
    exact_algorithm_scaling,
    f_sweep,
    filter_zoo,
    redundancy_sweep,
    schedule_sweep,
)
from .figures import generate_figure2, generate_figure3, render_figure
from .learning_experiment import (
    LearningExperimentConfig,
    render_learning_panel,
    run_learning_experiment,
)
from .paper_regression import paper_problem
from .reporting import format_table
from .table1 import generate_table1, render_table1

__all__ = ["main", "build_parser"]

logger = logging.getLogger("repro.experiments")

#: rounds per ``round_chunk`` progress event when recording is on.
_PROGRESS_EVERY = 100


class _TelemetryLogHandler(logging.Handler):
    """Mirror log records into the active telemetry stream as ``log`` events.

    Checks the ambient recorder per record, so with recording off (the
    default) every record costs one attribute check and nothing lands
    anywhere but the console handler.
    """

    def emit(self, record: logging.LogRecord) -> None:
        recorder = current_recorder()
        if recorder.enabled:
            recorder.emit(
                "log",
                level=record.levelname.lower(),
                message=record.getMessage(),
                logger=record.name,
            )


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """Console logging policy: INFO by default, DEBUG/-ERROR on request.

    The historical behaviour was unconditional ``print(..., file=stderr)``
    for sweep provenance lines, so the default level keeps those visible;
    ``--quiet`` silences everything below ERROR and ``--verbose`` opens
    the debug taps.  Idempotent — re-running ``main()`` in-process (the
    test suite does) must not stack handlers.
    """
    if verbose and quiet:
        raise SystemExit("--verbose and --quiet are mutually exclusive")
    root = logging.getLogger("repro")
    root.setLevel(
        logging.DEBUG if verbose else logging.ERROR if quiet else logging.INFO
    )
    if not any(isinstance(h, _TelemetryLogHandler) for h in root.handlers):
        console = logging.StreamHandler(sys.stderr)
        console.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(console)
        root.addHandler(_TelemetryLogHandler())
        root.propagate = False


def _add_orchestration_flags(p: argparse.ArgumentParser) -> None:
    """Crash-safe execution flags shared by the sweep subcommands.

    Passing ``--jobs`` or ``--checkpoint-dir`` routes the sweep through
    :func:`~repro.experiments.orchestrator.run_sweep_cells` (supervised
    sharding, content-addressed checkpoints, resume); without either the
    subcommand runs the direct in-process sweep unchanged.
    """
    g = p.add_argument_group("orchestration (crash-safe sweeps)")
    g.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for supervised sharded execution",
    )
    g.add_argument(
        "--checkpoint-dir",
        default=None,
        help="content-addressed cell checkpoint store (enables resume)",
    )
    g.add_argument(
        "--no-resume",
        action="store_true",
        default=None,  # unset reads None, like the other orchestration flags
        help="ignore existing checkpoints; recompute every cell",
    )
    g.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell wall-clock deadline in seconds (implies "
        "supervision); a pack of cells gets one deadline of this times "
        "its cell count",
    )
    g.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="run at most this many uncached cells, then stop "
        "(resume later with the same --checkpoint-dir)",
    )
    g.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="snapshot engine state every K rounds inside long cells "
        "(batched engines only)",
    )
    g.add_argument(
        "--report-out",
        default=None,
        help="write the sweep's provenance report (JSON) to this path",
    )
    t = p.add_argument_group("telemetry (observability)")
    t.add_argument(
        "--telemetry-out",
        default=None,
        help="record the sweep's structured event stream (spans, metrics, "
        "cell lifecycle) to this JSONL file; inspect it later with "
        "'telemetry summarize'",
    )
    t.add_argument(
        "--progress",
        action="store_true",
        help="render live progress lines (cell lifecycle, rounds/s) to "
        "stderr while the sweep runs",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables, figures and ablations.",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose",
        action="store_true",
        help="debug-level console logging",
    )
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress console logging below errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1: CGE/CWTM approximation errors")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    _add_orchestration_flags(p)

    for name, default_iters in (("figure2", 1500), ("figure3", 80)):
        p = sub.add_parser(name, help=f"{name}: loss/distance trajectories")
        p.add_argument("--iterations", type=int, default=default_iters)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stride", type=int, default=max(1, default_iters // 15))

    for name, variant in (("figure4", "mnist_like"), ("figure5", "fashion_like")):
        p = sub.add_parser(name, help=f"{name}: distributed learning ({variant})")
        p.add_argument("--iterations", type=int, default=300)
        p.add_argument("--seed", type=int, default=0)

    sub.add_parser("ablation-filters", help="full filter zoo on the paper problem")
    sub.add_parser("ablation-fsweep", help="CGE error vs f and theory bounds")
    sub.add_parser("ablation-redundancy", help="error vs redundancy parameter")
    sub.add_parser("ablation-exact", help="Theorem-2 algorithm scaling")
    sub.add_parser("ablation-dimension", help="CWTM/Theorem-6 vs dimension")
    sub.add_parser("ablation-schedules", help="step-size schedule comparison")
    sub.add_parser("ablation-adaptive", help="filter-aware adaptive attacks")

    p = sub.add_parser(
        "certify", help="certify the Appendix-J system against the theory"
    )
    p.add_argument("--iterations", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("svm", help="distributed SVM study (Section 5)")
    p.add_argument("--iterations", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "frontier", help="resilience frontier of the Appendix-J system"
    )
    p.add_argument("--max-f", type=int, default=2)

    p = sub.add_parser(
        "decentralized",
        help="decentralized graph engine: topology x connectivity x f sweep",
    )
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="seeds per cell (only stochastic attacks vary across seeds)",
    )
    _add_orchestration_flags(p)

    p = sub.add_parser(
        "decentralized-delay",
        help="delay-tolerant decentralized engine: topology x staleness x "
        "drop-rate x filter sweep (per-edge delays and losses)",
    )
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="seeds per cell (per-edge delays and drops are stochastic, "
        "so more seeds tighten the radius and gap estimates)",
    )
    p.add_argument(
        "--reference",
        action="store_true",
        help="replay the per-trial delay engine cell by cell instead of "
        "the fused (S, E) edge-tensor batch engine (slow; the oracle the "
        "batched engine is pinned against; direct runs only)",
    )
    _add_orchestration_flags(p)

    p = sub.add_parser(
        "asynchronous",
        help="asynchronous engine: staleness x drop-rate x filter sweep "
        "(batched tensor program by default)",
    )
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="seeds per cell (delays and drops are stochastic, so more "
        "seeds tighten the radius estimates)",
    )
    p.add_argument(
        "--reference",
        action="store_true",
        help="replay the per-trial event-driven engine cell by cell "
        "instead of the batched (S, n, d) tensor program (slow; the "
        "oracle the batched engine is pinned against; direct runs only)",
    )
    p.add_argument(
        "--seed-chunk",
        type=int,
        default=None,
        help="orchestrated runs: split each configuration's seeds into "
        "chunks of this size (one resumable cell per chunk)",
    )
    _add_orchestration_flags(p)

    sub.add_parser(
        "list",
        help="discoverability: registered aggregators, attacks and topologies",
    )

    p = sub.add_parser(
        "telemetry",
        help="inspect recorded telemetry event streams",
    )
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    ps = tsub.add_parser(
        "summarize",
        help="post-mortem report of a --telemetry-out JSONL stream: stage "
        "wall-time breakdown, slowest cells, retry histogram",
    )
    ps.add_argument("path", help="the recorded JSONL event stream")
    ps.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many slowest cells to list",
    )

    p = sub.add_parser(
        "all", help="regenerate every artifact into a directory"
    )
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument(
        "--skip-learning",
        action="store_true",
        help="skip the slow Figure-4/5 learning experiments",
    )
    p.add_argument("--seed", type=int, default=0)
    return parser


def _render_registries() -> str:
    """The ``list`` subcommand: every registry with one-line descriptions."""
    from ..aggregators.registry import aggregator_descriptions
    from ..attacks.registry import attack_descriptions
    from ..distsys.topology import topology_descriptions

    sections = (
        ("Gradient filters (aggregators)", aggregator_descriptions()),
        ("Byzantine attacks", attack_descriptions()),
        ("Communication topologies", topology_descriptions()),
    )
    blocks: List[str] = []
    for title, descriptions in sections:
        width = max(len(name) for name in descriptions)
        lines = [title, "-" * len(title)]
        lines.extend(
            f"  {name:<{width}}  {description}"
            for name, description in descriptions.items()
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _orchestration_flags(args: argparse.Namespace) -> List[str]:
    """The orchestration flags set on the command line: any of them
    routes the sweep through the orchestrator."""
    return [
        f"--{name.replace('_', '-')}"
        for name in (
            "jobs",
            "checkpoint_dir",
            "cell_timeout",
            "max_cells",
            "checkpoint_every",
            "no_resume",
        )
        if getattr(args, name, None) is not None
    ]


def _orchestrator_config(args: argparse.Namespace):
    """The sweep's orchestration policy, or ``None`` for the direct path."""
    if not _orchestration_flags(args):
        return None
    from .orchestrator import OrchestratorConfig

    return OrchestratorConfig(
        jobs=args.jobs if args.jobs is not None else 1,
        checkpoint_dir=args.checkpoint_dir,
        resume=not args.no_resume,
        cell_timeout=args.cell_timeout,
        max_cells=args.max_cells,
        checkpoint_every=args.checkpoint_every,
    )


def _telemetry_recorder(args: argparse.Namespace) -> Optional[Recorder]:
    """The subcommand's recorder, or ``None`` when recording is off.

    ``--telemetry-out`` streams every event to a JSONL file;
    ``--progress`` renders the noteworthy ones live on stderr.  One
    recorder fans out to both sinks, so the file stays the complete
    record of what the terminal showed.
    """
    sinks = []
    if getattr(args, "telemetry_out", None):
        sinks.append(JsonlSink(args.telemetry_out))
    if getattr(args, "progress", False):
        sinks.append(ProgressSink())
    if not sinks:
        return None
    return Recorder(sinks=sinks, progress_every=_PROGRESS_EVERY)


def _finish_report(args: argparse.Namespace, report) -> None:
    """Persist and surface a sweep report: degradation warns, never raises."""
    if getattr(args, "report_out", None):
        from .artifacts import save_sweep_report

        save_sweep_report(report, args.report_out)
        logger.info(f"[report] {args.report_out}")
    if report.interrupted:
        logger.warning(
            f"[interrupted] cell budget reached; {len(report.skipped)} cells "
            "left — rerun with the same --checkpoint-dir to continue"
        )
    for failed in report.failed_cells:
        logger.error(
            f"[failed cell] {failed['key']} after {failed['attempts']} "
            f"attempt(s): {failed['error']}"
        )
    for cell in report.quarantined_cells:
        records = cell["quarantined"]
        detail = "; ".join(
            f"trial {r.get('label', r.get('trial'))} round {r.get('round')}"
            f" ({r.get('reason')})"
            for r in records
        )
        logger.warning(
            f"[quarantined cell] {cell['key']}: {len(records)} trial(s) "
            f"frozen — {detail}"
        )


def _run_table1(args: argparse.Namespace) -> str:
    problem = paper_problem()
    config = _orchestrator_config(args)
    if config is not None:
        from .table1 import orchestrated_table1

        rows, report = orchestrated_table1(
            iterations=args.iterations, seed=args.seed, config=config
        )
        _finish_report(args, report)
    else:
        rows = generate_table1(
            problem, iterations=args.iterations, seed=args.seed
        )
    return render_table1(rows, epsilon=problem.epsilon)


def _run_figures(args: argparse.Namespace, zoom: bool) -> str:
    generate = generate_figure3 if zoom else generate_figure2
    panels = generate(iterations=args.iterations, seed=args.seed)
    blocks: List[str] = []
    for attack, panel in panels.items():
        blocks.append(render_figure(panel, "losses", stride=args.stride))
        blocks.append(render_figure(panel, "distances", stride=args.stride))
    return "\n\n".join(blocks)


def _run_learning(args: argparse.Namespace, variant: str) -> str:
    config = LearningExperimentConfig(
        variant=variant, iterations=args.iterations, seed=args.seed
    )
    panel = run_learning_experiment(config)
    return render_learning_panel(panel)


def _run_everything(args: argparse.Namespace) -> None:
    """The replication kit: write every artifact under ``args.out``."""
    from pathlib import Path

    from .svm_experiment import (
        SVMExperimentConfig,
        render_svm_panel,
        run_svm_experiment,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (out / f"{name}.txt").write_text(text + "\n")
        logger.info(f"[written] {out / (name + '.txt')}")

    problem = paper_problem()
    rows = generate_table1(problem, iterations=500, seed=args.seed)
    write("table1", render_table1(rows, epsilon=problem.epsilon))

    panels = generate_figure2(problem, iterations=1500, seed=args.seed)
    blocks = []
    for attack, panel in panels.items():
        blocks.append(render_figure(panel, "losses", stride=150))
        blocks.append(render_figure(panel, "distances", stride=150))
    write("figure2", "\n\n".join(blocks))

    zoom = generate_figure3(problem, iterations=80, seed=args.seed)
    blocks = []
    for attack, panel in zoom.items():
        blocks.append(render_figure(panel, "distances", stride=10))
    write("figure3", "\n\n".join(blocks))

    svm = run_svm_experiment(SVMExperimentConfig(seed=args.seed))
    write("svm", render_svm_panel(svm))

    if not args.skip_learning:
        for name, variant in (("figure4", "mnist_like"), ("figure5", "fashion_like")):
            panel = run_learning_experiment(
                LearningExperimentConfig(variant=variant, seed=args.seed)
            )
            write(name, render_learning_panel(panel))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = _orchestration_flags(args)
    if getattr(args, "reference", False) and flags:
        parser.error(
            f"argument --reference: not allowed with argument {flags[0]} "
            f"({args.command} --reference is a direct in-process run)"
        )
    _configure_logging(args.verbose, args.quiet)
    recorder = _telemetry_recorder(args)
    try:
        if recorder is None:
            # No telemetry flags: leave the ambient recorder untouched
            # (the determinism tests install their own around main()).
            return _dispatch(args)
        with use_recorder(recorder):
            return _dispatch(args)
    except BrokenPipeError:
        # stdout feeds a closed pipe (`... | head`): a truncated report
        # is what the reader asked for, not an error.  Swap in devnull so
        # interpreter shutdown does not re-raise on the final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if recorder is not None:
            recorder.close()


def _dispatch(args: argparse.Namespace) -> int:
    """Execute one parsed subcommand (the ambient recorder is installed)."""
    if args.command == "table1":
        print(_run_table1(args))
    elif args.command == "figure2":
        print(_run_figures(args, zoom=False))
    elif args.command == "figure3":
        print(_run_figures(args, zoom=True))
    elif args.command == "figure4":
        print(_run_learning(args, "mnist_like"))
    elif args.command == "figure5":
        print(_run_learning(args, "fashion_like"))
    elif args.command == "ablation-filters":
        rows = filter_zoo()
        print(
            format_table(
                ["filter", "attack", "distance", "within eps", "note"],
                [
                    [r.aggregator, r.attack, r.distance, r.within_epsilon, r.error or ""]
                    for r in rows
                ],
                title="Filter zoo on the Appendix-J problem",
            )
        )
    elif args.command == "ablation-fsweep":
        rows = f_sweep()
        print(
            format_table(
                ["n", "f", "eps", "measured", "Thm4 bound", "Thm5 bound"],
                [
                    [r.n, r.f, r.epsilon, r.measured_distance, r.bound_thm4, r.bound_thm5]
                    for r in rows
                ],
                title="CGE error vs fault count",
            )
        )
    elif args.command == "ablation-redundancy":
        rows = redundancy_sweep()
        print(
            format_table(
                ["spread", "eps", "exact err", "<=2eps", "CGE err", "CGE bound"],
                [
                    [
                        r.spread,
                        r.epsilon,
                        r.exact_error,
                        r.exact_within_2eps,
                        r.cge_error,
                        r.cge_bound,
                    ]
                    for r in rows
                ],
                title="Error vs redundancy parameter",
            )
        )
    elif args.command == "ablation-exact":
        rows = exact_algorithm_scaling()
        print(
            format_table(
                ["n", "f", "subsets", "worst dist", "eps"],
                [
                    [r.n, r.f, r.outer_subsets, r.worst_distance, r.epsilon]
                    for r in rows
                ],
                title="Theorem-2 algorithm scaling",
            )
        )
    elif args.command == "ablation-dimension":
        rows = dimension_sweep()
        print(
            format_table(
                ["d", "lambda", "threshold", "applies", "D'*eps", "measured"],
                [
                    [
                        r.d, r.lam, r.lambda_threshold, r.applicable,
                        r.bound, r.measured_distance,
                    ]
                    for r in rows
                ],
                title="CWTM / Theorem 6 vs dimension",
            )
        )
    elif args.command == "ablation-schedules":
        rows = schedule_sweep()
        print(
            format_table(
                ["schedule", "RM", "dist@100", "final", "< eps"],
                [
                    [
                        r.label, r.robbins_monro, r.distance_at_100,
                        r.final_distance, r.within_epsilon,
                    ]
                    for r in rows
                ],
                title="Step-size schedules",
            )
        )
    elif args.command == "ablation-adaptive":
        rows = adaptive_attack_sweep()
        print(
            format_table(
                ["filter", "attack", "dist", "< eps", "<= Thm5"],
                [
                    [
                        r.aggregator, r.attack, r.distance,
                        r.within_epsilon, r.within_theorem5,
                    ]
                    for r in rows
                ],
                title="Adaptive attacks",
            )
        )
    elif args.command == "certify":
        from ..core.certify import certify_system

        problem = paper_problem()
        report = certify_system(
            problem.costs,
            f=problem.f,
            stress_attacks=("gradient_reverse", "random", "zero"),
            aggregators=("cge", "cwtm"),
            iterations=args.iterations,
            seed=args.seed,
        )
        print(report.render())
    elif args.command == "svm":
        from .svm_experiment import (
            SVMExperimentConfig,
            render_svm_panel,
            run_svm_experiment,
        )

        panel = run_svm_experiment(
            SVMExperimentConfig(iterations=args.iterations, seed=args.seed)
        )
        print(render_svm_panel(panel))
    elif args.command == "frontier":
        from ..core.frontier import render_frontier, resilience_frontier

        problem = paper_problem()
        rows = resilience_frontier(problem.costs, max_f=args.max_f)
        print(render_frontier(rows, n=problem.n))
    elif args.command == "decentralized":
        from .decentralized import (
            decentralized_sweep,
            orchestrated_decentralized_sweep,
            render_decentralized_report,
        )

        seeds = tuple(range(args.seed, args.seed + args.seeds))
        config = _orchestrator_config(args)
        if config is not None:
            rows, report = orchestrated_decentralized_sweep(
                iterations=args.iterations, seeds=seeds, config=config
            )
            _finish_report(args, report)
        else:
            rows = decentralized_sweep(
                iterations=args.iterations, seeds=seeds
            )
        print(render_decentralized_report(rows, iterations=args.iterations))
    elif args.command == "decentralized-delay":
        from .decentralized_delay import (
            decentralized_delay_sweep,
            orchestrated_decentralized_delay_sweep,
            render_decentralized_delay_report,
        )

        seeds = tuple(range(args.seed, args.seed + args.seeds))
        engine = "reference" if args.reference else "batched"
        config = _orchestrator_config(args)
        if config is not None:
            rows, report = orchestrated_decentralized_delay_sweep(
                iterations=args.iterations, seeds=seeds, config=config
            )
            _finish_report(args, report)
        else:
            rows = decentralized_delay_sweep(
                iterations=args.iterations, seeds=seeds, engine=engine
            )
        print(
            render_decentralized_delay_report(rows, iterations=args.iterations)
        )
    elif args.command == "asynchronous":
        from .asynchronous import (
            asynchronous_sweep,
            orchestrated_asynchronous_sweep,
            render_asynchronous_report,
        )

        seeds = tuple(range(args.seed, args.seed + args.seeds))
        engine = "reference" if args.reference else "batched"
        config = _orchestrator_config(args)
        if config is not None:
            rows, report = orchestrated_asynchronous_sweep(
                iterations=args.iterations,
                seeds=seeds,
                seed_chunk=args.seed_chunk,
                config=config,
            )
            _finish_report(args, report)
        else:
            rows = asynchronous_sweep(
                iterations=args.iterations, seeds=seeds, engine=engine
            )
        print(render_asynchronous_report(rows, iterations=args.iterations))
    elif args.command == "telemetry":
        from ..telemetry.summarize import render_summary, summarize_file

        if args.telemetry_command == "summarize":
            print(render_summary(summarize_file(args.path), top=args.top))
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(
                f"unhandled telemetry command {args.telemetry_command!r}"
            )
    elif args.command == "list":
        print(_render_registries())
    elif args.command == "all":
        _run_everything(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
