"""Fast end-to-end tests of the remaining CLI subcommands."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table1"],
            ["figure2"],
            ["figure3"],
            ["figure4"],
            ["figure5"],
            ["ablation-filters"],
            ["ablation-fsweep"],
            ["ablation-redundancy"],
            ["ablation-exact"],
            ["ablation-dimension"],
            ["ablation-schedules"],
            ["ablation-adaptive"],
            ["certify"],
            ["svm"],
            ["frontier", "--max-f", "1"],
            ["decentralized", "--iterations", "50"],
            ["decentralized-delay", "--iterations", "50", "--seeds", "2"],
            ["asynchronous", "--iterations", "50", "--seeds", "2"],
            ["list"],
            ["all", "--skip-learning"],
        ],
    )
    def test_all_subcommands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFastCommands:
    def test_certify_runs(self, capsys):
        assert main(["certify", "--iterations", "100"]) == 0
        out = capsys.readouterr().out
        assert "Resilience certification" in out
        assert "Theorem 5" in out

    def test_svm_runs(self, capsys):
        assert main(["svm", "--iterations", "100"]) == 0
        out = capsys.readouterr().out
        assert "Distributed SVM" in out
        assert "fault-free" in out

    def test_list_prints_every_registry(self, capsys):
        from repro.aggregators import available_aggregators
        from repro.attacks import available_attacks
        from repro.distsys import available_topologies

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in available_aggregators():
            assert name in out
        for name in available_attacks():
            assert name in out
        for name in available_topologies():
            assert name in out
        assert "Gradient filters" in out
        assert "Communication topologies" in out

    def test_decentralized_runs(self, capsys):
        assert main(["decentralized", "--iterations", "40", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "convergence radius" in out
        assert "complete" in out
        assert "honest" in out

    def test_decentralized_delay_runs(self, capsys):
        assert main(["decentralized-delay", "--iterations", "40"]) == 0
        out = capsys.readouterr().out
        assert "Delay-tolerant decentralized" in out
        assert "tau" in out
        assert "shrink" in out and "masked" in out

    def test_ablation_exact_runs(self, capsys):
        assert main(["ablation-exact"]) == 0
        out = capsys.readouterr().out
        assert "Theorem-2" in out

    def test_asynchronous_runs(self, capsys):
        assert main(["asynchronous", "--iterations", "40"]) == 0
        out = capsys.readouterr().out
        assert "Asynchronous robust DGD" in out
        assert "tau" in out
        assert "shrink" in out and "masked" in out

    def test_ablation_redundancy_runs(self, capsys):
        assert main(["ablation-redundancy"]) == 0
        out = capsys.readouterr().out
        assert "redundancy" in out.lower()

    def test_frontier_runs(self, capsys):
        assert main(["frontier", "--max-f", "1"]) == 0
        out = capsys.readouterr().out
        assert "Resilience frontier" in out
        assert "Theorem 5" in out  # the paper instance's covering theorem


class TestOrchestratedCommands:
    """--jobs/--checkpoint-dir route the sweep subcommands through the
    orchestrator; without them the direct path is untouched."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--jobs", "2", "--checkpoint-dir", "x"],
            ["decentralized", "--cell-timeout", "30", "--max-cells", "3"],
            ["decentralized-delay", "--checkpoint-every", "50"],
            ["asynchronous", "--seed-chunk", "2", "--no-resume"],
        ],
    )
    def test_orchestration_flags_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    @pytest.mark.parametrize("command", ["asynchronous", "decentralized-delay"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "2"],
            ["--checkpoint-dir", "x"],
            ["--cell-timeout", "30"],
            ["--max-cells", "0"],
            ["--checkpoint-every", "5"],
            ["--no-resume"],
        ],
    )
    def test_reference_rejects_orchestration_flags(
        self, capsys, command, flags
    ):
        # --reference runs the per-trial oracle as a direct in-process
        # sweep only: no orchestrated route takes it.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--iterations", "5", "--reference", *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--reference" in err and flags[0] in err

    @pytest.mark.parametrize(
        "command",
        ["table1", "decentralized", "asynchronous", "decentralized-delay"],
    )
    def test_checkpoint_every_needs_checkpoint_dir(self, capsys, command):
        # Engine snapshots go to the checkpoint store, so without one the
        # flag is a usage error rather than a silent per-cell slowdown.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--iterations", "5", "--checkpoint-every", "5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--checkpoint-every" in err and "checkpoint_dir" in err

    def test_table1_checkpointed_run_and_warm_resume(self, capsys, tmp_path):
        argv = [
            "table1",
            "--iterations", "40",
            "--checkpoint-dir", str(tmp_path),
            "--report-out", str(tmp_path / "report.json"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold  # cached cells reproduce the table exactly
        from repro.experiments.artifacts import load_sweep_report

        report = load_sweep_report(tmp_path / "report.json")
        assert len(report.outcomes) == 4
        assert all(o.status == "cached" for o in report.outcomes)

    def test_interrupted_sweep_warns_and_exits_zero(self, capsys, tmp_path):
        assert main([
            "decentralized",
            "--iterations", "20",
            "--checkpoint-dir", str(tmp_path),
            "--max-cells", "2",
        ]) == 0
        err = capsys.readouterr().err
        assert "[interrupted]" in err
