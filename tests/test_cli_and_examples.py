"""Tests for the CLI entry point and smoke tests for every example."""

import pathlib
import runpy
import sys

import pytest

from repro.cli import build_parser, main

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Every subcommand that runs a sweep and so takes ``--workers``.
SWEEP_COMMANDS = ("table1", "fig3", "fig4", "fig5", "repair", "families",
                  "ablations", "all")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3_options(self):
        args = build_parser().parse_args(["fig3", "--mu", "4", "--trials", "7"])
        assert args.command == "fig3"
        assert args.mu == 4
        assert args.trials == 7

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_workers_validation_matches_resolve_workers(self):
        """CLI help says 0 means one per CPU; negatives are rejected at
        the parser, like resolve_workers does."""
        assert build_parser().parse_args(["fig3", "--workers", "0"]).workers == 0
        assert build_parser().parse_args(["fig3", "--workers", "4"]).workers == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--workers", "-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--workers", "many"])

    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    def test_every_sweep_subcommand_takes_a_worker_count(self, command):
        assert build_parser().parse_args([command]).workers is None
        args = build_parser().parse_args([command, "--workers", "2"])
        assert args.workers == 2

    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    def test_no_sweep_subcommand_takes_a_coordinator_address(self, command):
        """Sweeps run serially or on a local pool; there is no socket
        coordinator to point them at."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--distributed", "h:1"])

    def test_there_is_no_sweep_worker_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "h:1"])

    def test_address_validation(self):
        """A malformed HOST:PORT fails at the parser, not as a
        traceback mid-run."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["datanode", "--node-id", "1", "--namenode", "localhost"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "localhost:http"])
        args = build_parser().parse_args(
            ["datanode", "--node-id", "1", "--namenode", "h:1"])
        assert args.namenode == "h:1"


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "pentagon" in out
        assert "1.20e+09" in out
        assert "[ok]" in out and "FAIL" not in out

    def test_fig3_single_panel(self, capsys):
        assert main(["fig3", "--mu", "2", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "mu=2" in out
        assert "hept-DS" in out

    @pytest.mark.parametrize("mu", ("0", "-2"))
    def test_fig3_rejects_a_non_positive_mu(self, mu, capsys):
        """``--mu 0`` used to run all four panels and ``--mu -2`` to die
        deep in the sweep; both now stop at the parser."""
        with pytest.raises(SystemExit) as exit_info:
            main(["fig3", "--mu", mu, "--trials", "1"])
        assert exit_info.value.code != 0
        captured = capsys.readouterr()
        assert "=== Fig. 3 mu=2 ===" not in captured.out
        assert "--mu" in captured.err

    @pytest.mark.parametrize("command", ("table1", "all"))
    @pytest.mark.parametrize("trials", ("-5", "3", "200", "399", "x"))
    def test_mc_trials_below_the_check_s_floor_stop_at_the_parser(
            self, command, trials, capsys):
        """At 200 trials the 15 % check failed 3-rep on the default seed,
        at 3 it failed (4,3) RAID+m, and -5 built the whole table before
        a ValueError traceback."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--mc-trials", trials])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--mc-trials" in err and "15%" in err and "400" in err

    @pytest.mark.parametrize("trials", (0, 400, 600))
    def test_mc_trials_zero_or_enough(self, trials):
        for command in ("table1", "all"):
            args = build_parser().parse_args(
                [command, "--mc-trials", str(trials)])
            assert args.mc_trials == trials

    def test_table1_mc_check_passes_at_its_floor(self, capsys):
        assert main(["table1", "--mc-trials", "400"]) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo validation" in out
        assert "FAIL" not in out

    def test_fig4(self, capsys):
        assert main(["fig4", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "job time" in out
        assert "heptagon" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "9 nodes" in out

    def test_repair(self, capsys):
        assert main(["repair"]) == 0
        out = capsys.readouterr().out
        assert "degraded read" in out
        assert "FAIL" not in out


def run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES_DIR / f"{name}.py"
    old_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    """Every example must run end-to-end (small trial counts)."""

    def test_quickstart(self, capsys):
        run_example("quickstart")
        assert "quickstart OK" in capsys.readouterr().out

    def test_cluster_walkthrough(self, capsys):
        run_example("cluster_walkthrough")
        out = capsys.readouterr().out
        assert "walkthrough OK" in out
        assert "cross-rack" in out

    def test_locality_study(self, capsys):
        run_example("locality_study", ["2"])
        out = capsys.readouterr().out
        assert "peeling recovers" in out

    def test_terasort_simulation(self, capsys):
        run_example("terasort_simulation", ["2"])
        out = capsys.readouterr().out
        assert "set-up 1" in out and "set-up 2" in out

    def test_reliability_study(self, capsys):
        run_example("reliability_study")
        out = capsys.readouterr().out
        assert "Monte-Carlo validation" in out
        assert "FAIL" not in out

    def test_degraded_mapreduce(self, capsys):
        run_example("degraded_mapreduce")
        out = capsys.readouterr().out
        assert "blocks fetched" in out
