"""The polygon-local family sweep: engine determinism, shape checks and
the CLI subcommand."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import families
from repro.reliability import ReliabilityParams

FAST = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)

#: Cheap subset for most tests (skips the 22-slot member).
SMALL = ("pentagon-local", "pentagon-local(3g,2p)")


class TestBuildFamilies:
    def test_rows_align_with_codes(self):
        result = families.build_families(codes=SMALL, params=FAST)
        assert [row.code for row in result.rows] == list(SMALL)
        row = result.row("pentagon-local(3g,2p)")
        assert row.groups == 3
        assert row.code_length == 16
        assert row.fault_tolerance == 3
        assert row.mttdl_pattern_years > 0

    def test_bit_identical_across_workers(self):
        serial = families.build_families(codes=SMALL, params=FAST)
        pooled = families.build_families(codes=SMALL, params=FAST,
                                         workers=2)
        assert serial.as_rows() == pooled.as_rows()

    def test_full_lineup_includes_22_slot_member(self):
        result = families.build_families(params=FAST)
        row = result.row("heptagon-local(3g,2p)")
        assert row.code_length == 22
        assert row.fault_tolerance == 3
        checks = families.shape_checks(result)
        assert all(checks.values()), checks

    def test_uber_only_hurts(self):
        clean = families.build_families(codes=SMALL, params=FAST,
                                        uber_block_prob=0.0)
        dirty = families.build_families(codes=SMALL, params=FAST,
                                        uber_block_prob=1e-3)
        for code in SMALL:
            assert dirty.row(code).mttdl_uber_years \
                < clean.row(code).mttdl_uber_years
            assert clean.row(code).mttdl_uber_years == pytest.approx(
                clean.row(code).mttdl_pattern_years, rel=1e-9)

    def test_bad_uber_rejected(self):
        with pytest.raises(ValueError):
            families.build_families(codes=SMALL, params=FAST,
                                    uber_block_prob=1.5)

    def test_unknown_code_names_surface(self):
        from repro.experiments.engine import CellExecutionError
        with pytest.raises(CellExecutionError, match="families"):
            families.build_families(codes=("no-such-code",), params=FAST)


class TestCli:
    def test_parser_accepts_options(self):
        args = build_parser().parse_args(
            ["families", "--uber", "1e-5", "--node-count", "30",
             "--codes", "pentagon-local", "--workers", "2"])
        assert args.command == "families"
        assert args.uber == pytest.approx(1e-5)
        assert args.node_count == 30
        assert args.codes == ["pentagon-local"]

    @staticmethod
    def spy_on_build(monkeypatch, argv):
        """The keyword arguments ``main(argv)`` hands build_families."""
        seen = {}

        class Stop(Exception):
            pass

        def spy(*args, **kwargs):
            assert not args
            seen.update(kwargs)
            raise Stop

        monkeypatch.setattr(families, "build_families", spy)
        with pytest.raises(Stop):
            main(argv)
        return seen

    def test_defaults_are_the_module_constants(self, monkeypatch):
        """The parser imports no experiment module, so run_families
        fills in the defaults: exactly the module's constants."""
        seen = self.spy_on_build(monkeypatch, ["families"])
        assert seen["codes"] is families.FAMILY_CODES
        assert seen["uber_block_prob"] == families.DEFAULT_UBER == 1e-4
        assert seen["node_count"] == families.NODE_COUNT == 50
        assert seen["workers"] is None

    def test_explicit_zero_uber_is_kept(self, monkeypatch):
        seen = self.spy_on_build(
            monkeypatch, ["families", "--uber", "0", "--node-count", "30"])
        assert seen["uber_block_prob"] == 0.0
        assert seen["node_count"] == 30

    def test_smoke(self, capsys):
        assert main(["families", "--codes", "pentagon-local",
                     "pentagon-local(3g,2p)"]) == 0
        out = capsys.readouterr().out
        assert "pentagon-local(3g,2p)" in out
        assert "calibrated node MTTF" in out
        assert "[ok]" in out and "FAIL" not in out
