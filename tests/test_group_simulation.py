"""The node-level group simulator is one event loop in two languages.

``reliability/simulate.py`` keeps a plain-Python event loop as the
reference, and the native library runs the same loop in C for codes of
at most ``_VERDICT_TABLE_MAX_LENGTH`` slots.  From the same generator
the two must consume the same variates and return the same float, for
every registry code and both repair disciplines.  The native half is
skipped when the library did not load.
"""

import numpy as np
import pytest

from repro.core import make_code
from repro.core.registry import available_codes
from repro.gf import native
from repro.reliability import (
    ReliabilityParams,
    simulate_group_mttd,
    simulate_group_mttd_total,
)
from repro.reliability import simulate

NATIVE = native.load() is not None
needs_native = pytest.mark.skipif(
    not NATIVE, reason=f"native library unavailable: {native.error()}")

SHORT_CODES = [name for name in available_codes()
               if make_code(name).length <= simulate._VERDICT_TABLE_MAX_LENGTH]

#: An odd block far below the default, so a few dozen trials cross many
#: block boundaries.
SMALL_BLOCK = 61


def fast(repair: str = "parallel") -> ReliabilityParams:
    return ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0,
                             repair=repair)


class Counted:
    """Counts block draws and verdict fills around one code."""

    def __init__(self, monkeypatch, code):
        self.draws = self.fills = 0
        draw, recover = simulate._draw, code.can_recover

        def counted_draw(rng):
            self.draws += 1
            return draw(rng)

        def counted_recover(slots):
            self.fills += 1
            return recover(slots)

        monkeypatch.setattr(simulate, "_draw", counted_draw)
        monkeypatch.setattr(code, "can_recover", counted_recover)


def run_python(code, params, seed, trials, max_events=10_000_000):
    return simulate._python_loop(code, params, np.random.default_rng(seed),
                                 trials, max_events)


def run_native(code, params, seed, trials, max_events=10_000_000):
    return simulate._native_loop(code, params, np.random.default_rng(seed),
                                 trials, max_events)


@needs_native
class TestOneLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("repair", ["parallel", "serial"])
    @pytest.mark.parametrize("code_name", SHORT_CODES)
    def test_native_total_equals_python_total(self, monkeypatch, code_name,
                                              repair, seed):
        monkeypatch.setattr(simulate, "_BLOCK", SMALL_BLOCK)
        code = make_code(code_name)
        expected = run_python(code, fast(repair), seed, trials=20)
        counted = Counted(monkeypatch, code)
        assert run_native(code, fast(repair), seed, trials=20) == expected
        assert counted.draws >= 3, "the trials should cross several blocks"
        assert counted.fills >= 3, "the C loop should stop for verdicts"

    def test_default_block_size(self, monkeypatch):
        code = make_code("3-rep")
        expected = run_python(code, fast(), 5, trials=200)
        counted = Counted(monkeypatch, code)
        assert run_native(code, fast(), 5, trials=200) == expected
        assert counted.draws >= 3

    def test_entry_point_takes_the_native_loop(self, monkeypatch):
        code = make_code("pentagon")
        expected = run_python(code, fast(), 9, trials=30)
        monkeypatch.setattr(simulate, "_python_loop", None)
        native.set_backend("native")
        try:
            assert simulate_group_mttd_total(
                code, fast(), np.random.default_rng(9), trials=30) == expected
        finally:
            native.set_backend(None)

    def test_native_loop_enforces_the_event_budget(self):
        with pytest.raises(RuntimeError, match="event budget"):
            run_native(make_code("heptagon-local"),
                       ReliabilityParams(node_mttf_hours=1e9,
                                         node_mttr_hours=1.0),
                       6, trials=50, max_events=1000)


class TestPythonLoop:
    def test_python_loop_enforces_the_event_budget(self):
        with pytest.raises(RuntimeError, match="event budget"):
            run_python(make_code("heptagon-local"),
                       ReliabilityParams(node_mttf_hours=1e9,
                                         node_mttr_hours=1.0),
                       6, trials=50, max_events=1000)

    @pytest.mark.parametrize("code_name", ["(13,12) RAID+m", "rs(70,60)"])
    def test_long_codes_take_the_python_loop(self, monkeypatch, code_name):
        code = make_code(code_name)
        assert code.length > simulate._VERDICT_TABLE_MAX_LENGTH
        monkeypatch.setattr(simulate, "_native_loop", None)
        # Failure-dominated rates, so a loss arrives within a few dozen
        # events per trial.
        params = ReliabilityParams(node_mttf_hours=1.0,
                                   node_mttr_hours=100.0)
        measured = simulate_group_mttd(code, params,
                                       np.random.default_rng(2), trials=30)
        assert measured == run_python(code, params, 2, trials=30) / 30
        assert measured > 0

    def test_numpy_backend_takes_the_python_loop(self, monkeypatch):
        code = make_code("pentagon")
        expected = run_python(code, fast(), 4, trials=30)
        monkeypatch.setattr(simulate, "_native_loop", None)
        native.set_backend("numpy")
        try:
            assert simulate_group_mttd_total(
                code, fast(), np.random.default_rng(4), trials=30) == expected
        finally:
            native.set_backend(None)
