"""Picklability checker: lambdas and closures headed for a process
pool are caught; module-level callables and thread-pool bound methods
pass."""

from __future__ import annotations

import textwrap

from repro.analysis import run_lint


def lint_source(tmp_path, source, rel="experiments/grid.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint(root=tmp_path, paths=[tmp_path],
                    checkers=["picklability"], context_paths=[])


def rules(report):
    return [(f.rule, f.line) for f in report.active]


class TestCellCallable:
    def test_lambda_fn_keyword(self, tmp_path):
        report = lint_source(tmp_path, """\
            from repro.experiments.engine import Cell

            CELLS = [Cell("exp", "k", fn=lambda rng: rng.random(), trials=3)]
        """)
        assert rules(report) == [("picklability.lambda-callable", 3)]

    def test_lambda_third_positional(self, tmp_path):
        report = lint_source(tmp_path, """\
            from repro.experiments.engine import Cell

            CELL = Cell("exp", "k", lambda rng: 0)
        """)
        assert rules(report) == [("picklability.lambda-callable", 3)]

    def test_nested_function_by_name(self, tmp_path):
        report = lint_source(tmp_path, """\
            from repro.experiments.engine import Cell

            def build():
                def trial(rng):
                    return rng.random()
                return Cell("exp", "k", fn=trial, trials=3)
        """)
        assert rules(report) == [("picklability.nested-callable", 6)]

    def test_module_level_function_is_fine(self, tmp_path):
        report = lint_source(tmp_path, """\
            from repro.experiments.engine import Cell

            def trial(rng):
                return rng.random()

            CELL = Cell("exp", "k", fn=trial, trials=3)
        """)
        assert report.ok()

    def test_partial_over_nested_function(self, tmp_path):
        report = lint_source(tmp_path, """\
            import functools
            from repro.experiments.engine import Cell

            def build(width):
                def trial(rng, w):
                    return rng.random() * w
                return Cell("exp", "k",
                            fn=functools.partial(trial, w=width))
        """)
        assert rules(report) == [("picklability.nested-callable", 8)]


class TestEngineEntryPoints:
    def test_lambda_inside_run_cells_args(self, tmp_path):
        report = lint_source(tmp_path, """\
            from repro.experiments.engine import run_cells

            def go(cells):
                return run_cells(cells, reduce=lambda xs: sum(xs))
        """)
        assert rules(report) == [("picklability.lambda-callable", 4)]


class TestSubmissionSites:
    def test_lambda_into_pool_submit(self, tmp_path):
        report = lint_source(tmp_path, """\
            def go(pool):
                return pool.submit(lambda: 1)
        """)
        assert rules(report) == [("picklability.lambda-callable", 2)]

    def test_nested_fn_into_pool_map(self, tmp_path):
        report = lint_source(tmp_path, """\
            def go(pool, items):
                def work(item):
                    return item * 2
                return pool.map(work, items)
        """)
        assert rules(report) == [("picklability.nested-callable", 4)]

    def test_bound_method_submit_is_fine(self, tmp_path):
        # thread pools don't pickle; bound methods of module-level
        # classes pickle fine for process pools too
        report = lint_source(tmp_path, """\
            class Server:
                def _serve(self, conn):
                    return conn

                def accept(self, pool, conn):
                    pool.submit(self._serve, conn)
        """)
        assert report.ok()

    def test_module_level_fn_into_map_is_fine(self, tmp_path):
        report = lint_source(tmp_path, """\
            def work(item):
                return item * 2

            def go(pool, items):
                return pool.map(work, items, chunksize=8)
        """)
        assert report.ok()


class TestScopeAndWaivers:
    def test_checker_runs_outside_experiments_too(self, tmp_path):
        # the sweep engine is reachable from anywhere in the tree
        report = lint_source(tmp_path, """\
            def go(pool):
                return pool.submit(lambda: 1)
        """, rel="tools/driver.py")
        assert rules(report) == [("picklability.lambda-callable", 2)]

    def test_waiver(self, tmp_path):
        report = lint_source(tmp_path, """\
            def go(pool):
                return pool.submit(lambda: 1)  # lint: allow(picklability.lambda-callable): thread pool, never pickled
        """)
        assert report.ok()
        assert len(report.waived) == 1
