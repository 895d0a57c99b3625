"""Silent-swallow checker: an ``except Exception: pass`` around an RPC
call loses every typed error the server preserved, unless a waiver
says the path is best-effort.  (Which errors each op may answer is
declared in the op tables and checked live: tests/test_rpc_validate.py.)"""

from __future__ import annotations

import textwrap

from repro.analysis import run_lint


def build(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint(root=tmp_path, paths=[tmp_path / rel for rel in files],
                    checkers=["exceptions"])


def active(report):
    return [(f.rule, f.path, f.line) for f in report.active]


class TestSilentSwallow:
    def test_swallowed_rpc_call_flagged(self, tmp_path):
        report = build(tmp_path, {
            "service/client.py": """\
                class StorageClient:
                    def cleanup(self, name):
                        try:
                            self._nn_call("abort-write", {"name": name})
                        except Exception:
                            pass
            """,
        })
        assert active(report) == [
            ("exceptions.silent-swallow", "service/client.py", 5)]

    def test_waived_swallow_is_quiet(self, tmp_path):
        report = build(tmp_path, {
            "service/client.py": """\
                class StorageClient:
                    def cleanup(self, name):
                        try:
                            self._nn_call("abort-write", {"name": name})
                        # lint: allow(exceptions.silent-swallow): best effort
                        except Exception:
                            pass
            """,
        })
        assert active(report) == []

    def test_typed_catch_is_not_a_swallow(self, tmp_path):
        report = build(tmp_path, {
            "service/client.py": """\
                class StorageClient:
                    def cleanup(self, name):
                        try:
                            self._nn_call("abort-write", {"name": name})
                        except ConnectionError:
                            pass
            """,
        })
        assert active(report) == []
