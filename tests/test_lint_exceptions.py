"""Typed-error checker: every exception an RPC handler can raise must
be marshallable via _ERROR_CODES and caught (or deliberately waived)
somewhere; dead codes and silent swallows are flagged."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import run_lint

PROTOCOL = """\
    class StorageError(Exception):
        pass

    class NoSuchFileError(StorageError):
        pass

    class QuotaError(StorageError):
        pass

    _ERROR_CODES: dict[str, type] = {
        "not-found": NoSuchFileError,
        "quota": QuotaError,
    }
"""


def build(tmp_path, files, context=()):
    for rel, source in dict(files, **dict(context)).items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    paths = [tmp_path / rel for rel in files]
    ctx = [tmp_path / rel for rel in dict(context)]
    return run_lint(root=tmp_path, paths=paths,
                    checkers=["exceptions"], context_paths=ctx)


def active(report):
    return [(f.rule, f.path, f.line) for f in report.active]


CATCHER = {
    "service/client.py": """\
        from .protocol import NoSuchFileError, QuotaError

        def read(client, name):
            try:
                return client.call("stat", {"name": name})
            except NoSuchFileError:
                return None
            except QuotaError:
                return None
    """,
}


class TestUnmarshallable:
    def test_handler_raising_unlisted_type_flagged(self, tmp_path):
        report = build(tmp_path, {
            "service/protocol.py": PROTOCOL,
            "service/namenode.py": """\
                from .protocol import NoSuchFileError, QuotaError

                class NameNodeServer:
                    def _op_stat(self, data):
                        if "name" not in data:
                            raise KeyError("name")
                        raise NoSuchFileError(data["name"])
            """,
        }, context=CATCHER)
        rules = active(report)
        assert ("exceptions.unmarshallable",
                "service/namenode.py", 6) in rules
        # NoSuchFileError is in the contract: not flagged
        assert not any(r == "exceptions.unmarshallable" and line == 7
                       for r, _, line in rules)

    @pytest.mark.parametrize("daemon", ["namenode", "datanode"])
    def test_transitive_raise_through_helper(self, tmp_path, daemon):
        # both daemons' _op_* methods are the roots of the wire contract
        report = build(tmp_path, {
            "service/protocol.py": PROTOCOL,
            f"service/{daemon}.py": """\
                from .protocol import NoSuchFileError, QuotaError

                class Server:
                    def _op_stat(self, data):
                        return self._lookup(data["name"])

                    def _lookup(self, name):
                        raise ValueError(name)
            """,
        }, context=CATCHER)
        assert ("exceptions.unmarshallable",
                f"service/{daemon}.py", 8) in active(report)

    def test_caught_en_route_is_clean(self, tmp_path):
        report = build(tmp_path, {
            "service/protocol.py": PROTOCOL,
            "service/namenode.py": """\
                from .protocol import NoSuchFileError, QuotaError

                class NameNodeServer:
                    def _op_stat(self, data):
                        try:
                            return self._lookup(data["name"])
                        except ValueError:
                            raise NoSuchFileError(data["name"])

                    def _lookup(self, name):
                        raise ValueError(name)
            """,
        }, context=CATCHER)
        assert not any(r == "exceptions.unmarshallable"
                       for r, _, _ in active(report))


class TestContractHygiene:
    def test_unraised_code_flagged(self, tmp_path):
        report = build(tmp_path, {
            "service/protocol.py": PROTOCOL,
            "service/namenode.py": """\
                from .protocol import NoSuchFileError, QuotaError

                class NameNodeServer:
                    def _op_stat(self, data):
                        raise NoSuchFileError(data["name"])

                    def _op_put(self, data):
                        raise QuotaError(data["name"])
            """,
        }, context=CATCHER)
        clean = active(report)
        assert not any(r == "exceptions.unraised-code"
                       for r, _, _ in clean)
        # drop the QuotaError raise: the "quota" code goes dead
        report = build(tmp_path, {
            "service/protocol.py": PROTOCOL,
            "service/namenode.py": """\
                from .protocol import NoSuchFileError

                class NameNodeServer:
                    def _op_stat(self, data):
                        raise NoSuchFileError(data["name"])
            """,
        }, context=CATCHER)
        assert any(r == "exceptions.unraised-code"
                   and p == "service/protocol.py"
                   for r, p, _ in active(report))

    def test_uncaught_typed_error(self, tmp_path):
        report = build(tmp_path, {
            "service/protocol.py": PROTOCOL,
            "service/namenode.py": """\
                from .protocol import NoSuchFileError, QuotaError

                class NameNodeServer:
                    def _op_stat(self, data):
                        raise NoSuchFileError(data["name"])

                    def _op_put(self, data):
                        raise QuotaError(data["name"])
            """,
        }, context={
            "service/client.py": """\
                from .protocol import NoSuchFileError, QuotaError

                def read(client, name):
                    try:
                        return client.call("stat", {"name": name})
                    except NoSuchFileError:
                        return None
            """,
        })
        found = [f for f in report.active
                 if f.rule == "exceptions.uncaught-error"]
        assert len(found) == 1
        assert "QuotaError" in found[0].message
        assert found[0].path == "service/namenode.py"


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
