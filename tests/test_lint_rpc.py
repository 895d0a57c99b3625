"""RPC-surface checker: op registries are rebuilt from dispatch code
and cross-referenced against call sites on both sides of the wire."""

from __future__ import annotations

import textwrap

from repro.analysis import run_lint

NAMENODE = """\
    class NameNodeServer:
        def _op_locations(self, data, peer):
            return {}

        def _op_stat(self, data, peer):
            return {}
"""

DATANODE = """\
    class DataNodeServer:
        def _handle(self, kind, data, sock):
            if kind == "put":
                return {"ok": True}
            if kind in ("get", "delete"):
                return {"ok": True}
            raise ValueError(kind)
"""


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint(tmp_path, context_paths=()):
    # scan only the source trees: fixture "tests/" files are context,
    # not scanned code
    scan = [p for p in (tmp_path / "service", tmp_path / "experiments",
                        tmp_path / "repro")
            if p.is_dir()]
    return run_lint(root=tmp_path, paths=scan, checkers=["rpc"],
                    context_paths=list(context_paths))


def actives(report):
    return [(f.rule, f.path, f.line) for f in report.active]


class TestOpRegistries:
    def test_matched_surface_is_clean(self, tmp_path):
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/datanode.py", DATANODE)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
                    self._nn_call("stat", {})
                    self._dn_call(0, "put", {})
                    self._dn_call(0, "get", {})
                    self._dn_call(0, "delete", {})
        """)
        report = lint(tmp_path)
        assert report.ok(), report.format_text()

    def test_unknown_namenode_op_flagged_at_call_site(self, tmp_path):
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
                    self._nn_call("locatoins", {})
        """)
        report = lint(tmp_path)
        assert ("rpc.unknown-op", "service/client.py", 4) in actives(report)

    def test_unused_handler_flagged_at_handler(self, tmp_path):
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
        """)
        report = lint(tmp_path)
        assert actives(report) == [
            ("rpc.unused-op", "service/namenode.py", 5)]

    def test_unknown_datanode_op(self, tmp_path):
        write(tmp_path, "service/datanode.py", DATANODE)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._dn_call(0, "put", {})
                    self._dn_call(0, "get", {})
                    self._dn_call(0, "delete", {})
                    self._dn_call(0, "putt", {})
        """)
        report = lint(tmp_path)
        assert actives(report) == [
            ("rpc.unknown-op", "service/client.py", 6)]

    def test_hyphenated_op_names_round_trip(self, tmp_path):
        write(tmp_path, "service/namenode.py", """\
            class NameNodeServer:
                def _op_begin_write(self, data, peer):
                    return {}
        """)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("begin-write", {})
        """)
        report = lint(tmp_path)
        assert report.ok(), report.format_text()

    def test_bare_call_helper_checks_against_both_servers(self, tmp_path):
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/datanode.py", DATANODE + """\

    def heartbeat(sock):
        call(sock, "stat", {})
        call(sock, "nowhere", {})
""")
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
                    self._dn_call(0, "put", {})
                    self._dn_call(0, "get", {})
                    self._dn_call(0, "delete", {})
        """)
        report = lint(tmp_path)
        assert actives(report) == [
            ("rpc.unknown-op", "service/datanode.py", 11)]


    def test_protocol_request_builders_count_as_senders(self, tmp_path):
        """``transfer_request`` returns the frame its callers send."""
        write(tmp_path, "service/datanode.py", DATANODE)
        write(tmp_path, "service/protocol.py", """\
            def transfer_request(name, stripe, transfer):
                if transfer.plain:
                    return ("get", {"block": (name, stripe, 0)})
                return ("combyne", {"parts": []})

            def unrelated():
                return ("put", None)
        """)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._dn_call(0, "delete", {})
        """)
        report = lint(tmp_path)
        assert sorted(actives(report)) == [
            ("rpc.unknown-op", "service/protocol.py", 4),
            ("rpc.unused-op", "service/datanode.py", 3)]    # put


class TestAsyncSurface:
    def test_async_op_handlers_register(self, tmp_path):
        write(tmp_path, "service/namenode.py", """\
            class NameNodeServer:
                async def _op_locations(self, data, peer):
                    return {}
        """)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
        """)
        report = lint(tmp_path)
        assert report.ok(), report.format_text()

    def test_async_client_call_sites_count(self, tmp_path):
        # AsyncRpcClient.call("kind", ...) and RpcPool.call(address,
        # "kind", ...) both count against either registry
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/datanode.py", """\
            class DataNodeServer:
                async def beat(self, client, pool, address):
                    await client.call("locations", {})
                    await pool.call(address, "stat", {})
        """)
        report = lint(tmp_path)
        assert report.ok(), report.format_text()

    def test_async_client_unknown_op(self, tmp_path):
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/datanode.py", """\
            class DataNodeServer:
                async def beat(self, client):
                    await client.call("locations", {})
                    await client.call("stat", {})
                    await client.call("nowhere", {})
        """)
        report = lint(tmp_path)
        assert ("rpc.unknown-op", "service/datanode.py", 5) \
            in actives(report)

    def test_dn_call_sync_counts_as_datanode_call(self, tmp_path):
        write(tmp_path, "service/datanode.py", DATANODE)
        write(tmp_path, "service/cluster.py", """\
            class ServiceCluster:
                def arm(self):
                    self.namenode.dn_call_sync(0, "put", {})
                    self.namenode.dn_call_sync(0, "get", {})
                    self.namenode.dn_call_sync(0, "delete", {})
        """)
        report = lint(tmp_path)
        assert report.ok(), report.format_text()


class TestFramingOps:
    NET = """\
        class AsyncRpcServer:
            async def _serve_rpc(self, conn, kind):
                if kind == "bye":
                    return
    """

    def test_framing_kind_validates_against_either_server(self, tmp_path):
        write(tmp_path, "repro/net.py", self.NET)
        write(tmp_path, "service/datanode.py", DATANODE + """\

    def goodbye(sock):
        call(sock, "bye", None)
        call(sock, "put", {})
        call(sock, "get", {})
        call(sock, "delete", {})
""")
        report = lint(tmp_path)
        assert report.ok(), report.format_text()

    def test_unsent_framing_kind_is_dead_surface(self, tmp_path):
        write(tmp_path, "repro/net.py", self.NET)
        write(tmp_path, "service/datanode.py", DATANODE + """\

    def use(sock):
        call(sock, "put", {})
        call(sock, "get", {})
        call(sock, "delete", {})
""")
        report = lint(tmp_path)
        assert actives(report) == [("rpc.unused-op", "repro/net.py", 3)]


class TestContextCallSites:
    def test_op_called_only_from_tests_counts_as_used(self, tmp_path):
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
        """)
        test_file = write(tmp_path, "tests/test_service.py", """\
            def test_stat(client):
                assert client._nn_call("stat", {}) == {}
        """)
        assert not lint(tmp_path).ok()
        report = lint(tmp_path, context_paths=[test_file])
        assert report.ok(), report.format_text()

    def test_context_files_never_produce_findings(self, tmp_path):
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
                    self._nn_call("stat", {})
        """)
        test_file = write(tmp_path, "tests/test_service.py", """\
            def test_typo(client):
                client._nn_call("no-such-op", {})
        """)
        report = lint(tmp_path, context_paths=[test_file])
        assert report.ok(), report.format_text()


class TestWorkerFrames:
    def test_symmetric_frame_kinds_are_clean(self, tmp_path):
        write(tmp_path, "experiments/distributed.py", """\
            def coordinator(conn, kind, send_frame):
                if kind == "hello":
                    send_frame(conn, ("welcome", None))
                elif kind == "result":
                    pass

            def worker(sock, kind, unit, send_frame):
                if kind == "welcome":
                    send_frame(sock, ("hello", None))
                reply = ("result", unit)
                send_frame(sock, reply)
        """)
        report = lint(tmp_path)
        assert report.ok(), report.format_text()

    def test_sent_but_unhandled_frame_kind(self, tmp_path):
        write(tmp_path, "experiments/distributed.py", """\
            def coordinator(conn, kind, send_frame):
                if kind == "hello":
                    send_frame(conn, ("welcome", None))
                    send_frame(conn, ("surprise", None))

            def worker(sock, kind, send_frame):
                if kind == "welcome":
                    send_frame(sock, ("hello", None))
        """)
        report = lint(tmp_path)
        assert actives(report) == [
            ("rpc.unknown-op", "experiments/distributed.py", 4)]

    def test_conn_send_frames_are_collected(self, tmp_path):
        # the async coordinator sends via conn.send((kind, data))
        write(tmp_path, "experiments/distributed.py", """\
            async def coordinator(conn, kind):
                if kind == "hello":
                    await conn.send(("welcome", None))

            def worker(sock, kind, send_frame):
                if kind == "welcome":
                    send_frame(sock, ("hello", None))
        """)
        report = lint(tmp_path)
        assert report.ok(), report.format_text()

    def test_handled_but_never_sent_frame_kind(self, tmp_path):
        write(tmp_path, "experiments/distributed.py", """\
            def coordinator(conn, kind, send_frame):
                if kind == "hello":
                    send_frame(conn, ("welcome", None))
                elif kind == "ghost":
                    pass

            def worker(sock, kind, send_frame):
                if kind == "welcome":
                    send_frame(sock, ("hello", None))
        """)
        report = lint(tmp_path)
        assert actives(report) == [
            ("rpc.unused-op", "experiments/distributed.py", 4)]


class TestProtocolConstants:
    def test_protocol_constant_without_dispatch_arm(self, tmp_path):
        write(tmp_path, "service/protocol.py", 'OP_FROB = "frob"\n')
        write(tmp_path, "service/namenode.py", NAMENODE)
        write(tmp_path, "service/client.py", """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
                    self._nn_call("stat", {})
        """)
        report = lint(tmp_path)
        assert actives(report) == [
            ("rpc.unknown-op", "service/protocol.py", 1)]

    def test_waiver_on_handler(self, tmp_path):
        write(tmp_path, "service/namenode.py", """\
            class NameNodeServer:
                # lint: allow(rpc.unused-op): operator surface
                def _op_shutdown(self, data, peer):
                    return {}
        """)
        report = lint(tmp_path)
        assert report.ok()
        assert [f.rule for f in report.waived] == ["rpc.unused-op"]
