"""Wire-surface checker: handlers, call sites and reply reads are held
to the literal op tables the fixture trees declare (``NAMENODE_OPS`` /
``DATANODE_OPS`` / ``FRAMING_OPS``), and the rendered artifact is
drift-gated.  Fixture trees are parsed, never imported."""

from __future__ import annotations

import json
import textwrap

from repro.analysis import (derive_wire_schema, render_wire_schema,
                            run_lint)
from repro.analysis.core import Project

PROTOCOL = """\
    NAMENODE_OPS = {
        "locations": ((), (), ()),
        "stat": (("name",), ("verbose",), ("size", "stripes")),
    }
    DATANODE_OPS = {
        "put": ((), (), ("ok",)),
        "get": ((), (), ("ok",)),
        "delete": ((), (), ("ok",)),
    }
"""

NAMENODE = """\
    class NameNodeServer:
        def _op_locations(self, data, peer):
            return {}

        def _op_stat(self, data, peer):
            name = data["name"]
            verbose = data.get("verbose", False)
            return {"size": 7, "stripes": 3}
"""

DATANODE = """\
    class DataNodeServer:
        def _op_put(self, data, peer):
            return {"ok": True}

        def _op_get(self, data, peer):
            return {"ok": True}

        def _op_delete(self, data, peer):
            return {"ok": True}
"""

#: a client that sends every op of the fixture tables once
CLIENT = """\
    class StorageClient:
        def use(self, name):
            self._nn_call("locations", {})
            self._nn_call("stat", {"name": name})
            self._dn_call(0, "put", {})
            self._dn_call(0, "get", {})
            self._dn_call(0, "delete", {})
"""

SERVICE = {"service/protocol.py": PROTOCOL,
           "service/namenode.py": NAMENODE,
           "service/datanode.py": DATANODE}

def write(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def lint(tmp_path, files, context=()):
    """Lint the fixture's source trees; ``context`` names fixture files
    (a ``tests/`` tree) that are visible but never produce findings."""
    write(tmp_path, files)
    scan = [p for p in (tmp_path / "service", tmp_path / "repro")
            if p.is_dir()]
    return run_lint(root=tmp_path, paths=scan, checkers=["schema"],
                    context_paths=[tmp_path / rel for rel in context])


def actives(report):
    return sorted((f.rule, f.path, f.line) for f in report.active)


class TestOpTables:
    def test_matched_surface_is_clean(self, tmp_path):
        report = lint(tmp_path, {**SERVICE, "service/client.py": CLIENT})
        assert report.ok(), report.format_text()

    def test_unknown_namenode_op_flagged_at_call_site(self, tmp_path):
        report = lint(tmp_path, {**SERVICE, "service/client.py": CLIENT + """\
            self._nn_call("locatoins", {})
"""})
        assert actives(report) == [
            ("schema.unknown-op", "service/client.py", 8)]

    def test_unknown_datanode_op(self, tmp_path):
        report = lint(tmp_path, {**SERVICE, "service/client.py": CLIENT + """\
            self._dn_call(0, "putt", {})
"""})
        assert actives(report) == [
            ("schema.unknown-op", "service/client.py", 8)]

    def test_unused_op_flagged_at_handler(self, tmp_path):
        report = lint(tmp_path, {**SERVICE, "service/client.py": """\
            class StorageClient:
                def use(self):
                    self._nn_call("locations", {})
                    self._dn_call(0, "put", {})
                    self._dn_call(0, "get", {})
                    self._dn_call(0, "delete", {})
        """})
        assert actives(report) == [
            ("schema.unused-op", "service/namenode.py", 5)]

    def test_hyphenated_op_names_round_trip(self, tmp_path):
        report = lint(tmp_path, {
            "service/protocol.py": """\
                NAMENODE_OPS = {"begin-write": ((), (), ())}
            """,
            "service/namenode.py": """\
                class NameNodeServer:
                    def _op_begin_write(self, data, peer):
                        return {}
            """,
            "service/client.py": """\
                class StorageClient:
                    def use(self):
                        self._nn_call("begin-write", {})
                        self._nn_call("begin_write", {})
            """})
        # the underscore spelling names the method, not the op
        assert actives(report) == [
            ("schema.unknown-op", "service/client.py", 4)]

    def test_bare_call_helper_checks_against_both_servers(self, tmp_path):
        report = lint(tmp_path, {**SERVICE, "service/client.py": CLIENT + """\

    def heartbeat(sock):
        call(sock, "stat", {"name": "f"})
        call(sock, "get", {})
        call(sock, "nowhere", {})
"""})
        assert actives(report) == [
            ("schema.unknown-op", "service/client.py", 12)]

    def test_protocol_request_builders_count_as_senders(self, tmp_path):
        """``transfer_request`` returns the frame its callers send."""
        report = lint(tmp_path, {
            **SERVICE,
            "service/protocol.py": PROTOCOL + """\

    def transfer_request(name, stripe, transfer):
        if transfer.plain:
            return ("get", {})
        return ("combyne", {"parts": []})

    def unrelated():
        return ("put", None)
""",
            "service/client.py": """\
                class StorageClient:
                    def use(self, name):
                        self._nn_call("locations", {})
                        self._nn_call("stat", {"name": name})
                        self._dn_call(0, "delete", {})
            """})
        assert actives(report) == [
            ("schema.unknown-op", "service/protocol.py", 14),
            ("schema.unused-op", "service/datanode.py", 2)]     # put

    def test_async_handlers_and_async_call_sites(self, tmp_path):
        # AsyncRpcClient.call("kind", ...) and RpcPool.call(address,
        # "kind", ...) count against either table
        report = lint(tmp_path, {
            "service/protocol.py": PROTOCOL,
            "service/namenode.py": NAMENODE.replace(
                "def _op_locations", "async def _op_locations"),
            "service/datanode.py": DATANODE + """\

        async def beat(self, client, pool, address):
            await client.call("locations", {})
            await pool.call(address, "stat", {"name": "f"})
            await client.call("put", {})
            await pool.call(address, "get", {})
            await pool.call(address, "delete", {})
            await client.call("nowhere", {})
"""})
        assert actives(report) == [
            ("schema.unknown-op", "service/datanode.py", 17)]

    def test_dn_call_sync_counts_as_datanode_call(self, tmp_path):
        report = lint(tmp_path, {
            "service/protocol.py": PROTOCOL,
            "service/datanode.py": DATANODE,
            "service/cluster.py": """\
                class ServiceCluster:
                    def arm(self):
                        self.namenode.dn_call_sync(0, "put", {})
                        self.namenode.dn_call_sync(0, "get", {})
                        self.namenode.dn_call_sync(0, "delete", {})
                        self.namenode.dn_call_sync(0, "stat", {})
            """})
        # "stat" is a namenode op: not valid against a datanode
        assert [f for f in actives(report) if f[0] != "schema.unused-op"] \
            == [("schema.unknown-op", "service/cluster.py", 6)]

    def test_waiver_on_handler(self, tmp_path):
        report = lint(tmp_path, {
            "service/protocol.py": """\
                NAMENODE_OPS = {"shutdown": ((), (), ())}
            """,
            "service/namenode.py": """\
                class NameNodeServer:
                    # lint: allow(schema.unused-op): operator surface
                    def _op_shutdown(self, data, peer):
                        return {}
            """})
        assert report.ok()
        assert [f.rule for f in report.waived] == ["schema.unused-op"]


class TestDeclarationAgainstHandlers:
    """The four disagreements only a declaration can have."""

    def test_handler_reads_undeclared_key(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "service/client.py": CLIENT,
            "service/namenode.py": NAMENODE.replace(
                'data.get("verbose", False)', 'data.get("verbos")')})
        assert actives(report) == [
            ("schema.declaration", "service/namenode.py", 7)]

    def test_handler_subscripts_an_optional_key(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "service/client.py": CLIENT,
            "service/namenode.py": NAMENODE.replace(
                'data.get("verbose", False)', 'data["verbose"]')})
        assert actives(report) == [
            ("schema.declaration", "service/namenode.py", 7)]

    def test_required_key_never_read(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "service/client.py": CLIENT,
            "service/namenode.py": NAMENODE.replace(
                'name = data["name"]', "name = None")})
        assert actives(report) == [
            ("schema.declaration", "service/namenode.py", 5)]

    def test_reads_through_a_helper_the_payload_is_forwarded_to(
            self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "service/client.py": CLIENT,
            "service/namenode.py": """\
                class NameNodeServer:
                    def _op_locations(self, data, peer):
                        return {}

                    def _op_stat(self, data, peer):
                        return self._stat(data)

                    def _stat(self, request):
                        return {"size": len(request["name"]),
                                "stripes": request["depth"]}
            """})
        assert actives(report) == [
            ("schema.declaration", "service/namenode.py", 6)]   # depth

    def test_declared_op_without_handler(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "service/client.py": CLIENT,
            "service/datanode.py": DATANODE.replace("_op_get", "_get")})
        assert actives(report) == [
            ("schema.declaration", "service/protocol.py", 7)]

    def test_handler_without_declaration(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "service/client.py": CLIENT,
            "service/datanode.py": DATANODE + """\

        def _op_frob(self, data, peer):
            return {}
"""})
        assert actives(report) == [
            ("schema.declaration", "service/datanode.py", 11)]

    def test_table_must_be_a_pure_literal(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE,
            "service/protocol.py": PROTOCOL.replace(
                "NAMENODE_OPS = {", "NAMENODE_OPS = {**BASE_OPS,")})
        assert ("schema.declaration", "service/protocol.py", 1) \
            in actives(report)


class TestFramingOps:
    NET = 'FRAMING_OPS = ("bye",)\n'

    def test_framing_kind_validates_against_either_server(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "repro/net.py": self.NET,
            "service/client.py": CLIENT + """\

    def goodbye(sock):
        call(sock, "bye", None)
"""})
        assert report.ok(), report.format_text()

    def test_unsent_framing_kind_is_dead_surface(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "repro/net.py": self.NET,
            "service/client.py": CLIENT})
        assert actives(report) == [("schema.unused-op", "repro/net.py", 1)]


class TestContextCallSites:
    CLIENT_WITHOUT_STAT = CLIENT.replace(
        '            self._nn_call("stat", {"name": name})\n', "")

    def test_op_called_only_from_tests_counts_as_used(self, tmp_path):
        files = {**SERVICE, "service/client.py": self.CLIENT_WITHOUT_STAT,
                 "tests/test_service.py": """\
                     def test_stat(client):
                         assert client._nn_call("stat", {"name": "f"})
                 """}
        assert actives(lint(tmp_path, files)) == [
            ("schema.unused-op", "service/namenode.py", 5)]
        report = lint(tmp_path, files, context=["tests/test_service.py"])
        assert report.ok(), report.format_text()

    def test_context_files_never_produce_findings(self, tmp_path):
        report = lint(tmp_path, {
            **SERVICE, "service/client.py": CLIENT,
            "tests/test_service.py": """\
                def test_typo(client):
                    client._nn_call("no-such-op", {})
                    client._nn_call("stat", {"nam": "f"})
            """}, context=["tests/test_service.py"])
        assert report.ok(), report.format_text()


class TestCallSitePayloads:
    def test_mismatched_payload_key_caught(self, tmp_path):
        report = lint(tmp_path, {**SERVICE, "service/client.py": CLIENT + """\
            self._nn_call("stat", {"nam": name})
"""})
        assert actives(report) == [
            ("schema.missing-key", "service/client.py", 8),
            ("schema.unknown-key", "service/client.py", 8)]

    def test_optional_key_is_accepted(self, tmp_path):
        report = lint(tmp_path, {**SERVICE, "service/client.py": CLIENT + """\
            self._nn_call("stat", {"name": name, "verbose": True})
"""})
        assert report.ok(), report.format_text()

    def test_unknown_reply_key(self, tmp_path):
        report = lint(tmp_path, {**SERVICE, "service/client.py": CLIENT + """\
            reply = self._nn_call("stat", {"name": name})
            return reply["sise"] + reply["size"]
"""})
        assert actives(report) == [
            ("schema.unknown-reply-key", "service/client.py", 9)]


class TestArtifact:
    FILES = {**SERVICE, "service/client.py": CLIENT}

    def project(self, tmp_path):
        return Project(tmp_path, [tmp_path], context_paths=())

    def test_artifact_renders_the_tables(self, tmp_path):
        write(tmp_path, self.FILES)
        schema = derive_wire_schema(self.project(tmp_path))
        stat = schema["services"]["namenode"]["stat"]
        assert stat["request"] == {"required": ["name"],
                                   "optional": ["verbose"]}
        assert stat["response"] == {
            "kind": "dict", "keys": ["size", "stripes"],
            "required": ["size", "stripes"], "complete": True}
        assert sorted(schema["services"]["datanode"]) == [
            "delete", "get", "put"]

    def test_render_is_stable(self, tmp_path):
        write(tmp_path, self.FILES)
        text = render_wire_schema(
            derive_wire_schema(self.project(tmp_path)))
        assert text.endswith("\n")
        assert json.loads(text)["version"] == 1
        assert render_wire_schema(
            derive_wire_schema(self.project(tmp_path))) == text

    def test_missing_artifact_flagged_when_docs_exist(self, tmp_path):
        (tmp_path / "docs").mkdir()
        report = lint(tmp_path, self.FILES)
        assert [(f.rule, f.path) for f in report.active] == [
            ("schema.artifact-missing", "docs/wire_schema.json")]

    def test_no_docs_dir_no_artifact_gate(self, tmp_path):
        assert actives(lint(tmp_path, self.FILES)) == []

    def test_partial_scan_skips_the_gate(self, tmp_path):
        (tmp_path / "docs").mkdir()
        files = dict(self.FILES)
        del files["service/protocol.py"]     # op tables not in view
        assert actives(lint(tmp_path, files)) == []

    def test_fresh_artifact_clean_then_drifts(self, tmp_path):
        write(tmp_path, self.FILES)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs/wire_schema.json").write_text(
            render_wire_schema(derive_wire_schema(self.project(tmp_path))))
        assert actives(lint(tmp_path, self.FILES)) == []
        # declare one more optional key without regenerating: drift
        report = lint(tmp_path, {
            "service/protocol.py": PROTOCOL.replace(
                '("verbose",)', '("verbose", "depth")')})
        assert [(f.rule, f.path) for f in report.active] == [
            ("schema.artifact-drift", "docs/wire_schema.json")]
