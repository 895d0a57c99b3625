"""The interprocedural core: symbol resolution across modules and
re-exports, method lookup through bases, the transitive lock closure,
and payload-key propagation through forwarded dicts."""

from __future__ import annotations

import textwrap

from repro.analysis.core import Project
from repro.analysis.callgraph import (CallGraph, get_callgraph,
                                      lock_token, module_name,
                                      qualify_token)


def build(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    project = Project(tmp_path, [tmp_path], context_paths=())
    return CallGraph(project)


class TestNaming:
    def test_module_name_strips_src_prefix(self):
        assert module_name("src/repro/net.py") == "repro.net"
        assert module_name("repro/core/__init__.py") == "repro.core"
        assert module_name("benchmarks/run.py") == "benchmarks.run"

    def test_qualify_token(self):
        assert qualify_token("self._meta", "NameNode") == "NameNode._meta"
        assert qualify_token("self._meta", None) == "self._meta"
        assert qualify_token("GLOBAL_LOCK", "NameNode") == "GLOBAL_LOCK"


class TestResolution:
    def test_direct_module_import(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": """\
                def helper():
                    return 1
            """,
            "pkg/main.py": """\
                from pkg import util

                def run():
                    return util.helper()
            """,
        })
        fn = graph.functions["pkg.main.run"]
        (call,) = fn.calls
        assert call.callee == "pkg.util.helper"

    def test_relative_import_from_package_init(self, tmp_path):
        # `from .util import helper` inside pkg/__init__.py must
        # resolve against pkg itself, not pkg's parent.
        graph = build(tmp_path, {
            "pkg/__init__.py": """\
                from .util import helper
            """,
            "pkg/util.py": """\
                def helper():
                    return 1
            """,
            "pkg/main.py": """\
                import pkg

                def run():
                    return pkg.helper()
            """,
        })
        (call,) = graph.functions["pkg.main.run"].calls
        assert call.callee == "pkg.util.helper"

    def test_reexport_chase(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "from .middle import helper\n",
            "pkg/middle.py": "from .impl import helper\n",
            "pkg/impl.py": """\
                def helper():
                    return 1
            """,
            "pkg/main.py": """\
                from pkg import helper

                def run():
                    return helper()
            """,
        })
        (call,) = graph.functions["pkg.main.run"].calls
        assert call.callee == "pkg.impl.helper"

    def test_method_through_base_class(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": """\
                class Base:
                    def shared(self):
                        return 1
            """,
            "pkg/sub.py": """\
                from .base import Base

                class Sub(Base):
                    def run(self):
                        return self.shared()
            """,
        })
        (call,) = graph.functions["pkg.sub.Sub.run"].calls
        assert call.callee == "pkg.base.Base.shared"


class TestClosures:
    LOCKED = {
        "pkg/__init__.py": "",
        "pkg/daemon.py": """\
            import threading

            class Daemon:
                def __init__(self):
                    self._meta = threading.Lock()
                    self._io_lock = threading.Lock()

                def outer(self):
                    with self._meta:
                        return self.inner()

                def inner(self):
                    with self._io_lock:
                        return 1
        """,
    }

    def test_transitive_locks(self, tmp_path):
        graph = build(tmp_path, self.LOCKED)
        closure = graph.transitive_locks()
        assert closure["pkg.daemon.Daemon.outer"] == frozenset(
            {"Daemon._meta", "Daemon._io_lock"})
        assert closure["pkg.daemon.Daemon.inner"] == frozenset(
            {"Daemon._io_lock"})

    def test_acquire_chain(self, tmp_path):
        graph = build(tmp_path, self.LOCKED)
        chain = graph.acquire_chain("pkg.daemon.Daemon.outer",
                                    "Daemon._io_lock")
        assert chain == ["pkg.daemon.Daemon.outer",
                         "pkg.daemon.Daemon.inner"]

    def test_lock_token_shapes(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/locks.py": """\
                import threading

                GLOBAL_LOCK = threading.Lock()

                class D:
                    def with_global(self):
                        with GLOBAL_LOCK:
                            return 1

                    def with_call(self, key):
                        with self._stripe_lock(key):
                            return 2
            """,
        })
        fns = graph.functions
        assert [a.token for a in
                fns["pkg.locks.D.with_global"].acquisitions] == ["GLOBAL_LOCK"]
        assert [a.token for a in
                fns["pkg.locks.D.with_call"].acquisitions] == [
                    "D._stripe_lock()"]


class TestPayloadKeys:
    def test_forwarded_payload_merges_reads(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/ops.py": """\
                def handle(data):
                    name = data["name"]
                    return detail(data)

                def detail(payload):
                    return payload.get("verbose")
            """,
        })
        keys = graph.payload_keys("pkg.ops.handle", "data")
        assert keys["name"][0] is True           # required
        assert keys["verbose"][0] is False       # optional, via detail()

    def test_recursive_forwarding_terminates(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/loop.py": """\
                def a(data):
                    data["x"]
                    return b(data)

                def b(data):
                    data["y"]
                    return a(data)
            """,
        })
        keys = graph.payload_keys("pkg.loop.a", "data")
        assert set(keys) == {"x", "y"}


class TestCaching:
    def test_get_callgraph_memoizes_on_project(self, tmp_path):
        for rel, src in TestClosures.LOCKED.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(src))
        project = Project(tmp_path, [tmp_path], context_paths=())
        assert get_callgraph(project) is get_callgraph(project)
