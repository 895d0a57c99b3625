"""Lock and loop discipline: blocking under a threading lock, blocking
on the loop and awaiting under a threading lock are caught in fixture
daemons; blocking outside a lock and awaited calls stay clean."""

from __future__ import annotations

import pathlib
import textwrap

from repro.analysis import locks, run_lint

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def lint_source(tmp_path, source, rel="service/daemon.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint(root=tmp_path, paths=[tmp_path], checkers=["locks"],
                    context_paths=[])


def rules(report):
    return [(f.rule, f.line) for f in report.active]


class TestBlockingCalls:
    def test_sleep_under_lock(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time
            import threading

            class Daemon:
                def __init__(self):
                    self._store_lock = threading.Lock()

                def bad(self):
                    with self._store_lock:
                        time.sleep(1.0)
        """)
        assert rules(report) == [("locks.blocking-call", 10)]

    def test_socket_io_under_lock(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._close_lock = threading.Lock()

                def bad(self, sock, payload):
                    with self._close_lock:
                        sock.sendall(payload)
        """)
        assert rules(report) == [("locks.blocking-call", 9)]

    def test_rpc_helper_under_lock(self, tmp_path):
        report = lint_source(tmp_path, """\
            class NameNode:
                def repair(self, key):
                    with self._close_lock:
                        return self._dn_call(0, "combine", {})
        """)
        assert rules(report) == [("locks.blocking-call", 4)]

    def test_blocking_outside_lock_is_fine(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time
            import threading

            class Daemon:
                def __init__(self):
                    self._store_lock = threading.Lock()

                def good(self, sock, payload):
                    with self._store_lock:
                        count = len(payload)
                    time.sleep(0.1)
                    sock.sendall(payload)
                    return count
        """)
        assert report.ok()

    def test_wait_on_other_object_under_lock_is_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._close_lock = threading.Lock()

                def bad(self, proc):
                    with self._close_lock:
                        proc.wait()
        """)
        assert rules(report) == [("locks.blocking-call", 9)]

    def test_string_join_is_not_a_thread_join(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._close_lock = threading.Lock()

                def render(self, parts):
                    with self._close_lock:
                        return ", ".join(parts)
        """)
        assert report.ok()

    def test_loop_bridge_under_lock(self, tmp_path):
        report = lint_source(tmp_path, """\
            class Harness:
                def status(self):
                    with self._close_lock:
                        return self.server.on_loop(self._op_status, {}, None)
        """)
        assert rules(report) == [("locks.blocking-call", 4)]

    def test_subprocess_run_under_lock(self, tmp_path):
        report = lint_source(tmp_path, """\
            import subprocess

            class Daemon:
                def bad(self):
                    with self._close_lock:
                        subprocess.run(["true"])
        """)
        assert rules(report) == [("locks.blocking-call", 6)]

    def test_module_level_lock(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading
            import time

            _REGISTRY_LOCK = threading.Lock()

            def bad():
                with _REGISTRY_LOCK:
                    time.sleep(0.1)
        """)
        assert rules(report) == [("locks.blocking-call", 8)]

    def test_with_expression_runs_before_the_lock(self, tmp_path):
        # the lock is taken after its with-expression has returned
        report = lint_source(tmp_path, """\
            class Daemon:
                def good(self, sock):
                    with self._lock_for(sock.recv(4)):
                        return 1
        """)
        assert report.ok()


class TestAsyncRules:
    def test_time_sleep_in_async_def(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            class Daemon:
                async def bad(self):
                    time.sleep(1.0)
        """)
        assert rules(report) == [("locks.async-blocking", 5)]

    def test_socket_io_in_async_def(self, tmp_path):
        report = lint_source(tmp_path, """\
            class Daemon:
                async def bad(self, sock, payload):
                    sock.sendall(payload)
        """)
        assert rules(report) == [("locks.async-blocking", 3)]

    def test_sync_send_frame_in_async_def(self, tmp_path):
        report = lint_source(tmp_path, """\
            from repro.net import send_frame

            class Daemon:
                async def bad(self, sock):
                    send_frame(sock, ("ping", None))
        """)
        assert rules(report) == [("locks.async-blocking", 5)]

    def test_awaited_calls_are_exempt(self, tmp_path):
        # await yields to the loop; arguments construct coroutines
        report = lint_source(tmp_path, """\
            import asyncio

            class Daemon:
                async def good(self, conn):
                    await asyncio.sleep(1.0)
                    kind, data = await asyncio.wait_for(conn.recv(), 5.0)
                    await conn.send((kind, data))
        """)
        assert report.ok()

    def test_await_under_sync_lock(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._close_lock = threading.Lock()

                async def bad(self):
                    with self._close_lock:
                        await self.flush()
        """)
        assert rules(report) == [("locks.sync-lock-await", 9)]

    def test_await_under_async_lock_is_fine(self, tmp_path):
        report = lint_source(tmp_path, """\
            import asyncio

            class Daemon:
                def __init__(self):
                    self._turn_lock = asyncio.Lock()

                async def good(self, conn, reply):
                    async with self._turn_lock:
                        await conn.send(reply)
        """)
        assert report.ok()

    def test_blocking_under_async_lock_stalls_the_loop(self, tmp_path):
        # not a locks.blocking-call (no thread waits on an asyncio
        # lock) but still parks the whole loop
        report = lint_source(tmp_path, """\
            import asyncio
            import time

            class Daemon:
                def __init__(self):
                    self._send_lock = asyncio.Lock()

                async def bad(self):
                    async with self._send_lock:
                        time.sleep(0.5)
        """)
        assert rules(report) == [("locks.async-blocking", 10)]

    def test_nested_sync_def_is_not_async_context(self, tmp_path):
        report = lint_source(tmp_path, """\
            class Daemon:
                async def outer(self, sock):
                    def emit(payload):
                        sock.sendall(payload)
                    return emit
        """)
        assert report.ok()

    def test_loop_bridge_in_async_def(self, tmp_path):
        # a coroutine that bridges onto its own loop waits on itself
        report = lint_source(tmp_path, """\
            class Daemon:
                async def bad(self):
                    return self.server.run_coroutine(self.flush())
        """)
        assert rules(report) == [("locks.async-blocking", 3)]

    def test_unawaited_asyncio_sleep_is_not_a_block(self, tmp_path):
        report = lint_source(tmp_path, """\
            import asyncio

            class Daemon:
                async def good(self):
                    nap = asyncio.sleep(0.1)
                    await nap
        """)
        assert report.ok()

    def test_nested_async_def_is_async_context(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            class Daemon:
                def start(self):
                    async def tick():
                        time.sleep(0.1)
                    return tick
        """)
        assert rules(report) == [("locks.async-blocking", 6)]


class TestScope:
    BLOCKING = """\
        import time
        import threading

        class Daemon:
            def __init__(self):
                self._store_lock = threading.Lock()

            def bad(self):
                with self._store_lock:
                    time.sleep(1.0)
    """

    def test_net_module_is_in_scope(self, tmp_path):
        report = lint_source(tmp_path, self.BLOCKING,
                             rel="repro/net.py")
        assert not report.ok()

    def test_every_scope_file_exists(self):
        """A scope entry naming a deleted module checks nothing, silently."""
        for name in locks.SCOPE_FILES:
            assert (SRC_DIR / name).is_file(), name

    def test_other_trees_are_out_of_scope(self, tmp_path):
        report = lint_source(tmp_path, self.BLOCKING,
                             rel="experiments/engine.py")
        assert report.ok()

    def test_waiver(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time
            import threading

            class Daemon:
                def __init__(self):
                    self._store_lock = threading.Lock()

                def bad(self):
                    with self._store_lock:
                        time.sleep(1.0)  # lint: allow(locks.blocking-call): fixture
        """)
        assert report.ok()
        assert len(report.waived) == 1
