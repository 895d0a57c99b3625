"""Lock-discipline checker: blocking-under-lock and lock-order
inversions are caught in fixture daemons; the condition-wait pattern
and lock-free blocking stay clean."""

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
                    self._meta = threading.RLock()

                def bad(self, sock, payload):
                    with self._meta:
                        sock.sendall(payload)
        """)
        assert rules(report) == [("locks.blocking-call", 9)]

    def test_rpc_helper_under_stripe_lock(self, tmp_path):
        report = lint_source(tmp_path, """\
            class NameNode:
                def repair(self, key):
                    with self._stripe_lock(key):
                        return self._dn_call(0, "combine", {})
        """)
        assert rules(report) == [("locks.blocking-call", 4)]

    def test_nested_function_body_runs_under_the_lock(self, tmp_path):
        # the fetch-closure pattern: defined and called inside `with`
        report = lint_source(tmp_path, """\
            class NameNode:
                def repair(self, key, plan):
                    with self._stripe_lock(key):
                        def fetch(transfer):
                            return self._dn_call(1, "combine", {})
                        return plan(fetch)
        """)
        assert rules(report) == [("locks.blocking-call", 5)]

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

    def test_condition_wait_on_held_condition_is_exempt(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Coordinator:
                def __init__(self):
                    self._state = threading.Condition()

                def claim(self):
                    with self._state:
                        while True:
                            self._state.wait(0.1)
        """)
        assert report.ok()

    def test_wait_on_other_object_under_lock_is_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._meta = threading.RLock()

                def bad(self, proc):
                    with self._meta:
                        proc.wait()
        """)
        assert rules(report) == [("locks.blocking-call", 9)]

    def test_string_join_is_not_a_thread_join(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._meta = threading.RLock()

                def render(self, parts):
                    with self._meta:
                        return ", ".join(parts)
        """)
        assert report.ok()


class TestLockOrdering:
    INVERTED = """\
        import threading

        class Daemon:
            def __init__(self):
                self._meta = threading.RLock()
                self._store_lock = threading.Lock()

            def forward(self):
                with self._meta:
                    with self._store_lock:
                        return 1

            def backward(self):
                with self._store_lock:
                    with self._meta:
                        return 2
    """

    def test_inverted_pair_flagged_at_both_sites(self, tmp_path):
        report = lint_source(tmp_path, self.INVERTED)
        found = rules(report)
        assert found == [("locks.lock-order", 10),
                         ("locks.lock-order", 15)]

    def test_consistent_order_is_fine(self, tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._meta = threading.RLock()
                    self._store_lock = threading.Lock()

                def one(self):
                    with self._meta:
                        with self._store_lock:
                            return 1

                def two(self):
                    with self._meta:
                        with self._store_lock:
                            return 2
        """)
        assert report.ok()

    def test_inversion_through_helper_call(self, tmp_path):
        # one level of propagation: helper() acquires _meta, and is
        # called under _store_lock while someone else nests the
        # opposite way
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._meta = threading.RLock()
                    self._store_lock = threading.Lock()

                def helper(self):
                    with self._meta:
                        return 1

                def backward(self):
                    with self._store_lock:
                        return self.helper()

                def forward(self):
                    with self._meta:
                        with self._store_lock:
                            return 2
        """)
        assert [rule for rule, _ in rules(report)] == [
            "locks.lock-order", "locks.lock-order"]


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
                    self._meta = threading.RLock()

                async def bad(self):
                    with self._meta:
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


class TestInterprocedural:
    def test_two_hop_lock_cycle(self, tmp_path):
        # neither function nests the locks directly: outer_a holds
        # _meta and reaches _store_lock through mid(); outer_b nests
        # the opposite way.  Only the transitive closure sees it.
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._meta = threading.RLock()
                    self._store_lock = threading.Lock()

                def outer_a(self):
                    with self._meta:
                        return self.mid()

                def mid(self):
                    return self.leaf()

                def leaf(self):
                    with self._store_lock:
                        return 1

                def outer_b(self):
                    with self._store_lock:
                        with self._meta:
                            return 2
        """)
        found = rules(report)
        assert [rule for rule, _ in found] == [
            "locks.lock-order", "locks.lock-order"]
        # the call-edge finding names the chain through mid()
        messages = [f.message for f in report.active]
        assert any("mid" in message for message in messages)

    def test_propagated_blocking_through_helpers(self, tmp_path):
        # send() blocks two calls away; direct per-file rules cannot
        # see it, the closure can
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._meta = threading.RLock()

                def bad(self, payload):
                    with self._meta:
                        self.notify(payload)

                def notify(self, payload):
                    self.push(payload)

                def push(self, payload):
                    self.sock.sendall(payload)
        """)
        found = rules(report)
        assert ("locks.blocking-call", 9) in found
        messages = [f.message for f in report.active]
        assert any("notify" in message for message in messages)

    def test_propagation_stops_at_async_callees(self, tmp_path):
        # a sync caller never runs an async def's body by calling it;
        # building the coroutine does not block
        report = lint_source(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self._meta = threading.RLock()

                def ok(self, payload):
                    with self._meta:
                        return self.emit(payload)

                async def emit(self, payload):
                    self.sock.sendall(payload)
        """)
        blocked = [r for r, _ in rules(report)
                   if r == "locks.blocking-call"]
        assert blocked == []

    def test_condition_wait_exemption_survives_propagation(self,
                                                           tmp_path):
        report = lint_source(tmp_path, """\
            import threading

            class Coordinator:
                def __init__(self):
                    self._state = threading.Condition()

                def outer(self):
                    with self._state:
                        return self.park()

                def park(self):
                    self._state.wait(0.1)
        """)
        assert report.ok()
