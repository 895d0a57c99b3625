"""An in-process datanode for tests that talk to one over a socket.

A datanode serves on the thread that calls
:meth:`~repro.service.datanode.DataNodeServer.serve`; a test keeps its
own thread and serves the daemon from a second one.  Its state belongs
to its loop: a test reaches it through the declared ops, or through
:meth:`~repro.net.AsyncRpcServer.on_loop`.
"""

import contextlib
import threading


@contextlib.contextmanager
def serving(daemon):
    """Serve ``daemon`` on a thread of its own until the block exits."""
    thread = threading.Thread(target=daemon.serve,
                              name=f"datanode-{daemon.node_id}", daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "the datanode did not stop"
