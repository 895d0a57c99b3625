"""What each kind of process imports.

Every case runs a fresh interpreter and asserts on ``sys.modules``
after the import or call under test, never on a timing.  A datanode
daemon, the argument parser every ``python -m repro`` process builds,
and ``repro lint`` must not pay for scipy or the experiment stack;
the paper-suite pass pays for the experiment stack but, since every
chain it solves is small enough for the numpy elimination, not for
scipy.  A datanode is a byte store behind a
socket: it loads neither numpy nor the coding stack, not even after
serving ``put``, ``get`` and ``combine`` on the native backend.  The
sweep engine is serial or a local fork pool: importing the experiments
loads no event loop and no socket layer.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

#: What neither a daemon nor the parser may load.
EXPERIMENT_STACK = ("scipy", "repro.experiments", "repro.reliability",
                    "repro.mapreduce", "repro.scheduling",
                    "repro.workloads", "repro.analysis")


#: What a datanode may not load: the coding stack, numpy, and the
#: parts of the cluster and the service a block store does not run.
DATANODE_NEVER = ("numpy", "repro.core", "repro.cluster.filesystem",
                  "repro.cluster.namenode", "repro.cluster.placement",
                  "repro.service.client", "repro.service.namenode",
                  "repro.service.load")

#: The ``repro`` modules a datanode process (the CLI included) loads at
#: most: repro, cli, net, the service package with datanode, faults and
#: protocol, the cluster package with blocks and datanode, and the gf
#: package with native.  There were 39 before the lazy packages.
DATANODE_REPRO_MODULES = 12

#: A datanode serving the data path in process: a stub namenode that
#: accepts registration and heartbeats, then put, get and combine
#: (a general vector and an all-ones one) over a real socket.
SERVE_ON_NATIVE = r"""
import socket
import repro.cli
from repro.gf import native
from repro.net import AsyncRpcServer
from repro.service.datanode import DataNodeServer, call

assert native.active_backend() == "native", native.error()
stub = AsyncRpcServer(lambda kind, data, peer: {
    "node_id": 0, "block_bytes": 4096, "version": 1}, name="stub")
with DataNodeServer(0, stub.address, heartbeat_interval=0.05) as daemon, \
        socket.create_connection(daemon.address) as sock:
    for symbol in range(3):
        call(sock, "put", {"block": ("f", 0, symbol),
                           "data": bytes([symbol + 1]) * 4096})
    assert call(sock, "get", {"block": ("f", 0, 1)})["data"] == b"\x02" * 4096
    parts = [(("f", 0, symbol), 1) for symbol in range(3)]
    assert call(sock, "combine", {"parts": parts})["data"] == b"\x00" * 4096
    parts = [(("f", 0, 0), 2), (("f", 0, 2), 1)]
    assert call(sock, "combine", {"parts": parts})["data"] == b"\x01" * 4096
stub.close()
"""


def loaded_modules(code: str, **env_overrides: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    env = dict(os.environ, **env_overrides)
    parts = [str(SRC_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def under(modules: set[str], *packages: str) -> list[str]:
    """The members of ``modules`` that are, or live under, ``packages``."""
    return sorted(name for name in modules
                  if any(name == package or name.startswith(package + ".")
                         for package in packages))


def test_bare_package_loads_no_subpackage():
    assert under(loaded_modules("import repro"), "repro") == ["repro"]


@pytest.mark.parametrize("code", [
    "import repro.service.datanode",
    "import repro.cli\nrepro.cli.build_parser()",
], ids=["datanode", "build_parser"])
def test_daemon_and_parser_skip_the_experiment_stack(code):
    assert under(loaded_modules(code), *EXPERIMENT_STACK) == []


def test_datanode_loads_no_numpy_and_no_coding_stack():
    modules = loaded_modules("import repro.service.datanode")
    assert under(modules, *DATANODE_NEVER) == []


def test_a_serving_datanode_still_loads_no_numpy():
    """``put``, ``get`` and both kinds of ``combine`` on the native
    backend; only a host without the library imports numpy (lazily, in
    :func:`repro.gf.native.combine`)."""
    from repro.gf import native
    if native.load() is None:
        pytest.skip(f"native GF kernels unavailable: {native.error()}")
    modules = loaded_modules(SERVE_ON_NATIVE, REPRO_GF_BACKEND="native")
    assert under(modules, *DATANODE_NEVER) == []
    assert len(under(modules, "repro")) <= DATANODE_REPRO_MODULES, (
        under(modules, "repro"))


def test_lint_rules_loads_no_numpy():
    modules = loaded_modules(
        "import repro.cli\nrepro.cli.main(['lint', '--rules'])")
    assert "repro.analysis" in modules
    assert under(modules, "numpy", "scipy") == []


def test_paper_tables_load_no_scipy():
    """Table 1, its Monte-Carlo check and the families table solve
    chains of at most 81 states, all by the numpy elimination in
    ``reliability/markov.py``; only ``brute_force_chain``'s large subset
    chains import scipy, inside the sparse solve."""
    modules = loaded_modules(
        "import repro.experiments\n"
        "from repro.experiments import families, table1\n"
        "table1.build_table1(workers=1)\n"
        "families.build_families(workers=1)\n"
        "table1.monte_carlo_validation(trials=20, workers=1)")
    assert "repro.experiments" in modules
    assert under(modules, "scipy") == []


def test_experiments_load_no_event_loop_and_no_socket_layer():
    modules = loaded_modules("import repro.experiments")
    assert under(modules, "asyncio", "repro.net") == []
