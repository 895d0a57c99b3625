"""What each kind of process imports.

Every case runs a fresh interpreter and asserts on ``sys.modules``
after the import or call under test, never on a timing.  A datanode
daemon, the argument parser every ``python -m repro`` process builds,
and ``repro lint`` must not pay for scipy or the experiment stack;
the paper-suite pass must.
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


def loaded_modules(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    env = dict(os.environ)
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


def test_lint_rules_loads_no_numpy():
    modules = loaded_modules(
        "import repro.cli\nrepro.cli.main(['lint', '--rules'])")
    assert "repro.analysis" in modules
    assert under(modules, "numpy", "scipy") == []


def test_experiments_still_load_scipy_eagerly():
    """Deliberately not lazy: ``reliability/markov.py`` imports
    ``scipy.sparse.linalg`` at module level.  ``paper_suite``'s fork
    pool then inherits scipy from the parent; deferring the import
    makes every forked worker import it again (plus once in the parent
    for Table 1's analytic MTTDL), which measured slower on the suite."""
    assert "scipy.sparse.linalg" in loaded_modules("import repro.experiments")
