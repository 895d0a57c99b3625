"""What the benchmark declares: workloads, metric names, units.

``BENCHMARK.json`` at the repository root is the declaration the driver
reads; this module is where it is written from (``python3 -m
perfbench.metrics`` prints it, bounds taken from the existing file) and
what the harness checks its own output against.  A per-layer metric is
emitted by the workloads whose traced run exercises that layer and reads
0 on the others (the contract wants every name on every workload).
"""

from __future__ import annotations

import itertools
import json
import pathlib
import re
import sys
from dataclasses import dataclass, field

from .stats import Sample, quartiles

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = {
    "svc_read": (
        "healthy reads do no GF arithmetic, so net framing/pickle, loop "
        "dispatch, the datanode handler and CRC verify do the work: a "
        "wire or RPC-core change shows here, a GF-kernel change must not"),
    "svc_degraded": (
        "forced reconstruction: three pipelined partial-parity combine "
        "RPCs plus a client-side combine per read, so planner, pipelined "
        "fetch and datanode combine show here and leave svc_read flat"),
    "svc_write_repair": (
        "the same layers the other way round: 20 put frames per stripe, "
        "client encode, two-phase commit, then kill one datanode and "
        "time namenode-driven repair from status polls; cold read-back"),
    "codec": (
        "in-process, no sockets: gf and core do all the work, "
        "kernel-bound at 1 MiB blocks and Python-bound at 64 KiB, for "
        "pentagon, heptagon-local and rs(14,10)"),
    "paper_suite": (
        "what a reader of the paper runs: table 1, figs 3-5, repair "
        "bandwidth, families, mask enumeration in fresh processes at 1 "
        "and 2 workers; engine, scheduling, mapreduce, reliability"),
}

#: name -> (unit, better).  Every workload reports every one of these;
#: perfbench/README.md defines what the "op" of each workload is.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "cpu_ms_per_op": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

_CODES = "{pentagon,heptagon_local,rs14_10}"

#: layer -> brace patterns of the per-layer metric names.
PER_LAYER_PATTERNS = {
    "loadgen": ["loadgen.send_lag_{p50,p99}_ms", "loadgen.backlog_end_ms",
                "loadgen.op_{p90,p99}_ms", "loadgen.miss_10ms_frac",
                "loadgen.closed_{p50,p99}_ms"],
    "client": ["client.{op,self}_us", "client.{stat,dn}_rpc_per_op",
               "client.{retries,replans}", "client.write_self_us",
               "client.puts_per_stripe"],
    "net": ["net.pickle_64k_us", "net.frame_rtt_{small,64k}_us",
            "net.rpc_echo_{small,64k}_us"],
    "datanode": ["datanode.{get,put,combine}_us", "datanode.checksums_ms",
                 "datanode.get_residual_us",
                 "blockstore.{get_verify,put}_us"],
    "namenode": ["namenode.{stat,status,place_stripe,begin_commit}_us",
                 "repair.{detect,first_done,work}_s",
                 "repair.{stripes_done,failed}", "verify.read_mb_per_s"],
    "gf": ["gf.combine_{xor,mul}_64k_us", "gf.combine_{xor,mul}_1m_mb_per_s",
           "gf.numpy_encode_1m.{heptagon_local,rs14_10}_mb_per_s",
           "roofline.{xor,memcpy}_mb_per_s"],
    "core": ["core.{encode,decode,repair}_{64k,1m}." + _CODES + "_mb_per_s",
             "core.degraded_read_64k." + _CODES + "_us",
             "core.plan_{read,repair}." + _CODES + "_us",
             "core.mask_verdicts_per_s",
             "cluster.minihdfs_{write,read,degraded_read,repair_node}"
             "_mb_per_s"],
    "experiments": [
        "exp.{table1,table1_mc,fig3_mu4,fig4,fig5,repair_bw,families,"
        "mask_enum}_s_{w1,w2}",
        "suite.import_s", "suite.speedup_w2", "engine.pool_spinup_s",
        "engine.dispatch_us_per_cell_{serial,pooled}",
        "engine.cpu_parallel_capacity",
        "scheduling.{delay,maxmatch,peeling}_assign_us",
        "mapreduce.terasort_once_ms", "reliability.simulate_group_mttd_ms"],
    "budget": ["budget.{read,degraded,write}_sum_us",
               "budget.{read,degraded,write}_residual_frac",
               "trace.overhead_frac"],
    # End-to-end in the issue, per layer here: the contract makes every
    # workload report every end-to-end metric, and these exist on one
    # workload only (README, "Demoted metrics").
    "demoted": ["write_mb_per_s", "repair_stripes_per_s", "storage_overhead",
                "{encode,decode,repair}_mb_per_s",
                "suite_wall_s_{w1,w2}", "suite_cpu_s"],
}

#: Per-layer metrics where more is better; everything else is a cost.
_HIGHER = re.compile(r"(_per_s|speedup_w2|cpu_parallel_capacity|"
                     r"stripes_done)$")

_UNITS = (("_mb_per_s", "MiB/s"), ("_per_s", "1/s"), ("_us", "us"),
          ("_ms", "ms"), ("_frac", "ratio"), ("_per_op", "count"),
          ("_per_stripe", "count"), ("_per_cell_serial", "us"),
          ("_per_cell_pooled", "us"), ("_s_w1", "s"), ("_s_w2", "s"),
          ("_s", "s"))


def expand(pattern: str) -> list[str]:
    """Shell-style brace expansion: ``a.{b,c}_d`` -> ``a.b_d``, ``a.c_d``."""
    parts = re.split(r"\{([^{}]*)\}", pattern)
    choices = [part.split(",") if index % 2 else [part]
               for index, part in enumerate(parts)]
    return ["".join(combo) for combo in itertools.product(*choices)]


def layer_names(*layers: str) -> tuple[str, ...]:
    return tuple(name for layer in layers
                 for pattern in PER_LAYER_PATTERNS[layer]
                 for name in expand(pattern))


def unit_of(name: str) -> str:
    """Unit implied by a per-layer metric's name."""
    if name in ("storage_overhead", "suite.speedup_w2",
                "engine.cpu_parallel_capacity"):
        return "ratio"
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def better_of(name: str) -> str:
    return "higher" if _HIGHER.search(name) else "lower"


PER_LAYER = {name: (unit_of(name), better_of(name))
             for name in layer_names(*PER_LAYER_PATTERNS)}


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, Sample] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def put(self, name: str, value: float, *, n: int = 1,
            q1: float | None = None, q3: float | None = None) -> None:
        unit = (END_TO_END[name][0] if name in END_TO_END
                else PER_LAYER[name][0])
        self.metrics[name] = Sample(float(value), unit, n, q1, q3)

    def put_best(self, name: str, windows, best) -> None:
        """The quietest window's value (``best`` is ``min`` or ``max``),
        with the quartiles over all windows and their count."""
        q1, _, q3 = quartiles(windows)
        self.put(name, best(windows), n=len(windows), q1=q1, q3=q3)


def declaration(bounds: dict[str, float], command: list[str],
                paths: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document for the tables above."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bounds[name]}
                       for name, (unit, better) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }


def main() -> None:
    current = json.loads(BENCHMARK_JSON.read_text())
    bounds = {entry["name"]: entry["bound"]
              for entry in current["end_to_end"]}
    json.dump(declaration(bounds, current["command"], current["paths"],
                          current["run_seconds"]),
              sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
