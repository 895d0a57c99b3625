"""repro — reproduction of "Evaluation of Codes with Inherent Double
Replication for Hadoop" (Krishnan et al., USENIX HotStorage 2014).

The package implements the paper's pentagon and heptagon-local codes,
their baselines (2/3-replication, RAID+mirror, Reed-Solomon), a mini-HDFS
cluster substrate, the map-task schedulers (delay scheduling, maximum
matching, degree-guided peeling), a discrete-event MapReduce simulator,
and Markov-chain reliability models — everything needed to regenerate
Table 1 and Figures 3-5 of the paper.

Quick start::

    from repro.core import pentagon, verify_repair_plan
    code = pentagon()
    blocks = code.encode([bytes([i]) * 1024 for i in range(9)])
    plan = code.plan_node_repair([0, 1])
    assert plan.network_blocks == 10          # the paper's Section 2.1 count
    assert verify_repair_plan(code, blocks, plan)

Importing the package loads none of its subpackages; import the one
you use, as above.  A datanode daemon thus never loads the experiment
stack or scipy.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "gf",
    "cluster",
    "scheduling",
    "mapreduce",
    "reliability",
    "workloads",
    "experiments",
    "__version__",
]
