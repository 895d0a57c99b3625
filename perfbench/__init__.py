"""The repo benchmark: five workloads measured end to end and per layer.

Run it from the repository root::

    python3 -m perfbench --workload svc_read --seed 7 --seconds 10 --trace 0

``BENCHMARK.json`` at the root declares the workloads and every metric;
``perfbench/README.md`` says why each is there and which layer should
move which number.  Nothing in ``src/`` knows this package exists: every
layer is timed from outside, through its public functions.
"""
