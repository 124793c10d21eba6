"""Time one process's set-up for a workload and print it in seconds.

Set-up is what a user pays once per process before the first generation:
importing numpy and voxevo, building the terrain, and one warm-up
``build_world``, which on the bridge terrain solves the strip's
equilibrium. Run as ``python3 perfbench/setup_probe.py WORKLOAD SEED``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.prepare(workloads.WORKLOADS[name], seed)
    print(time.perf_counter() - START)
