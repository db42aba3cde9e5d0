"""Time one cold set-up of a workload and print it in seconds.

Set-up is everything before the first simulated event: importing the
simulator and building every cell's cluster.  Importing happens once per
process, so ``run.py`` measures set-up in fresh processes started from
this script::

    python3 hostbench/probe.py <workload> <seed>
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cells import WORKLOADS  # noqa: E402  (imports the simulator)

for cell in WORKLOADS[sys.argv[1]]:
    cell.build(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
