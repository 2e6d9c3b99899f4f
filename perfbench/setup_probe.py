"""Print the set-up time of one workload, measured in this fresh process.

Set-up is importing bspapa, building and validating the workload's
configs, and synthesizing its scenario.  ``run.py`` starts this script
several times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()

import workloads  # noqa: E402  (imports bspapa, numpy and scipy: part of set-up)

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
