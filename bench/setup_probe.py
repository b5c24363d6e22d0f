"""One cold start: a fresh interpreter runs a workload's set-up and prints
the CLOCK_MONOTONIC time at which it is ready.

    python3 bench/setup_probe.py WORKLOAD SEED    (from the repository root)

The caller takes the clock before starting the process, so the difference
covers interpreter start, ``import relaylink`` and the set-up itself.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "cli_commands":
    import relaylink  # noqa: F401  (what every CLI command pays first)
else:
    import workloads
    setup = workloads.setup_analytic if workload == "analytic_curves" else workloads.setup_mc
    setup(os.getcwd(), seed)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
