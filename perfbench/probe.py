"""Times one workload's set-up in this fresh interpreter: the library's
imports, dataset, taxonomy and template loads, backend construction and, on
http-stub, starting the stub until it answers.  Prints the seconds taken.

    python3 perfbench/probe.py synth-5k
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

env = workloads.Env(workloads.WORKLOADS[sys.argv[1]])
elapsed = time.perf_counter() - START
env.close()
print(elapsed)
