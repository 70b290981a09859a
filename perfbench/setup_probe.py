"""Time one set-up of a workload in a fresh interpreter and print it.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Set-up is the hypfrac import, input generation and one warm-up call; the
clock starts before anything of hypfrac is imported.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402

workloads.Workload(sys.argv[1], int(sys.argv[2]), sys.argv[3]).prepare()
print(repr(time.perf_counter() - T0))
