"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is everything a user pays before the first op: importing numpy and
the library, building weights or SSM parameters, and lazy set-up such as
scan tables.  run.py starts this several times and reports the median.

    python3 perfbench/setup_probe.py <workload>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports numpy and the library)

workloads.WORKLOADS[sys.argv[1]]().setup()
print(f"{time.perf_counter() - T0:.9f}")
