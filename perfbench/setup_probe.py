"""Set-up time of one workload: package import plus a one-trial warm-up call.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH, as
``python3 perfbench/setup_probe.py <workload>``; prints the seconds taken.
The warm-up trial is drawn from a seed block no benchmark seed reaches, so
it is the same realization in every run.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import bench_workloads as bw  # noqa: E402  (imports numpy and fdtwrc)
from fdtwrc import harness  # noqa: E402

workload = bw.WORKLOADS[sys.argv[1]]
harness.run_experiment(workload.spec(1, bw.WARMUP_MASTER_SEED), workers=1, keep_samples=True)
print(repr(time.perf_counter() - T0))
