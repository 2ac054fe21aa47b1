"""Time one workload's set-up in a fresh process and print it in seconds.

Set-up is importing lmgvqe (with numpy and scipy) and building the problem
through the same public calls the workload makes.  ``run.py`` starts this
several times per run and reports the median as ``setup_s``.

Usage: python3 bench/probe.py WORKLOAD
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and lmgvqe inside the timed interval)

workload = workloads.WORKLOADS[sys.argv[1]](seed=0, root=Path(__file__).resolve().parent.parent)
workload.setup()
elapsed = time.perf_counter() - start
workload.close()
print(repr(elapsed))
