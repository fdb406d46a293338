"""One set-up sample, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD

Times ``import galelab`` followed by building and validating the
workload's reference gamblers, and prints the seconds taken and the
reference loop's time measured just before.
"""

import sys
import time

from refloop import reference_time
from spans import Tracer

ref = reference_time(3)
t0 = time.perf_counter()
import galelab  # noqa: E402,F401
from workloads import build_references  # noqa: E402

_, _, valid = build_references(sys.argv[1], Tracer("setup", enabled=False))
elapsed = time.perf_counter() - t0
if not valid:
    sys.exit("reference gamblers failed validation")
print(repr(elapsed), repr(ref))
