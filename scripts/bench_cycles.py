#!/usr/bin/env python3
"""Print the simulated cycles of a `spade-cli bench-perf --out` file.

    scripts/bench_cycles.py BENCH.json

One `workload kernel cycles` line per row, in the file's order. The
cycles depend only on the source, not on the host, so `scripts/check.sh`
and CI compare these lines byte for byte against
`tests/golden/bench_perf_tiny_cycles.txt`.
"""

import json
import sys

with open(sys.argv[1]) as f:
    for row in json.load(f)["workloads"]:
        print(row["workload"], row["kernel"], row["cycles"])
