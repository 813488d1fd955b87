#!/usr/bin/env python3
"""Parameter search across the (c, d) grid for a range of independence
values: for each k, the smallest power-of-two right side m whose failure
bound meets the target, within the graph size guard, ranked by the time
model.

Usage: python scripts/run_search.py [delta_target]
"""

import sys

from kgen.cli import main

delta = sys.argv[1] if len(sys.argv) > 1 else "1e-7"
ks = ",".join(str(1 << e) for e in range(5, 15))
sys.exit(main([
    "search",
    "--k", ks,
    "--c", "16,32,64",
    "--d", "4,8,16",
    "--delta", delta,
]))
