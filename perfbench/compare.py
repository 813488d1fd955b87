#!/usr/bin/env python3
"""Compare two commits from the result files run.py writes.

    python3 perfbench/compare.py PARENT_OUT_DIR CHANGE_OUT_DIR

Each directory holds perfbench/out/*.json from one checkout.  Runs pair up
by (workload, trace, seed).  For every metric and workload the table gives
each side's median and quartiles, the change of the median as a share of the
parent's, and a verdict:

  regression  the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json (end-to-end metrics only);
  unresolved  the parent's own quartile spread is wider than the bound and
              not every change run beats every parent run;
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
  same        none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """(workload, trace, metric) -> {seed: value}; a later file for the same
    seed replaces an earlier one."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*-trace*-seed*.json")):
        res = json.loads(path.read_text())
        for name, m in res["metrics"].items():
            out.setdefault((res["workload"], res["trace"], name), {})[res["env"]["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, better, bound):
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1 if better == "higher" else -1
    worse_by = sign * (pm - cm) / pm
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / pm
    if bound is not None and worse_by > bound:
        return "regression"
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if bound is not None and spread > bound and not all_better:
        return "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > spread:
        return "gain"
    return "same"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    spec = json.loads(BENCH.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[1]), load(argv[2])
    print(f"{'workload':<18} {'metric':<34} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'n':>3}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        workload, trace, name = key
        p, c = parent[key], change[key]
        pv, cv = list(p.values()), list(c.values())
        pairs = [(p[s], c[s]) for s in p.keys() & c.keys()]
        m = meta.get(name, {})
        better = m.get("better", "higher")
        v = verdict(pv, cv, pairs, better, m.get("bound"))
        pm, cm = statistics.median(pv), statistics.median(cv)

        def fmt(med, vals):
            q1, q3 = quartiles(vals)
            return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

        print(f"{workload:<18} {name:<34} {fmt(pm, pv):>34} {fmt(cm, cv):>34} "
              f"{(cm - pm) / pm:>+8.3f} {len(pairs):>3}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
