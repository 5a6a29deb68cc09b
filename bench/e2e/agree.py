#!/usr/bin/env python3
"""Compare two results sets of the 2SMaRT end-to-end benchmark.

  python3 bench/e2e/agree.py A.json B.json
  python3 bench/e2e/agree.py A.json          # one set: spreads only

Prints one row per workload and metric: each side's median and quartiles
(statistics.quantiles, n=4), its spread (quartile distance over the
median) and B's change against A. An end-to-end metric is flagged WORSE
when B's median is worse than A's by more than the metric's bound in
BENCHMARK.json, and "unresolved" when either side's own spread exceeds
the bound. Per-layer metrics have no bound and are only shown. Verdict and
dataset digests must agree across both sets at each (workload, seed), and
every run must have passed its correctness checks. Exit status 1 when
anything is flagged.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_set(path):
    with open(path) as f:
        return json.load(f)["runs"]


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def by_metric(runs):
    """(workload, metric) -> values, in first-seen order."""
    table = {}
    for r in runs:
        for name, m in r["metrics"].items():
            table.setdefault((r["workload"], name), []).append(m["value"])
    return table


def digests(runs):
    """(workload, seed) -> set of digests seen."""
    seen = {}
    for r in runs:
        for key in ("verdict_digest", "dataset_digest"):
            if key in r["info"]:
                seen.setdefault((r["workload"], r["seed"], key),
                                set()).add(r["info"][key])
    return seen


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load_set(p) for p in argv[1:]]
    tables = [by_metric(runs) for runs in sets]
    flagged = 0

    fmt = "{:<14} {:<24} {:>34} {:>34} {:>8} {:>6}  {}"
    print(fmt.format("workload", "metric", "A median [q1, q3] spread",
                     "B median [q1, q3] spread", "B vs A", "bound",
                     "status"))
    for key, a_values in tables[0].items():
        workload, name = key
        a = summary(a_values)
        cells = [f"{a[0]:.5g} [{a[1]:.5g}, {a[2]:.5g}] {a[3]:.1%}"]
        bound = gated.get(name, {}).get("bound")
        status = "-"
        change = ""
        if len(tables) == 2 and key in tables[1]:
            b = summary(tables[1][key])
            cells.append(f"{b[0]:.5g} [{b[1]:.5g}, {b[2]:.5g}] {b[3]:.1%}")
            if a[0]:
                rel = (b[0] - a[0]) / abs(a[0])
                change = f"{rel:+.1%}"
                if bound is not None:
                    worse = rel if gated[name]["better"] == "lower" else -rel
                    if a[3] > bound or b[3] > bound:
                        status = "unresolved"
                    elif worse > bound:
                        status = "WORSE"
                    else:
                        status = "ok"
        else:
            cells.append("")
            if bound is not None:
                status = "ok" if a[3] <= bound else "spread > bound"
        if status in ("WORSE", "unresolved", "spread > bound"):
            flagged += 1
        print(fmt.format(workload, name, cells[0], cells[1], change,
                         "" if bound is None else f"{bound:.0%}", status))

    seen = digests([r for runs in sets for r in runs])
    split = {k: v for k, v in seen.items() if len(v) > 1}
    for (workload, seed, key), values in sorted(split.items()):
        print(f"DIGEST MISMATCH {workload} seed {seed} {key}: "
              f"{sorted(values)}")
    print(f"digests: {len(seen) - len(split)} of {len(seen)} "
          "(workload, seed) digests identical across all runs")
    flagged += len(split)

    bad = [r for runs in sets for r in runs if not r["correct"]]
    for r in bad:
        print(f"INCORRECT {r['workload']} seed {r['seed']}: "
              f"{'; '.join(r['failures'])}")
    total = sum(len(runs) for runs in sets)
    print(f"correctness: {total - len(bad)} of {total} runs passed")
    flagged += len(bad)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
