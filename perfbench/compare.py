"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds result records as ``run.py`` appends them to
``.perfbench/results.jsonl``; only untraced runs are read. For every
workload and metric it prints each side's median and quartiles and a
verdict, then one verdict row per workload:

* improved   - the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* worse      - the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* unresolved - the parent's own spread is wider than the bound, unless
  every change run reads better than every parent run;
* unchanged  - otherwise.

Runs are paired by seed where both sides ran the same seeds, else in order.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RANK = {"worse": 3, "unresolved": 2, "improved": 1, "unchanged": 0}


def load(path: str) -> dict:
    """workload -> metric -> {seed-ordered list of (seed, value)}."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            runs[record["workload"]][name].append((record["seed"], metric["value"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a: list, b: list) -> list[tuple[float, float]]:
    by_seed_a, by_seed_b = dict(a), dict(b)
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if common:
        return [(by_seed_a[s], by_seed_b[s]) for s in common]
    return list(zip([v for _, v in a], [v for _, v in b]))


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """Verdict for the change (b) against the parent (a), as in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0 means y is better
    va, vb = [v for _, v in a], [v for _, v in b]
    qa1, ma, qa3 = quartiles(va)
    mb = quartiles(vb)[1]
    matched = [(x, y) for x, y in pairs(a, b) if x != y]
    wins = sum(sign * (x - y) > 0 for x, y in matched)
    if matched and wins >= 0.9 * len(matched) and sign * (ma - mb) > qa3 - qa1:
        return "improved"
    if ma and sign * (mb - ma) / abs(ma) > bound:
        return "worse"
    every_run_better = all(sign * (x - y) > 0 for x in va for y in vb)
    if ma and (qa3 - qa1) / abs(ma) > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(argv[0]), load(argv[1])
    header = f"{'workload':8} {'metric':14} {'parent q1/median/q3':>34} {'change q1/median/q3':>34}  verdict"
    print(header)
    for workload in sorted(set(parent) | set(change)):
        worst = "unchanged"
        for name, m in metrics.items():
            a, b = parent[workload].get(name), change[workload].get(name)
            if not a or not b:
                print(f"{workload:8} {name:14} {'missing on one side':>70}  unresolved")
                worst = max(worst, "unresolved", key=RANK.get)
                continue
            v = verdict(a, b, m["better"], m["bound"])
            worst = max(worst, v, key=RANK.get)
            fmt = lambda vals: "/".join(f"{q:.4g}" for q in quartiles([x for _, x in vals]))  # noqa: E731
            print(f"{workload:8} {name:14} {fmt(a):>34} {fmt(b):>34}  {v}"
                  f"  (n={len(a)}/{len(b)}, {m['unit']}, {m['better']} is better)")
        print(f"{workload:8} {'= workload':14} {'':>34} {'':>34}  {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
