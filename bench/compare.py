#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 bench/compare.py A/ B/

``A/`` and ``B/`` each hold the ``--out`` files of several runs of
``bench/e2e.py`` (A: the parent commit, B: the change), ideally made
alternately and with the same seeds on both sides.  Runs are paired in
(seed, file name) order.  For every workload and end-to-end metric in
``BENCHMARK.json`` it prints each side's median and quartiles, the
share of pairs B wins (ties count for neither side), and a verdict:

* ``improved``   — B wins at least 9 of 10 pairs and the medians differ
  by more than A's own interquartile range;
* ``unresolved`` — either side's interquartile range, as a share of its
  median, is wider than the metric's bound;
* ``worse``      — B's median is worse than A's by more than the bound;
* ``no-worse``   — otherwise.

Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _better(x: float, y: float, direction: str) -> bool:
    """Whether ``x`` reads better than ``y``."""
    return x < y if direction == "lower" else x > y


def verdict(a: list[float], b: list[float], direction: str, bound: float) -> tuple[str, float]:
    """``(verdict, B's win share)`` for paired runs ``a[i]``/``b[i]``."""
    wins = sum(1 for x, y in zip(a, b) if _better(y, x, direction))
    share = wins / min(len(a), len(b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    if share >= 0.9 and abs(med_b - med_a) > qa[2] - qa[0]:
        return "improved", share
    rel_spread = max((qa[2] - qa[0]) / abs(med_a), (qb[2] - qb[0]) / abs(med_b))
    if rel_spread > bound:
        return "unresolved", share
    worse_by = (med_b - med_a if direction == "lower" else med_a - med_b) / abs(med_a)
    return ("worse" if worse_by > bound else "no-worse"), share


def _load(directory: str) -> list[dict]:
    files = sorted(Path(directory).glob("*.json"))
    docs = [(json.loads(f.read_text(encoding="utf-8")), f.name) for f in files]
    return [doc for doc, _ in sorted(docs, key=lambda d: (d[0].get("seed", 0), d[1]))]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    side_a, side_b = _load(argv[0]), _load(argv[1])
    if len(side_a) < 2 or len(side_b) < 2:
        print("error: each side needs at least two run files", file=sys.stderr)
        return 2
    print(f"A: {len(side_a)} runs in {argv[0]}   B: {len(side_b)} runs in {argv[1]}")
    header = (f"{'workload':<16} {'metric':<15} {'unit':<10} {'A median [q1, q3]':>28} "
              f"{'B median [q1, q3]':>28} {'B wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            try:
                a = [d["workloads"][workload]["metrics"][m["name"]] for d in side_a]
                b = [d["workloads"][workload]["metrics"][m["name"]] for d in side_b]
            except KeyError:
                continue
            result, share = verdict(a, b, m["better"], m["bound"])
            any_worse |= result == "worse"
            cells = []
            for values in (a, b):
                q = statistics.quantiles(values, n=4)
                cells.append(f"{statistics.median(values):.4g} [{q[0]:.4g}, {q[2]:.4g}]")
            print(f"{workload:<16} {m['name']:<15} {m['unit']:<10} {cells[0]:>28} "
                  f"{cells[1]:>28} {share:>6.0%}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
