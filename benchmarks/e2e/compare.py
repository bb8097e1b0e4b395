#!/usr/bin/env python3
"""Compare two result files written by ``run.py --repeat N --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

Per workload and end-to-end metric: both medians with their quartiles,
B's difference relative to A (positive = worse), the metric's bound, and
a verdict — ``same`` (within the bound), ``differs`` (beyond it), or
``unresolved`` (either side's own run-to-run spread, quartile distance
over median, is wider than the bound, so the runs cannot tell).  Exits 1
when anything differs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2e_layers import END_TO_END  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def load(path: str) -> tuple[dict, dict]:
    """``(env, {workload: [run, ...]})`` of the untraced runs."""
    with open(path) as source:
        data = json.load(source)
    by_workload: dict = {}
    for run in data["runs"]:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return data["env"], by_workload


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, runs_a), (env_b, runs_b) = load(sys.argv[1]), load(sys.argv[2])
    for label, env in (("A", env_a), ("B", env_b)):
        print(f"{label}: commit {env['commit'][:12]}  python {env['python']}  "
              f"nproc {env['nproc']}  load {env['loadavg'][0]:.2f}")
    differs = 0
    for workload in runs_a:
        if workload not in runs_b:
            print(f"\n{workload}: only in A")
            continue
        side_a, side_b = runs_a[workload], runs_b[workload]
        noisy = sum(run["noisy"] for run in side_a + side_b)
        print(f"\n{workload}  ({len(side_a)} vs {len(side_b)} runs"
              + (f", {noisy} flagged noisy" if noisy else "") + ")")
        for field in ("attempted", "failed"):
            counts = [sorted({run[field] for run in side})
                      for side in (side_a, side_b)]
            print(f"  {field:<18}A {counts[0]}  B {counts[1]}")
        print(f"  {'metric':<18}{'A q1/median/q3':>34}"
              f"{'B q1/median/q3':>34}{'B vs A':>9}{'bound':>7}  verdict")
        for name, (unit, better, bound) in END_TO_END.items():
            low_a, mid_a, high_a = quartiles(
                [run["end_to_end"][name] for run in side_a])
            low_b, mid_b, high_b = quartiles(
                [run["end_to_end"][name] for run in side_b])
            worse = (mid_b - mid_a) / mid_a
            if better == "higher":
                worse = -worse
            spread = max((high_a - low_a) / mid_a, (high_b - low_b) / mid_b)
            if spread > bound:
                verdict = "unresolved"
            elif abs(worse) > bound:
                verdict = "differs"
                differs += 1
            else:
                verdict = "same"
            print(f"  {name:<18}"
                  f"{low_a:>11.4f}/{mid_a:>10.4f}/{high_a:>10.4f} "
                  f"{low_b:>11.4f}/{mid_b:>10.4f}/{high_b:>10.4f} "
                  f"{worse:>+8.1%}{bound:>7.0%}  {verdict} ({unit})")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
