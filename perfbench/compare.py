"""Compare two run files written by run.py.

For every workload, trace mode and metric present in both files, print each
side's median and quartiles, the ratio of the medians, and a verdict
against the metric's bound from BENCHMARK.json:

* ``unresolved`` when either side's spread (quartile distance over median)
  exceeds the bound, unless every new run is better than every base run;
* ``regressed`` when the new median is worse by more than the bound;
* ``improved`` when it is better by more than the base side's spread;
* ``unchanged`` otherwise.

Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load_runs(path):
    """{(workload, trace): {metric: [values]}} from a JSON-lines file."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    out[(rec["workload"], rec["trace"])][name].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better, bound):
    if bound is None:
        return "no bound"
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    base_spread = (bq3 - bq1) / abs(bmed) if bmed else float("inf")
    new_spread = (nq3 - nq1) / abs(nmed) if nmed else float("inf")
    gain = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    if max(base_spread, new_spread) > bound:
        if all(sign * n > sign * b for n in new for b in base):
            return "improved"
        return "unresolved"
    if gain < -bound:
        return "regressed"
    if gain > base_spread:
        return "improved"
    return "unchanged"


def compare(base_path, new_path, bench):
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load_runs(base_path), load_runs(new_path)
    lines = [f"{'workload':15s} {'t':1s} {'metric':30s} {'base median [q1, q3]':>34s} "
             f"{'new median [q1, q3]':>34s} {'ratio':>7s} {'bound':>6s}  verdict"]
    for key in sorted(set(base) & set(new)):
        for name in sorted(set(base[key]) & set(new[key])):
            d = defs.get(name, {})
            bound = d.get("bound")
            b, n = base[key][name], new[key][name]
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            ratio = nmed / bmed if bmed else float("nan")
            lines.append(
                f"{key[0]:15s} {key[1]:1d} {name:30s} "
                f"{bmed:12.5g} [{bq1:9.5g}, {bq3:9.5g}] {nmed:12.5g} [{nq1:9.5g}, {nq3:9.5g}] "
                f"{ratio:7.4f} {'' if bound is None else bound:>6}  "
                f"{verdict(b, n, d.get('better', 'lower'), bound)} (n={len(b)}/{len(n)})")
    return lines
