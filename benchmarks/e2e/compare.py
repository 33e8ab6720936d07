"""Compare benchmark results of a parent commit and a change.

From the root of a checkout::

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is a ``run.py --out`` result.  Run the two sides alternately
and list each side's files in the order they ran: pair *i* is (parent
file *i*, change file *i*).  For every workload and every end-to-end
metric of ``BENCHMARK.json`` one row gives each side's median and
quartiles, the fraction of pairs the change wins (ties count for
neither), and a verdict:

``unresolved``
    the parent's own spread (quartile distance / median) is wider than
    the metric's bound, and not every change run beats every parent run;
``regressed``
    the change's median is worse than the parent's by more than the bound;
``improved``
    the change wins at least nine tenths of the pairs and the medians
    differ by more than the parent's quartile distance (or, under a wide
    spread, every change run beats every parent run);
``within bound``
    anything else.

Traced results (``run.py --trace 1 --out``) add the per-layer table: the
change in each per-layer time, and whether each count repeats exactly.
Exits 1 on any regression, or when the change fails more operations than
the parent.  With ``--parent`` alone it prints each metric's median and
spread, which is how the bounds were calibrated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]

TIME_UNITS = ("s", "ms", "ns")
COUNT_UNITS = ("count", "bytes")


def quartiles(values: List[float]):
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: List[float], change: List[float], direction: str, bound: float):
    """The verdict on one metric, with the change's win fraction over the pairs."""
    pairs = list(zip(parent, change))
    wins = sum(_better(c, p, direction) for p, c in pairs)
    win_fraction = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse = (cm - pm) / abs(pm) if direction == "lower" else (pm - cm) / abs(pm)
    every_better = all(_better(c, p, direction) for c in change for p in parent)
    if spread(parent) > bound:
        return ("improved" if every_better else "unresolved"), win_fraction
    if worse > bound:
        return "regressed", win_fraction
    if win_fraction >= 0.9 and worse < 0 and abs(cm - pm) > p3 - p1:
        return "improved", win_fraction
    return "within bound", win_fraction


def _values(results: List[dict], workload: str, metric: str) -> List[float]:
    return [
        r["workloads"][workload]["metrics"][metric]["value"]
        for r in results
        if metric in r["workloads"].get(workload, {}).get("metrics", {})
    ]


def _workloads(results: List[dict]) -> List[str]:
    names: List[str] = []
    for result in results:
        names.extend(n for n in result["workloads"] if n not in names)
    return names


def end_to_end_rows(parent: List[dict], change: List[dict], spec: dict) -> List[dict]:
    """One row per workload and end-to-end metric present on both sides."""
    rows = []
    for workload in _workloads(parent):
        for metric in spec["end_to_end"]:
            p = _values(parent, workload, metric["name"])
            c = _values(change, workload, metric["name"])
            if not p or not c:
                continue
            result, win_fraction = verdict(p, c, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "parent": quartiles(p),
                    "change": quartiles(c),
                    "parent_spread": spread(p),
                    "win_fraction": win_fraction,
                    "verdict": result,
                }
            )
    return rows


def layer_rows(parent: List[dict], change: List[dict], spec: dict) -> List[dict]:
    """Per-layer times (change in median) and counts (exact or not)."""
    rows = []
    for workload in _workloads(parent):
        for metric in spec["per_layer"]:
            p = _values(parent, workload, metric["name"])
            c = _values(change, workload, metric["name"])
            if not p or not c:
                continue
            row = {"workload": workload, "metric": metric["name"], "unit": metric["unit"]}
            if metric["unit"] in TIME_UNITS:
                row["delta"] = statistics.median(c) - statistics.median(p)
                row.update(parent=statistics.median(p), change=statistics.median(c))
            elif metric["unit"] in COUNT_UNITS:
                row["exact"] = len(set(p + c)) == 1
                row.update(parent=statistics.median(p), change=statistics.median(c))
            else:
                continue
            rows.append(row)
    return rows


def failed_ops(results: List[dict]) -> int:
    return sum(w["failed"] for r in results for w in r["workloads"].values())


def spread_rows(results: List[dict], spec: dict) -> List[dict]:
    rows = []
    for workload in _workloads(results):
        for metric in spec["end_to_end"] + spec["per_layer"]:
            values = _values(results, workload, metric["name"])
            if values:
                rows.append(
                    {
                        "workload": workload,
                        "metric": metric["name"],
                        "unit": metric["unit"],
                        "n": len(values),
                        "median": statistics.median(values),
                        "spread": spread(values),
                        "bound": metric.get("bound"),
                    }
                )
    return rows


def _load(paths: List[str]) -> List[dict]:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            out.append(json.load(handle))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    parent = _load(args.parent)

    if args.change is None:
        print(f"{'workload':16} {'metric':30} {'n':>3} {'median':>14} {'spread':>8} {'bound':>6}")
        for row in spread_rows(parent, spec):
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            print(
                f"{row['workload']:16} {row['metric']:30} {row['n']:>3} "
                f"{row['median']:>14.6g} {row['spread']:>8.4f} {bound:>6}"
            )
        return 0

    change = _load(args.change)
    rows = end_to_end_rows(parent, change, spec)
    print(
        f"{'workload':16} {'metric':18} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'spread':>7} {'bound':>5} {'wins':>5}  verdict"
    )
    for row in rows:
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        print(
            f"{row['workload']:16} {row['metric']:18} {p:>32} {c:>32} "
            f"{row['parent_spread']:>7.3f} {row['bound']:>5.2f} "
            f"{row['win_fraction']:>5.2f}  {row['verdict']}"
        )
    layers = layer_rows(parent, change, spec)
    if layers:
        print()
        print(f"{'workload':16} {'per-layer metric':30} {'parent':>12} {'change':>12}  change")
        for row in layers:
            if "delta" in row:
                note = f"{row['delta']:+.4g} {row['unit']}"
            else:
                note = "exact" if row["exact"] else "differs"
            print(
                f"{row['workload']:16} {row['metric']:30} {row['parent']:>12.6g} "
                f"{row['change']:>12.6g}  {note}"
            )
    parent_failed, change_failed = failed_ops(parent), failed_ops(change)
    print(f"\nfailed operations: parent {parent_failed}, change {change_failed}")
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    return 1 if regressed or change_failed > parent_failed else 0


if __name__ == "__main__":
    sys.exit(main())
