"""Compare two sets of benchmark results, workload by workload.

Usage, from the root of a source checkout:

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are each a result record written by ``bench/run.py`` (a
``.json`` file) or a directory of them.  Runs are grouped by workload and
trace mode; within a group the two sides are paired in seed order, then run
order.  Per metric the tool prints each side's median and quartiles, the
share of pairs the change won (ties count for neither side), and a verdict:

``improved``    the change won at least 9/10 of the pairs and the medians
                differ by more than the base's own quartile spread
``regressed``   the change's median is worse than the base's by more than
                the metric's bound in BENCHMARK.json
``unresolved``  either side's quartile spread, as a share of its median,
                exceeds the bound, and not every change run beats every
                base run
``within``      none of the above

Per-layer metrics have no bound; they get medians and pair shares only.
Exit status is 1 when any metric regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = {}
    for f in files:
        record = json.loads(f.read_text())
        if "metrics" not in record or "workload" not in record:
            continue
        key = (record["workload"], record["trace"])
        groups.setdefault(key, []).append(record)
    for runs in groups.values():
        runs.sort(key=lambda r: r["environment"]["seed"])
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_metric(base, change, better, bound):
    """Summary and verdict for one metric's values on the two sides."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    row = {"base": (b1, bm, b3), "change": (c1, cm, c3),
           "won": wins / len(pairs) if pairs else 0.0}
    if bound is None:
        row["verdict"] = ""
        return row
    worse = -sign * (cm - bm) / abs(bm) if bm else 0.0
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    dominates = all(sign * (c - b) > 0 for c in change for b in base)
    if row["won"] >= 0.9 and sign * (cm - bm) > 0 and abs(cm - bm) > b3 - b1:
        row["verdict"] = "improved"
    elif spread > bound and not dominates:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "within"
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    regressed = False
    print("%-13s %-42s %35s %35s %6s  %s" % (
        "workload", "metric", "base q1/median/q3", "change q1/median/q3",
        "won", "verdict"))
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        for metric in metrics[trace]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[key]
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[key]
                 if name in r["metrics"]]
            if not b or not c:
                print("%-13s %-42s missing on one side" % (workload, name))
                continue
            row = compare_metric(b, c, metric["better"], metric.get("bound"))
            regressed |= row["verdict"] == "regressed"
            print("%-13s %-42s %35s %35s %5.0f%%  %s" % (
                workload, name,
                "/".join("%.4g" % v for v in row["base"]),
                "/".join("%.4g" % v for v in row["change"]),
                100 * row["won"], row["verdict"]))
    for key in sorted(set(base) ^ set(change)):
        print("%s (trace %d): runs on one side only" % key)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
