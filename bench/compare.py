"""``python -m bench.compare A.json B.json``

Compares two sets of runs (files written by ``python -m bench --out``):
one row per (workload, metric) with each side's median and quartiles
over its runs, and the metric's bound.  A row is ``regressed`` when B's
median is worse than A's by more than the bound, and ``unresolved``
when either side's spread (interquartile range over median) is wider
than the bound -- unless every run of B beats every run of A.  Exits 1
when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from bench.metrics import bounds, load_spec
from bench.stats import quartiles


def collect(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> value per untraced run."""
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for record in records:
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            out[record["workload"], name].append(float(metric["value"]))
    return out


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    """``regressed``, ``unresolved`` or ``ok`` for one row."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    base = abs(qa[1])
    worse = sign * (qb[1] - qa[1])
    if worse > bound * base + 1e-12:
        return "regressed"
    wins = all(sign * (y - x) < 0 for x in a for y in b)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                 for q in (qa, qb))
    if spread > bound and not wins:
        return "unresolved"
    return "ok"


def compare(a: list[dict], b: list[dict], spec: dict) -> list[dict]:
    limits = bounds(spec)
    left, right = collect(a), collect(b)
    rows = []
    for key in sorted(set(left) & set(right)):
        if key[1] not in limits:
            continue
        better, bound = limits[key[1]]
        rows.append({
            "workload": key[0], "metric": key[1], "bound": bound,
            "a": quartiles(left[key]), "b": quartiles(right[key]),
            "runs": (len(left[key]), len(right[key])),
            "verdict": verdict(left[key], right[key], better, bound),
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare")
    parser.add_argument("a", help="baseline run set (JSON list)")
    parser.add_argument("b", help="candidate run set (JSON list)")
    args = parser.parse_args(argv)
    sets = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh))
    rows = compare(sets[0], sets[1], load_spec())
    print(f"{'workload':15s} {'metric':16s} {'A q1/med/q3':>30s} "
          f"{'B q1/med/q3':>30s} {'runs':>6s} {'bound':>6s}  verdict")
    for row in rows:
        cells = ["/".join(f"{v:.4g}" for v in row[side])
                 for side in ("a", "b")]
        print(f"{row['workload']:15s} {row['metric']:16s} {cells[0]:>30s} "
              f"{cells[1]:>30s} {'%d/%d' % row['runs']:>6s} "
              f"{row['bound']:>6.2f}  {row['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
