"""Experiment R3 -- what trace-driven priority buys the scheduler.

Ready-name vs ready-longest-first on an *imbalanced*
fan-out workload (one middle unit several times heavier than its
siblings, with a late-alphabetical name so plain name order dispatches
it last).  Persisted as ``BENCH_priority.json``: wall clock, worker
occupancy, and where the heavy unit landed in each dispatch order.

Gates are the deterministic facts, not wall clock (1-core CI makes
thread timings noise):

- longest-first dispatches the heavy unit *first* among the middle
  layer, name order dispatches it *last*;
- both arms produce identical export pids (priority is
  scheduling, never semantics).

Occupancy is recorded for the trajectory; the paper-style claim is
that longest-first keeps it at least at name-order's level on this
shape.
"""

import json
import os
import shutil
import tempfile

from repro.cm import CutoffBuilder
from repro.obs import Tracer, worker_idle
from repro.obs.history import (
    BuildHistory,
    longest_first_key,
    profile_from_report,
)
from repro.workload import fanout, generate_workload
from repro.workload.generate import unit_name

from .conftest import print_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(REPO, "BENCH_priority.json")

WIDTH = 12  # 14 units: base, 12 middles, top
HEAVY = unit_name(WIDTH)  # the alphabetically-last middle unit
HEAVY_HELPERS = 90  # several times the default middle weight
JOBS = 4


def imbalanced_workload():
    workload = generate_workload(fanout(WIDTH), helpers_per_unit=6)
    workload.params[HEAVY].n_helpers = HEAVY_HELPERS
    workload._rerender(HEAVY)
    return workload


def middles():
    return [unit_name(k) for k in range(1, WIDTH + 1)]


def build_arm(offer_key=None):
    tracer = Tracer()
    workload = imbalanced_workload()
    builder = CutoffBuilder(workload.project, meter=tracer)
    report = builder.build(jobs=JOBS, pool="thread", offer_key=offer_key)
    assert len(report.compiled) == len(workload.project)
    pids = {n: u.export_pid for n, u in builder.units.items()}
    return {
        "report": report,
        "idle": worker_idle(tracer, jobs=JOBS),
        "pids": pids,
    }


def heavy_rank(report):
    """Where the heavy unit landed among the middle layer's
    dispatches (0 = first middle offered)."""
    layer = set(middles())
    order = [n for n in report.dispatch_order if n in layer]
    return order.index(HEAVY)


def test_priority_occupancy_and_dispatch(benchmark):
    def run():
        # A profiling pass seeds the history the scheduler feeds on,
        # exactly as a real prior build would have.
        base = tempfile.mkdtemp(prefix="benchpriority-")
        try:
            history = BuildHistory(os.path.join(base, ".bin"))
            seed = build_arm()
            history.record(profile_from_report(seed["report"],
                                               manager="cutoff"))
            key = longest_first_key(history.compile_seconds("cutoff"))
            assert key is not None
            return {
                "ready-name": build_arm(),
                "ready-longest-first": build_arm(offer_key=key),
            }
        finally:
            shutil.rmtree(base, ignore_errors=True)

    arms = benchmark.pedantic(run, rounds=1, iterations=1)

    # Deterministic gates: dispatch position and byte identity.
    assert heavy_rank(arms["ready-name"]["report"]) == WIDTH - 1
    assert heavy_rank(arms["ready-longest-first"]["report"]) == 0
    assert (arms["ready-name"]["pids"]
            == arms["ready-longest-first"]["pids"])

    rows = []
    payload = {"units": WIDTH + 2, "jobs": JOBS, "heavy_unit": HEAVY,
               "arms": {}}
    for name, arm in arms.items():
        idle = arm["idle"]
        rank = heavy_rank(arm["report"])
        rows.append([name, f"{arm['report'].wall_seconds:.4f}",
                     idle["busy_seconds"], idle["occupancy"], rank])
        payload["arms"][name] = {
            "wall_seconds": round(arm["report"].wall_seconds, 6),
            "busy_seconds": idle["busy_seconds"],
            "occupancy": idle["occupancy"],
            "heavy_dispatch_rank": rank,
            "dispatch_order": list(arm["report"].dispatch_order),
        }
    print_table(
        f"R3: schedule arms on imbalanced fanout({WIDTH}), jobs={JOBS}",
        ["arm", "wall_s", "busy_s", "occupancy", "heavy_rank"],
        rows,
    )
    occ = {name: arm["idle"]["occupancy"] for name, arm in arms.items()}
    payload["longest_first_at_least_name_order"] = bool(
        occ["ready-longest-first"] >= occ["ready-name"] - 0.05)
    # Soft gate: equal-or-better occupancy modulo timing noise (the
    # hard gates above are the deterministic ones).
    assert payload["longest_first_at_least_name_order"]

    benchmark.extra_info["priority"] = payload
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"schema": "bench-priority/1", "priority": payload},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
