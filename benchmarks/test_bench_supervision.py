"""Experiment R1 -- what fault tolerance costs.

Two claims with numbers attached, persisted as ``BENCH_supervision.json``:

1. **Recovery overhead.**  A supervised ``--jobs 4`` build through which
   one worker crashes (and is retried) should cost little more than the
   same build with no fault: the retry re-runs one unit, not the build.
   We measure clean supervised wall-clock vs 1-crash wall-clock on a
   40-unit workload and report the overhead ratio.
2. **Schedule-search coverage.**  The bounded exhaustive search over
   two writers' saves at depth 7 explores 128 schedules; we report how
   many *distinct realized interleavings* (states) that covers and
   assert every one converged -- the robustness headline, with the
   state count as the evidence of coverage.
"""

import json
import os
import time

from repro.cm import BinStore, CutoffBuilder, SupervisePolicy, Supervisor
from repro.cm.faults import (
    TwoWriterInterleaver,
    WorkerFaults,
    bounded_schedules,
    faulty_executors,
    search_schedules,
)
from repro.workload import diamond, fanout, generate_workload

from .conftest import print_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(REPO, "BENCH_supervision.json")

POLICY = SupervisePolicy(retries=2, backoff_base=0.001, backoff_cap=0.01)
SHAPE = fanout(38)  # 40 units: 1 base, 38 middle, 1 top
SEARCH_DEPTH = 7


def supervised_wall(faults=None):
    workload = generate_workload(SHAPE, helpers_per_unit=1)
    builder = CutoffBuilder(workload.project)
    t0 = time.perf_counter()
    report = Supervisor(
        jobs=4, policy=POLICY,
        executor_factory=faulty_executors(faults) if faults else None,
    ).build(builder)
    wall = time.perf_counter() - t0
    assert not report.failed and not report.skipped
    assert len(report.compiled) == len(SHAPE)
    return wall, report


def test_one_crash_recovery_overhead(benchmark):
    """Clean supervised build vs the same build with one worker crash."""

    def run():
        clean_wall, _clean = supervised_wall()
        crash_wall, crash = supervised_wall(
            WorkerFaults(crash_units={"u005"}))
        return clean_wall, crash_wall, crash

    clean_wall, crash_wall, crash = benchmark.pedantic(
        run, rounds=1, iterations=1)
    assert crash.retries >= 1
    overhead = crash_wall / clean_wall if clean_wall else float("inf")

    print_table(
        "R1a: 1-crash recovery overhead (40 units, jobs=4)",
        ["build", "wall_s", "retries"],
        [["clean", f"{clean_wall:.3f}", 0],
         ["1 crash", f"{crash_wall:.3f}", crash.retries],
         ["overhead", f"{overhead:.2f}x", ""]],
    )
    payload = {
        "clean_wall_seconds": round(clean_wall, 4),
        "crash_wall_seconds": round(crash_wall, 4),
        "overhead_ratio": round(overhead, 3),
        "retries": crash.retries,
        "units": len(SHAPE),
        "jobs": 4,
    }
    benchmark.extra_info["recovery"] = payload
    _merge_out("recovery", payload)


def test_schedule_search_state_count(benchmark):
    """Bounded exhaustive search: schedules explored, states realized,
    every one of them converging to a healthy store holding every
    unit."""
    import tempfile

    shape = diamond(2, 1)
    workload_a = generate_workload(shape, helpers_per_unit=1)
    builder_a = CutoffBuilder(workload_a.project)
    builder_a.build()
    workload_b = generate_workload(shape, helpers_per_unit=1)
    workload_b.edit_implementation("u001")
    builder_b = CutoffBuilder(workload_b.project)
    builder_b.build()
    records_a = [builder_a.store.get(n) for n in builder_a.store.names()]
    records_b = [builder_b.store.get(n) for n in builder_b.store.names()]
    units = sorted(builder_b.units)
    base = tempfile.mkdtemp(prefix="benchsched-")

    def run_one(schedule):
        drv = TwoWriterInterleaver(schedule, mutations_only=True)
        store_a, store_b = BinStore(fs=drv.fs("A")), BinStore(fs=drv.fs("B"))
        for rec in records_a:
            store_a.put(rec)
        for rec in records_b:
            store_b.put(rec)
        store_dir = os.path.join(base, schedule)
        drv.run(lambda: store_a.save_directory(store_dir),
                lambda: store_b.save_directory(store_dir))
        fsck = BinStore.fsck(store_dir)
        assert fsck.ok, schedule
        assert fsck.loaded == units, schedule
        return drv

    def run():
        return search_schedules(bounded_schedules(SEARCH_DEPTH), run_one)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.ok, [f.schedule for f in report.failures]
    assert report.explored == 2 ** SEARCH_DEPTH >= 100

    print_table(
        "R1b: bounded exhaustive schedule search (2 writers' saves)",
        ["depth", "schedules", "states", "verdict"],
        [[SEARCH_DEPTH, report.explored, report.states,
          "all converged" if report.ok else "FAILED"]],
    )
    payload = {
        "depth": SEARCH_DEPTH,
        "schedules_explored": report.explored,
        "states_realized": report.states,
        "all_converged": report.ok,
    }
    benchmark.extra_info["schedule_search"] = payload
    _merge_out("schedule_search", payload)


def _merge_out(key, payload):
    """Both tests write one file; merge so either order works."""
    data = {"schema": "bench-supervision/1"}
    if os.path.exists(OUT):
        try:
            with open(OUT, encoding="utf-8") as fh:
                data.update(json.load(fh))
        except (OSError, ValueError):
            pass
    data[key] = payload
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
