"""``python -m bench [--workload W] --seed N [--seconds S] [--trace 0|1]``

Runs one workload (or all three), prints every metric by name with its
unit, and ends standard output with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics with ``--trace``.
``--out FILE`` appends the full run record (per-kind latencies, sample
counts, host facts) to a JSON list that ``python -m bench.compare``
reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import time

from bench import SRC, WORK

#: Priming sessions per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A traced request whose unattributed time exceeds this share of its
#: wall time is reported.
UNATTRIBUTED_WARN = 0.10


def _host() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    """One run of one workload; returns its results record."""
    # Imported here, not at the top: they import repro, which is only on
    # the path once main() has checked that src/ exists.
    from bench import calibrate, metrics, stats, workloads

    workdir = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ledger = workloads.Ledger()
    workload = workloads.WORKLOADS[name](workdir, ledger)
    calibration = calibrate.Calibration()
    record = {"workload": name, "seed": seed, "trace": trace,
              "seconds": seconds, "measured_seconds": 0.0, "host": _host()}
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    try:
        if trace:
            samples = _traced(workload, seed, seconds, calibration, values,
                              record)
        else:
            samples = _untraced(workload, seed, seconds, calibration, values,
                                counts, record)
    finally:
        workload.shutdown()
        shutil.rmtree(workdir, ignore_errors=True)

    walls = _finite([s.wall for s in samples])
    values["request_p50_s"] = values["request_p50_wall_s"] = \
        stats.median(walls or [0.0])
    counts["request_p50_s"] = counts["request_p50_wall_s"] = len(walls)
    for kind in sorted({s.kind for s in samples}):
        kind_walls = _finite([s.wall for s in samples if s.kind == kind])
        values[metrics.KIND_METRIC[kind]] = stats.median(kind_walls or [0.0])
        counts[metrics.KIND_METRIC[kind]] = len(kind_walls)
    tail = stats.tail_percentile(len(walls))
    if tail is not None:
        values[f"request_p{tail}_s"] = stats.percentile(walls, tail)
        counts[f"request_p{tail}_s"] = len(walls)
    # Every time at the reference host speed, raw walls kept alongside.
    scale = calibration.scale()
    values = _scaled(values, scale)
    if "layers_by_kind" in record:
        record["layers_by_kind"] = {
            kind: _scaled(by_kind, scale)
            for kind, by_kind in record["layers_by_kind"].items()}
    # Over the first request of each kind: every run gets that far, so
    # the count is the same on every run of one seed.
    first: dict[str, int] = {}
    for s in samples:
        first.setdefault(s.kind, s.compiled)
    values["units_compiled"] = sum(first.values())
    values["failed_ratio"] = ledger.failed / max(1, ledger.attempted)

    unit_of = metrics.units(spec)
    record["pools"] = sorted({s.pool for s in samples if s.pool})
    record["calibration"] = {
        "reference_s": calibrate.REFERENCE_S, "scale": scale,
        "probe_s": stats.quartiles(calibration.probes),
        "probes": len(calibration.probes)}
    record["metrics"] = {
        name: {"value": value, "unit": unit_of[name],
               **({"samples": counts[name]} if name in counts else {})}
        for name, value in values.items()}
    record.update(attempted=ledger.attempted, failed=ledger.failed,
                  errors=ledger.errors)
    return record


def _untraced(workload, seed, seconds, calibration, values, counts,
              record):
    """Prime three times, measure on the last session, check it."""
    from bench import stats, workloads

    setup = []
    session = None
    for _ in range(SETUPS):
        if session is not None:
            workloads.close_and_clean(workload, session)
        calibration.probe()
        started = time.perf_counter()
        session = workload.prime(seed, traced=False)
        setup.append(time.perf_counter() - started)
        calibration.probe()
    values["setup_s"] = values["setup_wall_s"] = stats.median(setup)
    counts["setup_s"] = counts["setup_wall_s"] = len(setup)
    started = time.perf_counter()
    samples = workloads.measure(workload, session, workload.requests(seed),
                                seconds, calibration)
    record["measured_seconds"] = time.perf_counter() - started
    values["peak_rss_mb"] = workload.peak_rss_mb(session, samples)
    workload.close(session)
    values["store_bytes"] = workload.store_bytes(session)
    workload.verify(session)
    return samples


def _traced(workload, seed, seconds, calibration, values, record):
    """Measure half the seconds untraced, replay the same requests on an
    identically primed session through the shim, check that one."""
    from bench import layers, stats, workloads

    session = workload.prime(seed, traced=False)
    started = time.perf_counter()
    untraced = workloads.measure(workload, session, workload.requests(seed),
                                 seconds / 2, calibration)
    record["measured_seconds"] = time.perf_counter() - started
    workloads.close_and_clean(workload, session)
    session = workload.prime(seed, traced=True)
    started = time.perf_counter()
    samples = workloads.measure(workload, session,
                                [(s.kind, s.unit) for s in untraced], 0,
                                calibration)
    record["measured_seconds"] += time.perf_counter() - started
    workload.close(session)
    workload.layers(session, samples)
    workload.check_sites(session)
    workload.verify(session)

    traced = [s for s in samples if s.layers is not None]
    values.update(layers.summarize([s.layers for s in traced]))
    base = _finite([s.wall for s in untraced])
    values["bench.trace_overhead_ratio"] = (
        stats.median(_finite([s.wall for s in samples]) or [0.0])
        / stats.median(base) - 1.0) if base else 0.0
    record["layers_by_kind"] = {
        kind: layers.summarize([s.layers for s in traced if s.kind == kind])
        for kind in sorted({s.kind for s in traced})}
    for s in traced:
        share = s.layers["bench.unattributed_s"] / s.wall
        if share > UNATTRIBUTED_WARN:
            print(f"warning: {workload.name} {s.kind} request: "
                  f"{share:.0%} of {s.wall:.3f}s unattributed",
                  file=sys.stderr)
    return samples


def _scaled(values: dict[str, float], scale: float) -> dict[str, float]:
    """Times (``*_s``, except raw ``*_wall_s``) times ``scale``."""
    return {name: value * scale
            if name.endswith("_s") and not name.endswith("_wall_s")
            else value for name, value in values.items()}


def _finite(values: list[float]) -> list[float]:
    """Latencies of requests that got a reply (a timed-out daemon
    request has none)."""
    return [v for v in values if math.isfinite(v)]


def _print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  "
          f"{record['measured_seconds']:.1f}s measured  "
          f"pools {','.join(record['pools']) or '-'}")
    for name, metric in record["metrics"].items():
        samples = metric.get("samples")
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']:6s}"
              + (f"  n={samples}" if samples else ""))
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def _append(path: str, records: list[dict]) -> None:
    existing = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(existing + records, fh, indent=1)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", action="append",
                        choices=["cli-session", "daemon-session",
                                 "cold-parallel"],
                        help="run this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="report per-layer metrics from a traced "
                             "replay instead of the end-to-end metrics")
    parser.add_argument("--out", metavar="FILE",
                        help="append the full run records to this JSON "
                             "list (input of python -m bench.compare)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no system under test at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bench.metrics import load_spec

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    records = [run_workload(name, args.seed, seconds, bool(args.trace),
                            spec) for name in names]
    for record in records:
        _print_record(record)
    if args.out:
        _append(args.out, records)

    reported = [m["name"]
                for m in spec["per_layer" if args.trace else "end_to_end"]]
    prefix = len(records) > 1
    result = {
        "correct": all(not r["failed"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name):
                {"value": r["metrics"][name]["value"],
                 "unit": r["metrics"][name]["unit"]}
            for r in records for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
