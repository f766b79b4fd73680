"""Experiment R3 -- what a shared remote bin cache buys a fleet.

N editing clients share one remote store server, each fronting it with
its own write-through local cache.  One client pays the cold
from-scratch build; everyone after that should *fetch* records instead
of recompiling them, and a client's second session should not even
touch the wire.  Persisted as ``BENCH_remote_store.json``:

- **hit rates**: fraction of units satisfied from the store (server
  fetch or local cache) rather than recompiled -- for a brand-new
  client, for a warm-cache client, and for a client that just edited a
  unit.  These are deterministic record counts and are gated (> 0.9
  warm); wall-clock ratios are machine-dependent and are reported
  without a CI gate.
- **bytes transferred**: the server's wire counters (compressed
  frames), split in/out, plus fetch/hit counts per phase.
- **cold vs warm wall time**: the from-scratch build against a fresh
  client's fetch-everything session and a warm client's no-op.
"""

import json
import os
import shutil
import tempfile
import time

from repro.cm import BinStore, CutoffBuilder, StoreServer
from repro.cm.remote import LoopbackTransport, RemoteBackend
from repro.workload import fanout, generate_workload

from .conftest import print_table

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(REPO, "BENCH_remote_store.json")

SHAPE = fanout(22)  # 24 units: 1 base, 22 middles, 1 top
CLIENTS = 4
URL = "rbs://bench.fleet"


def fresh_project(edit=None):
    workload = generate_workload(SHAPE, helpers_per_unit=2)
    if edit:
        workload.edit_implementation(edit)
    return workload.project


def client_session(server, base, cid, edit=None):
    """One client session: load via the remote backend, build, save.
    Returns (report, backend, wall_seconds)."""
    cache = os.path.join(base, f"client{cid}", ".bin")
    backend = RemoteBackend(URL, cache, LoopbackTransport(server))
    project = fresh_project(edit)
    t0 = time.perf_counter()
    store = BinStore.load_directory(cache, backend=backend)
    builder = CutoffBuilder(project, store=store)
    report = builder.build()
    store.save_directory(cache)
    wall = time.perf_counter() - t0
    return report, backend, wall


def hit_rate(report):
    total = len(report.loaded) + len(report.compiled)
    return len(report.loaded) / total if total else 0.0


def test_fleet_sharing_one_remote_store(benchmark):
    base = tempfile.mkdtemp(prefix="bench-remote-")

    def run():
        server = StoreServer(os.path.join(base, "server"))
        units = len(SHAPE)

        # Phase 1: one client pays the cold build and seeds the server.
        report, _backend, cold_wall = client_session(server, base, 0)
        assert len(report.compiled) == units
        seed_bytes_out = server.bytes_out

        # Phase 2: every other client's first session fetches, never
        # compiles.
        first_walls, first_rates, first_fetches = [], [], 0
        for cid in range(1, CLIENTS):
            report, backend, wall = client_session(server, base, cid)
            assert report.compiled == []
            first_walls.append(wall)
            first_rates.append(hit_rate(report))
            first_fetches += backend.remote_fetches

        # Phase 3: the same clients again -- warm caches, no wire
        # fetches at all.
        second_walls, second_rates = [], []
        for cid in range(1, CLIENTS):
            report, backend, wall = client_session(server, base, cid)
            assert report.compiled == []
            assert backend.remote_fetches == 0
            second_walls.append(wall)
            second_rates.append(hit_rate(report))

        # Phase 4: every client edits its own unit
        # (interface-preserving) and saves; the cutoff keeps the
        # recompile to the edited unit, everything else is a hit.
        edit_rates = []
        for cid in range(1, CLIENTS):
            report, backend, _wall = client_session(
                server, base, cid, edit=f"u{cid:03d}")
            assert len(report.compiled) >= 1
            edit_rates.append(hit_rate(report))

        return {
            "units": units,
            "clients": CLIENTS,
            "cold_wall_s": cold_wall,
            "warm_first_wall_s": min(first_walls),
            "warm_second_wall_s": min(second_walls),
            "warm_first_hit_rate": min(first_rates),
            "warm_second_hit_rate": min(second_rates),
            "edit_hit_rate": min(edit_rates),
            "remote_fetches_first_sessions": first_fetches,
            "server_requests": server.requests,
            "server_bytes_in": server.bytes_in,
            "server_bytes_out": server.bytes_out,
            "seed_bytes_out": seed_bytes_out,
        }

    try:
        result = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    # The deterministic gates: a warm client is a cache, not a compiler.
    assert result["warm_first_hit_rate"] > 0.9
    assert result["warm_second_hit_rate"] > 0.9
    assert result["edit_hit_rate"] > 0.9

    speedup = (result["cold_wall_s"] / result["warm_first_wall_s"]
               if result["warm_first_wall_s"] else float("inf"))
    print_table(
        f"R3: {CLIENTS} clients sharing one remote store "
        f"({result['units']} units)",
        ["metric", "value"],
        [["cold build (s)", f"{result['cold_wall_s']:.3f}"],
         ["warm fetch-all session (s)",
          f"{result['warm_first_wall_s']:.3f}"],
         ["warm cached session (s)",
          f"{result['warm_second_wall_s']:.3f}"],
         ["cold/warm ratio (no gate)", f"{speedup:.1f}x"],
         ["hit rate, first warm session",
          f"{result['warm_first_hit_rate']:.3f}"],
         ["hit rate, second session",
          f"{result['warm_second_hit_rate']:.3f}"],
         ["hit rate, after one edit", f"{result['edit_hit_rate']:.3f}"],
         ["server bytes out", result["server_bytes_out"]],
         ["server bytes in", result["server_bytes_in"]],
         ["server requests", result["server_requests"]]],
    )

    payload = {"schema": "bench-remote-store/1", "fleet": {
        key: (round(value, 6) if isinstance(value, float) else value)
        for key, value in result.items()
    }}
    benchmark.extra_info["fleet"] = payload["fleet"]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
