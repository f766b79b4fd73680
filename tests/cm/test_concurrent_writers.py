"""Concurrent-writer store safety (tier 1).

PR 2 made the bin store crash-safe against a *dying* writer.  This
suite covers the other half: two *live* writers racing on one store
directory.  The deterministic :class:`TwoWriterInterleaver` replays
exact filesystem interleavings (no sleeps, no flaky timing), and the
claims under test are the save invariants:

- any interleaving of two saves leaves a store that fsck calls
  healthy -- no ``CorruptRecord``, no mixed header/payload pair;
- the store lock admits one writer at a time, so the surviving store
  is exactly the last complete save, and a follow-up build pays at
  most redundant recompiles, never corruption;
- a live-but-slow writer (SlowFS) keeps its lock: the stale-lock
  breaker tests liveness, not patience.
"""

import os
import threading
import time

import pytest

from repro.cm import (
    BinStore,
    CutoffBuilder,
    StoreLockedError,
)
from repro.cm.faults import SlowFS, TwoWriterInterleaver, plant_stale_lock
from repro.cm.store import LOCK_NAME, StoreLock
from repro.workload import diamond, generate_workload

SHAPE = diamond(2, 1)  # u000 base, u001+u002 layer, u003 top


def built_store(fs=None, edit=None):
    """A freshly built in-memory store (not yet saved anywhere)."""
    workload = generate_workload(SHAPE, helpers_per_unit=1)
    if edit is not None:
        method, unit = edit
        getattr(workload, method)(unit)
    builder = CutoffBuilder(workload.project,
                            store=BinStore(fs=fs) if fs else BinStore())
    builder.build()
    return workload, builder


SCHEDULES = {
    "strict-alternation": "AB" * 80,
    "pairs": "AABB" * 40,
    "palindrome": "ABBA" * 40,
    "a-head-start": "A" * 5 + "B" * 150,
    "b-first": "BA" * 80,
}


class TestInterleavedMergeSaves:
    """Two writers' plain saves racing on one store directory."""

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES),
                             ids=sorted(SCHEDULES))
    def test_any_interleaving_converges_healthy(self, tmp_path, schedule):
        store_dir = str(tmp_path / "store")
        drv = TwoWriterInterleaver(SCHEDULES[schedule])
        _wl_a, builder_a = built_store(fs=drv.fs("A"))
        workload_b, builder_b = built_store(
            fs=drv.fs("B"), edit=("edit_implementation", "u001"))

        stats_a, stats_b = drv.run(
            lambda: builder_a.store.save_directory(store_dir),
            lambda: builder_b.store.save_directory(store_dir))

        # Both writers really wrote, and the schedule really interleaved.
        assert stats_a.records_written == len(SHAPE)
        assert stats_b.records_written == len(SHAPE)
        assert {"A", "B"} <= set(drv.trace)

        # The store is healthy: every surviving header+payload pair is
        # internally consistent (a mixed pair would fail its
        # whole-record digest and show up as CorruptRecord).
        report = BinStore.fsck(store_dir)
        assert report.ok, report.render_text()
        loaded = BinStore.load_directory(store_dir)
        assert not loaded.health.corrupt
        assert sorted(loaded.names()) == sorted(builder_b.units)
        # The last complete save wins whole: every record comes from
        # one writer (A and B differ in u001's source).
        def digests(store):
            return {n: store.get(n).source_digest for n in store.names()}

        assert digests(loaded) in (digests(builder_a.store),
                                   digests(builder_b.store))
        assert digests(builder_a.store) != digests(builder_b.store)

        # Convergence: a fresh session over the raced store pays at
        # most redundant recompiles (A-version records for B's edited
        # cascade), never a failure, and lands on B's pids.
        rebuild = CutoffBuilder(workload_b.project, store=loaded)
        report_b = rebuild.build()
        assert all(o.action in ("cached", "loaded", "compiled")
                   for o in report_b.outcomes)
        assert ({n: u.export_pid for n, u in rebuild.units.items()}
                == {n: u.export_pid for n, u in builder_b.units.items()})


class TestSlowWriterKeepsItsLock:
    """The stale-lock breaker's litmus test: *slow* is not *dead*."""

    def _slow_save(self, store_dir, write_delay=0.05):
        """Start an exclusive save through SlowFS in a thread; return
        (thread, results dict) once the store lock is on disk."""
        first_stall = threading.Event()

        def sleep(delay):
            first_stall.set()
            time.sleep(delay)

        slow_fs = SlowFS(write_delay=write_delay, sleep=sleep)
        _wl, builder = built_store(fs=slow_fs)
        results = {}

        def save():
            results["stats"] = builder.store.save_directory(store_dir)

        thread = threading.Thread(target=save)
        thread.start()
        assert first_stall.wait(5.0)
        lock_path = os.path.join(store_dir, LOCK_NAME)
        deadline = time.monotonic() + 5.0
        while not os.path.exists(lock_path):
            assert time.monotonic() < deadline, "lock never appeared"
            time.sleep(0.001)
        return thread, results

    def test_live_slow_writers_lock_is_never_broken(self, tmp_path):
        store_dir = str(tmp_path / "store")
        _wl, other = built_store()  # built up front: contending must
        thread, results = self._slow_save(store_dir)  # beat the save
        try:
            # A reader arriving mid-save times out and degrades to a
            # lockless read -- it must NOT break the live lock.
            contender = StoreLock(store_dir, timeout=0.1)
            assert contender.acquire(required=False) is False
            assert any("reading without the lock" in n
                       for n in contender.notes)
            assert not any("broke stale" in n for n in contender.notes)

            # A second writer gets a clean StoreLockedError, not a
            # broken lock.
            with pytest.raises(StoreLockedError):
                other.store.save_directory(store_dir, lock_timeout=0.1)
        finally:
            thread.join()

        # The slow writer finished undisturbed: full save, healthy
        # store, lock released.
        assert results["stats"].records_written == len(SHAPE)
        assert BinStore.fsck(store_dir).ok
        assert not os.path.exists(os.path.join(store_dir, LOCK_NAME))

    def test_dead_owner_is_still_broken_even_when_reads_are_slow(
            self, tmp_path):
        """The contrast case: liveness, not latency, is the criterion."""
        store_dir = str(tmp_path / "store")
        _wl, builder = built_store()
        builder.store.save_directory(store_dir)
        plant_stale_lock(store_dir, pid=-1)
        loaded = BinStore.load_directory(
            store_dir, fs=SlowFS(read_delay=0.001))
        assert loaded.health.ok
        assert any("broke stale" in n for n in loaded.health.notes)
