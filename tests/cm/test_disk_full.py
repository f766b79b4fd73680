"""The disk-full fault matrix (tier 1).

The contract under test: **running out of disk can never corrupt the
store.**  An ENOSPC injected at *every* write a save performs (the
disk-full sibling of the PR-2 crash matrix) must either abort the save
cleanly (:class:`StoreFullError`, old records intact, tmp debris
swept) or leave damage the next load quarantines -- and a fresh
session must always converge to byte-identical export pids.  Short
writes -- the disk *lied* -- are caught by the checksums.  The
quarantine-aside path is itself hardened: a move that fails mid-pair
rolls back (never a half-moved record) and degrades to the in-memory
miss the damage already was.
"""

import errno
import os

import pytest

from repro.cm import (
    BinStore,
    CutoffBuilder,
    Project,
    StoreFullError,
)
from repro.cm.faults import REAL_FS, FaultPlan, FaultyFS, FileSystem
from repro.cm.store import QUARANTINE_DIR, TMP_SUFFIX, escape_name

SOURCES = {
    "base": "structure Base = struct fun triple x = 3 * x end",
    "mid": "structure Mid = struct fun six x = Base.triple (2 * x) end",
    "app": "structure App = struct val answer = Mid.six 7 end",
}

ANSWER = 42


@pytest.fixture(scope="module")
def clean_pids():
    builder = CutoffBuilder(Project.from_sources(SOURCES))
    builder.build()
    return {name: unit.export_pid for name, unit in builder.units.items()}


def build_and_save(bin_dir, fs):
    """One session building SOURCES and saving through ``fs``."""
    builder = CutoffBuilder(Project.from_sources(SOURCES),
                            store=BinStore(fs=fs))
    builder.build()
    return builder, builder.store.save_directory(bin_dir)


def recover(bin_dir, clean_pids):
    """A fresh session over whatever the fault left: must not raise,
    must converge to the clean pids and the right program, and must
    leave a store fsck calls healthy."""
    store = BinStore.load_directory(bin_dir)  # never raises
    builder = CutoffBuilder(Project.from_sources(SOURCES), store=store)
    builder.build()
    exports = builder.link()
    assert exports["app"].structures["App"].values["answer"] == ANSWER
    for name, pid in clean_pids.items():
        assert builder.units[name].export_pid == pid, name
    builder.store.save_directory(bin_dir)
    assert BinStore.fsck(bin_dir).ok
    return builder


def writes_per_save(tmp_path):
    """How many ``write_bytes`` calls one full save performs."""
    fs = FaultyFS(FaultPlan())
    build_and_save(str(tmp_path / "count"), fs)
    return fs.writes


class TestEnospcMatrix:
    def test_enospc_at_every_write(self, tmp_path, clean_pids):
        """Sweep a hard ENOSPC over every write of the save."""
        total = writes_per_save(tmp_path)
        assert total >= 7  # 3 records x (payload + header) + manifest
        for index in range(total):
            bin_dir = str(tmp_path / f"enospc{index}")
            fs = FaultyFS(FaultPlan(enospc_at_write=index))
            with pytest.raises(StoreFullError):
                build_and_save(bin_dir, fs)
            assert fs.disk_full  # the latch: the disk *stays* full
            # No half-written tmp debris survives the clean abort.
            leftovers = [e for e in os.listdir(bin_dir)
                         if e.endswith(TMP_SUFFIX)]
            assert leftovers == [], leftovers
            recover(bin_dir, clean_pids)

    def test_byte_budget_exhaustion(self, tmp_path, clean_pids):
        """The other ENOSPC shape: the disk fills after N bytes."""
        bin_dir = str(tmp_path / "budget")
        fs = FaultyFS(FaultPlan(byte_budget=600))
        with pytest.raises(StoreFullError):
            build_and_save(bin_dir, fs)
        recover(bin_dir, clean_pids)

    def test_enospc_preserves_previous_save(self, tmp_path, clean_pids):
        """A full disk during an *incremental* save leaves the prior
        generation fully readable (old records, old manifest)."""
        bin_dir = str(tmp_path / "stale")
        build_and_save(bin_dir, REAL_FS)
        before = BinStore.load_directory(bin_dir)
        assert before.health.ok

        project = Project.from_sources(SOURCES)
        project.edit("base",
                     "structure Base = struct fun triple x = x * 3 end")
        store = BinStore.load_directory(
            bin_dir, fs=FaultyFS(FaultPlan(enospc_at_write=0)))
        builder = CutoffBuilder(project, store=store)
        builder.build()
        with pytest.raises(StoreFullError):
            builder.store.save_directory(bin_dir)
        # The dirty set is untouched: a later save (disk freed) works.
        after = BinStore.load_directory(bin_dir)
        assert after.health.ok
        assert sorted(after.names()) == sorted(before.names())
        recover(bin_dir, clean_pids)


class TestShortWriteMatrix:
    def test_short_write_at_every_write(self, tmp_path, clean_pids):
        """The disk lied: a write 'succeeds' but lands only half the
        bytes.  The save cannot see it -- the *checksums* catch it at
        the next load, as quarantined damage, never a corrupt load."""
        total = writes_per_save(tmp_path)
        for index in range(total):
            bin_dir = str(tmp_path / f"short{index}")
            fs = FaultyFS(FaultPlan(short_write_at=index))
            build_and_save(bin_dir, fs)  # the lie: no error here
            store = BinStore.load_directory(bin_dir)
            # Damage is either quarantined or (manifest short-write)
            # reported as bad-manifest; in every case the session
            # converges.
            recover(bin_dir, clean_pids)


class TestCheckpointUnderDiskFull:
    def test_supervised_checkpoint_survives_enospc(self, tmp_path):
        """A full disk during a supervised build's per-wave checkpoint
        costs resumability, never the build."""
        from repro.cm import SupervisePolicy, Supervisor
        from repro.workload import generate_workload

        bin_dir = str(tmp_path / "bin")
        workload = generate_workload([[], [0], [1]], helpers_per_unit=1)
        fs = FaultyFS(FaultPlan(enospc_at_write=2))
        builder = CutoffBuilder(workload.project,
                                store=BinStore(fs=fs))
        report = Supervisor(jobs=2, policy=SupervisePolicy(),
                            checkpoint_dir=bin_dir).build(builder)
        assert not report.failed and not report.skipped
        assert len(report.compiled) == 3
        assert any("checkpoint" in note
                   for note in builder.health.notes)


class _QuarantineMoveFails(FileSystem):
    """Fails the Nth replace whose destination is the quarantine
    directory (the disk-full shape for the quarantine-aside path)."""

    def __init__(self, fail_indices):
        self.fail_indices = set(fail_indices)
        self.calls = 0

    def replace(self, src: str, dst: str) -> None:
        if os.sep + QUARANTINE_DIR + os.sep in dst:
            index = self.calls
            self.calls += 1
            if index in self.fail_indices:
                raise OSError(errno.ENOSPC,
                              f"no space left (injected): {dst}")
        super().replace(src, dst)


class TestQuarantineAside:
    def damaged_store(self, tmp_path):
        from repro.cm.faults import garbage_header, header_path

        bin_dir = str(tmp_path / "bin")
        build_and_save(bin_dir, REAL_FS)
        garbage_header(header_path(bin_dir, "mid"))
        return bin_dir

    def test_quarantine_moves_damage_aside(self, tmp_path):
        bin_dir = self.damaged_store(tmp_path)
        store = BinStore.load_directory(bin_dir, quarantine=True)
        assert "mid" not in store  # the miss is unchanged
        stem = escape_name("mid")
        qdir = os.path.join(bin_dir, QUARANTINE_DIR)
        moved = sorted(os.listdir(qdir))
        assert any(e.startswith(stem) for e in moved)
        assert not any(e.startswith(stem) for e in os.listdir(bin_dir)
                       if e != QUARANTINE_DIR)
        # The manifest was healed: the next plain load is healthy.
        again = BinStore.load_directory(bin_dir)
        assert again.health.ok, again.health.render_text()
        assert sorted(again.names()) == ["app", "base"]

    def test_fsck_quarantine_flag(self, tmp_path):
        bin_dir = self.damaged_store(tmp_path)
        assert not BinStore.fsck(bin_dir, quarantine=True).ok
        assert BinStore.fsck(bin_dir).ok  # damage is gone now

    def test_failed_move_degrades_to_in_memory_miss(self, tmp_path):
        """Disk full on the *first* file of the pair: nothing moves,
        nothing raises, the unit stays a plain miss."""
        bin_dir = self.damaged_store(tmp_path)
        fs = _QuarantineMoveFails({0})
        store = BinStore.load_directory(bin_dir, fs=fs, quarantine=True)
        assert "mid" not in store
        assert any("quarantine-aside failed" in note
                   for note in store.health.notes)
        stem = escape_name("mid")
        # Both files are exactly where they were: no half-move.
        survivors = [e for e in os.listdir(bin_dir)
                     if e.startswith(stem)]
        assert len(survivors) == 2, survivors
        # And the next session still just recompiles the miss.
        builder = CutoffBuilder(Project.from_sources(SOURCES),
                                store=BinStore.load_directory(bin_dir))
        report = builder.build()
        assert "mid" in report.compiled

    def test_failed_move_rolls_back_the_moved_half(self, tmp_path):
        """Disk full on the *second* file of the pair: the first is
        rolled back -- a record pair is never split across
        directories."""
        bin_dir = self.damaged_store(tmp_path)
        fs = _QuarantineMoveFails({1})
        store = BinStore.load_directory(bin_dir, fs=fs, quarantine=True)
        assert "mid" not in store
        stem = escape_name("mid")
        survivors = [e for e in os.listdir(bin_dir)
                     if e.startswith(stem)]
        assert len(survivors) == 2, survivors
        qdir = os.path.join(bin_dir, QUARANTINE_DIR)
        if os.path.isdir(qdir):
            assert not any(e.startswith(stem)
                           for e in os.listdir(qdir))
