"""Store integrity, incremental saves, locking, and safe filenames."""

import json
import os

import pytest

from repro.cm import BinRecord, BinStore, CutoffBuilder, Project
from repro.cm.faults import (
    bit_flip,
    delete_file,
    garbage_header,
    header_path,
    payload_path,
    plant_stale_lock,
    truncate_file,
)
from repro.cm.store import (
    FORMAT_VERSION,
    HEADER_SUFFIX,
    LOCK_NAME,
    MANIFEST_NAME,
    PAYLOAD_SUFFIX,
    StoreLockedError,
    escape_name,
    unescape_name,
)

SOURCES = {
    "base": "structure Base = struct fun triple x = 3 * x end",
    "mid": "structure Mid = struct fun six x = Base.triple (2 * x) end",
    "app": "structure App = struct val answer = Mid.six 7 end",
}


@pytest.fixture
def saved(tmp_path):
    """A built project saved to disk; returns (project, bin_dir)."""
    project = Project.from_sources(SOURCES)
    builder = CutoffBuilder(project)
    builder.build()
    bin_dir = str(tmp_path / "bins")
    builder.store.save_directory(bin_dir)
    return project, bin_dir


def rebuild(project, bin_dir):
    """A fresh session over the on-disk store; returns the builder and
    its build report."""
    store = BinStore.load_directory(bin_dir)
    builder = CutoffBuilder(project, store=store)
    return builder, builder.build()


class TestDamageTaxonomy:
    def test_orphaned_header_is_cache_miss_not_crash(self, saved):
        project, bin_dir = saved
        delete_file(payload_path(bin_dir, "mid"))
        builder, report = rebuild(project, bin_dir)  # no FileNotFoundError
        assert "mid" in report.compiled
        assert builder.health.kinds_for("mid") == ["orphaned-header"]
        assert not builder.health.ok

    def test_orphaned_payload_reported(self, saved):
        project, bin_dir = saved
        delete_file(header_path(bin_dir, "mid"))
        builder, report = rebuild(project, bin_dir)
        assert "mid" in report.compiled
        assert "orphaned-payload" in builder.health.kinds_for("mid")

    def test_garbage_header_json(self, saved):
        project, bin_dir = saved
        garbage_header(header_path(bin_dir, "mid"))
        builder, report = rebuild(project, bin_dir)
        assert "mid" in report.compiled
        assert "bad-header-json" in builder.health.kinds_for("mid")

    def test_payload_bit_flip_caught_by_checksum(self, saved):
        project, bin_dir = saved
        bit_flip(payload_path(bin_dir, "mid"), offset=5)
        builder, report = rebuild(project, bin_dir)
        assert "mid" in report.compiled
        assert "payload-checksum-mismatch" in builder.health.kinds_for("mid")

    def test_payload_truncation_caught_by_checksum(self, saved):
        project, bin_dir = saved
        truncate_file(payload_path(bin_dir, "mid"))
        builder, _report = rebuild(project, bin_dir)
        assert "payload-checksum-mismatch" in builder.health.kinds_for("mid")

    def test_header_tamper_caught_by_record_digest(self, saved):
        project, bin_dir = saved
        path = header_path(bin_dir, "mid")
        with open(path) as f:
            header = json.load(f)
        header["export_pid"] = "0" * 32  # forge the pid, keep valid JSON
        with open(path, "w") as f:
            json.dump(header, f)
        builder, report = rebuild(project, bin_dir)
        assert "mid" in report.compiled
        assert "record-digest-mismatch" in builder.health.kinds_for("mid")

    def test_header_truncation(self, saved):
        project, bin_dir = saved
        truncate_file(header_path(bin_dir, "mid"))
        builder, _report = rebuild(project, bin_dir)
        assert "bad-header-json" in builder.health.kinds_for("mid")

    def test_stale_format_skipped_not_corrupt(self, saved):
        project, bin_dir = saved
        path = header_path(bin_dir, "mid")
        with open(path) as f:
            header = json.load(f)
        # A version no COMPAT_FORMATS entry covers.
        header["format"] = 2
        with open(path, "w") as f:
            json.dump(header, f)
        store = BinStore.load_directory(bin_dir)
        assert store.health.ok  # version skew is not damage
        assert "mid" in store.health.stale
        assert store.get("mid") is None

    def test_missing_record_detected_via_manifest(self, saved):
        project, bin_dir = saved
        delete_file(header_path(bin_dir, "mid"))
        delete_file(payload_path(bin_dir, "mid"))
        builder, report = rebuild(project, bin_dir)
        assert "mid" in report.compiled
        assert "missing-record" in builder.health.kinds_for("mid")

    def test_copied_record_under_wrong_name_rejected(self, saved):
        import shutil

        project, bin_dir = saved
        shutil.copy(header_path(bin_dir, "mid"), header_path(bin_dir, "zzz"))
        shutil.copy(payload_path(bin_dir, "mid"), payload_path(bin_dir, "zzz"))
        store = BinStore.load_directory(bin_dir)
        assert store.get("zzz") is None
        assert any(c.kind == "name-mismatch" for c in store.health.corrupt)

    def test_every_fault_still_converges(self, saved):
        project, bin_dir = saved
        bit_flip(payload_path(bin_dir, "base"), offset=3)
        garbage_header(header_path(bin_dir, "mid"))
        delete_file(payload_path(bin_dir, "app"))
        builder, report = rebuild(project, bin_dir)
        assert set(report.compiled) == {"base", "mid", "app"}
        exports = builder.link()
        assert exports["app"].structures["App"].values["answer"] == 42


class TestFsck:
    def test_healthy(self, saved):
        _project, bin_dir = saved
        report = BinStore.fsck(bin_dir)
        assert report.ok
        assert report.loaded == ["app", "base", "mid"]
        assert "HEALTHY" in report.render_text()

    def test_damaged(self, saved):
        _project, bin_dir = saved
        bit_flip(payload_path(bin_dir, "base"), offset=1)
        report = BinStore.fsck(bin_dir)
        assert not report.ok
        text = report.render_text()
        assert "DAMAGED" in text and "payload-checksum-mismatch" in text
        data = report.to_json()
        assert data["ok"] is False
        assert data["corrupt"][0]["name"] == "base"

    def test_missing_directory_is_empty_not_error(self, tmp_path):
        report = BinStore.fsck(str(tmp_path / "nowhere"))
        assert report.ok
        assert report.loaded == []


class TestIncrementalSave:
    def test_null_save_writes_nothing(self, saved):
        project, bin_dir = saved
        store = BinStore.load_directory(bin_dir)
        builder = CutoffBuilder(project, store=store)
        builder.build()
        stats = store.save_directory(bin_dir)
        assert stats.records_written == 0
        assert stats.bytes_written == 0
        assert stats.records_skipped == 3

    def test_single_edit_writes_single_record(self, saved):
        project, bin_dir = saved
        project.edit("app", SOURCES["app"].replace("7", "8"))
        store = BinStore.load_directory(bin_dir)
        builder = CutoffBuilder(project, store=store)
        report = builder.build()
        assert report.compiled == ["app"]
        stats = store.save_directory(bin_dir)
        assert stats.records_written == 1
        assert stats.bytes_written > 0

    def test_save_to_new_directory_is_full(self, saved, tmp_path):
        _project, bin_dir = saved
        store = BinStore.load_directory(bin_dir)
        stats = store.save_directory(str(tmp_path / "elsewhere"))
        assert stats.records_written == 3

    def test_removed_unit_pruned_from_disk(self, saved):
        project, bin_dir = saved
        store = BinStore.load_directory(bin_dir)
        store.remove("app")
        stats = store.save_directory(bin_dir)
        assert any(e.startswith("app.bin") for e in stats.pruned)
        assert not os.path.exists(header_path(bin_dir, "app"))
        assert not os.path.exists(payload_path(bin_dir, "app"))
        again = BinStore.load_directory(bin_dir)
        assert again.names() == ["base", "mid"]
        assert again.health.ok

    def test_unowned_record_pruned_from_disk(self, saved):
        """A record pair no unit owns is debris: the next save, even a
        null one, prunes it."""
        _project, bin_dir = saved
        store = BinStore.load_directory(bin_dir)
        stray = {"zzz" + HEADER_SUFFIX: b"{}", "zzz" + PAYLOAD_SUFFIX: b"x"}
        for entry, data in stray.items():
            with open(os.path.join(bin_dir, entry), "wb") as fh:
                fh.write(data)
        stats = store.save_directory(bin_dir)
        assert stats.records_written == 0
        assert set(stray) <= set(stats.pruned)
        assert not set(stray) & set(os.listdir(bin_dir))
        assert BinStore.fsck(bin_dir).ok

    def test_old_rlock_file_is_an_unrecognized_file(self, saved):
        """A ``.rlock`` left by an older checkout is just a file the
        store does not know: a load notes it, a save leaves it be."""
        _project, bin_dir = saved
        with open(os.path.join(bin_dir, "app.rlock"), "w") as fh:
            json.dump({"pid": -1}, fh)
        store = BinStore.load_directory(bin_dir)
        assert store.health.ok and store.names() == ["app", "base", "mid"]
        assert "ignoring unrecognized file app.rlock" in store.health.notes
        store.save_directory(bin_dir)
        assert os.path.exists(os.path.join(bin_dir, "app.rlock"))

    def test_corrupt_debris_pruned_on_save(self, saved):
        project, bin_dir = saved
        delete_file(header_path(bin_dir, "mid"))  # orphan the payload
        builder, _report = rebuild(project, bin_dir)
        builder.store.save_directory(bin_dir)
        report = BinStore.fsck(bin_dir)
        assert report.ok  # self-healed: recompiled + rewrote + pruned
        assert report.loaded == ["app", "base", "mid"]

    def test_dirty_names_tracked(self):
        store = BinStore()
        store.put(BinRecord("a", "d", "p", [], b"x"))
        assert store.dirty_names() == ["a"]


class TestSafeNames:
    def test_traversal_name_stays_inside_store(self, tmp_path):
        store_dir = tmp_path / "store"
        outside = tmp_path / "x.bin"
        store = BinStore()
        store.put(BinRecord("../x", "digest", "pid", [], b"payload"))
        store.save_directory(str(store_dir))
        assert not outside.exists()
        files = set(os.listdir(store_dir))
        assert files <= {escape_name("../x") + suffix
                         for suffix in (".bin", ".bin.json")} \
            | {MANIFEST_NAME}

    def test_traversal_name_round_trips(self, tmp_path):
        store = BinStore()
        record = BinRecord("../x", "digest", "pid",
                           [("dep", "pid2")], b"payload", built_at=7,
                           extra={"k": "v"})
        store.put(record)
        store.save_directory(str(tmp_path / "s"))
        loaded = BinStore.load_directory(str(tmp_path / "s"))
        got = loaded.get("../x")
        assert got is not None
        assert got.payload == b"payload"
        assert got.imports == [("dep", "pid2")]
        assert got.extra == {"k": "v"}
        assert loaded.health.ok

    @pytest.mark.parametrize("name", [
        "../x", "..", ".", "", ".hidden", "a/b\\c", "unit name",
        "%41", "ünïcode", "store.lock", "MANIFEST.json",
    ])
    def test_escape_is_safe_and_invertible(self, name):
        stem = escape_name(name)
        assert "/" not in stem and "\\" not in stem
        assert not stem.startswith(".")
        # Record files always carry .bin/.bin.json suffixes, so even a
        # unit named after the manifest or lock cannot collide with them.
        assert unescape_name(stem) == name

    def test_escape_injective_on_tricky_pairs(self):
        pairs = [("..", "%2E."), ("a/b", "a%2Fb"), ("", "%"),
                 ("%", "%25")]
        seen = {}
        for name, _ in pairs:
            stem = escape_name(name)
            assert stem not in seen, (name, seen[stem])
            seen[stem] = name


class TestLocking:
    def test_garbage_lock_is_stale_and_broken(self, saved):
        project, bin_dir = saved
        plant_stale_lock(bin_dir, garbage=True)
        store = BinStore.load_directory(bin_dir)
        assert store.names() == ["app", "base", "mid"]
        assert any("stale" in note for note in store.health.notes)
        assert not os.path.exists(os.path.join(bin_dir, LOCK_NAME))

    def test_dead_pid_lock_is_stale_and_broken(self, saved):
        project, bin_dir = saved
        plant_stale_lock(bin_dir, pid=-1)
        store = BinStore.load_directory(bin_dir)
        assert store.names() == ["app", "base", "mid"]
        assert any("stale" in note for note in store.health.notes)
        stats = store.save_directory(bin_dir)  # save also unaffected
        assert stats.records_written == 0

    def test_live_lock_blocks_save_with_typed_error(self, saved):
        project, bin_dir = saved
        plant_stale_lock(bin_dir, pid=os.getpid())  # a live owner
        store = BinStore.load_directory(bin_dir, lock_timeout=0.1)
        with pytest.raises(StoreLockedError, match="locked by live pid"):
            store.save_directory(bin_dir, lock_timeout=0.1)

    def test_live_lock_load_proceeds_with_note(self, saved):
        project, bin_dir = saved
        plant_stale_lock(bin_dir, pid=os.getpid())
        store = BinStore.load_directory(bin_dir, lock_timeout=0.1)
        assert store.names() == ["app", "base", "mid"]
        assert any("without the lock" in n for n in store.health.notes)

    def test_lock_released_after_save(self, saved):
        _project, bin_dir = saved
        assert not os.path.exists(os.path.join(bin_dir, LOCK_NAME))


class TestManifest:
    def test_unmanifested_record_ignored(self, saved, tmp_path):
        import shutil

        project, bin_dir = saved
        # Stash app's (valid) files, prune it from the store, then put
        # the files back: a record the manifest never saw, as a crash
        # between record write and manifest write would leave.
        stash = tmp_path / "stash"
        stash.mkdir()
        for path in (header_path(bin_dir, "app"),
                     payload_path(bin_dir, "app")):
            shutil.copy(path, stash / os.path.basename(path))
        store = BinStore.load_directory(bin_dir)
        store.remove("app")
        store.save_directory(bin_dir)
        for entry in os.listdir(stash):
            shutil.copy(stash / entry, os.path.join(bin_dir, entry))

        loaded = BinStore.load_directory(bin_dir)
        assert loaded.get("app") is None
        assert any("unmanifested" in n for n in loaded.health.notes)
        # The build recompiles it and the next save re-adopts it.
        builder = CutoffBuilder(project, store=loaded)
        report = builder.build()
        assert "app" in report.compiled

    def test_corrupt_manifest_degrades_gracefully(self, saved):
        project, bin_dir = saved
        with open(os.path.join(bin_dir, MANIFEST_NAME), "w") as f:
            f.write("{ not json")
        store = BinStore.load_directory(bin_dir)
        # Records still load (scan fallback); damage is reported.
        assert store.names() == ["app", "base", "mid"]
        assert any(c.kind == "bad-manifest" for c in store.health.corrupt)
