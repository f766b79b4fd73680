"""Interface slicing end-to-end (the per-binding cutoff).

Covers the full slice pipeline: binding pids and used-binding sets in
bin records, the sliced smart builder recompiling only a changed
binding's users, graceful degrade on pre-slicing (v3) stores, and
byte-identical serial vs parallel sliced builds.
"""

import json
import os

import pytest

from repro.cm import (
    BinStore,
    CutoffBuilder,
    SmartBuilder,
    Supervisor,
    TimestampBuilder,
)
from repro.cm.store import (
    HEADER_SUFFIX,
    LOCK_NAME,
    MANIFEST_NAME,
    PAYLOAD_SUFFIX,
    _record_digest,
)
from repro.workload import sliced_workload


class TestSliceRecording:
    def test_records_carry_binding_pids(self):
        w = sliced_workload(4)
        b = SmartBuilder(w.project)
        b.build()
        record = b.store.get("iface")
        assert sorted(record.binding_pids) == [
            f"structures:B{k:02d}" for k in range(4)]
        assert all(len(pid) == 32 and int(pid, 16) >= 0
                   for pid in record.binding_pids.values())

    def test_used_bindings_pinned_to_provider_pids(self):
        w = sliced_workload(4)
        b = SmartBuilder(w.project)
        b.build()
        prov = b.store.get("iface")
        client = b.store.get(w.client_name(2, 0))
        assert client.used_bindings == {
            "iface": {
                "structures:B02": prov.binding_pids["structures:B02"],
            },
        }

    @pytest.mark.parametrize("cls", [CutoffBuilder, TimestampBuilder])
    def test_every_builder_records_slices(self, cls):
        # Slice data is recorded by the shared post-compile hook, so a
        # store written by any builder feeds a later sliced session.
        w = sliced_workload(3)
        b = cls(w.project)
        b.build()
        assert b.store.get("iface").binding_pids
        assert b.store.get(w.client_name(1, 0)).used_bindings["iface"]

    def test_binding_pids_survive_persistence(self, tmp_path):
        w = sliced_workload(3)
        b = SmartBuilder(w.project)
        b.build()
        b.store.save_directory(str(tmp_path / "bins"))
        restored = BinStore.load_directory(str(tmp_path / "bins"))
        assert restored.health.ok
        for name in b.store.names():
            assert (restored.get(name).binding_pids
                    == b.store.get(name).binding_pids)
            assert (restored.get(name).used_bindings
                    == b.store.get(name).used_bindings)


class TestSlicedRecompilation:
    """The acceptance scenario: 1 of 8 bindings edited on a fanout."""

    def test_one_of_eight_bindings_recompiles_only_its_users(self):
        w = sliced_workload(8, clients_per_binding=2)
        smart = SmartBuilder(w.project)
        smart.build()
        w.edit_binding_interface(3)
        report = smart.build()
        assert report.compiled == sorted(["iface"] + w.users_of(3))
        # Everyone else reused despite the provider's pid change.
        assert len(report.loaded) + len(report.cached) == 14

    def test_cutoff_recompiles_every_client(self):
        w = sliced_workload(8, clients_per_binding=2)
        cutoff = CutoffBuilder(w.project)
        cutoff.build()
        w.edit_binding_interface(3)
        report = cutoff.build()
        assert len(report.compiled) == 17  # provider + all 16 clients

    def test_implementation_edit_cuts_off_before_slicing(self):
        # Function bodies are not part of the static interface, so an
        # implementation edit moves no pid at all -- whole-unit or
        # slice -- and the ordinary cutoff already stops at the editor;
        # the slice layer must not recompile anyone extra.
        w = sliced_workload(6)
        smart = SmartBuilder(w.project)
        smart.build()
        w.edit_binding_implementation(2)
        report = smart.build()
        assert report.compiled == ["iface"]

    def test_sliced_execution_is_correct(self):
        w = sliced_workload(4)
        smart = SmartBuilder(w.project)
        smart.build()
        w.edit_binding_interface(1)
        smart.build()
        exports = smart.link()
        # use03_0 was reused from its bin; its value is still right.
        assert exports[w.client_name(3, 0)].structures[
            "U03x0"].values["v"] == 0 + 3

    def test_ledger_explains_with_binding_names(self):
        w = sliced_workload(4)
        smart = SmartBuilder(w.project)
        smart.build()
        w.edit_binding_interface(1)
        smart.build()

        reused = smart.ledger.get(w.client_name(0, 0))
        assert reused.verdict == "reused"
        assert reused.cause == "used-bindings-stable"
        [check] = reused.binding_checks
        assert check.binding == "structures:B00"
        assert check.stable
        assert "iface.B00 (structure) stable" in reused.describe()

        recompiled = smart.ledger.get(w.client_name(1, 0))
        assert recompiled.verdict == "recompiled"
        assert recompiled.cause == "import-pid-changed"
        [check] = recompiled.changed_bindings()
        assert check.binding == "structures:B01"
        assert "iface.B01 (structure) changed" in recompiled.describe()


def downgrade_store_to_v3(store_dir: str) -> int:
    """Rewrite a saved v4 store as a pre-slicing v3 store: strip the
    slice fields, stamp format 3, and re-sign each record (the digest
    covers the header, so a naive field strip would read as tampering).
    Returns the number of records rewritten."""
    rewritten = 0
    for entry in sorted(os.listdir(store_dir)):
        path = os.path.join(store_dir, entry)
        if entry == MANIFEST_NAME:
            with open(path) as f:
                manifest = json.load(f)
            manifest["format"] = 3
            with open(path, "w") as f:
                json.dump(manifest, f, indent=1, sort_keys=True)
        elif entry.endswith(HEADER_SUFFIX):
            with open(path) as f:
                header = json.load(f)
            header["format"] = 3
            header.pop("binding_pids", None)
            header.pop("used_bindings", None)
            stem = entry[:-len(HEADER_SUFFIX)]
            with open(os.path.join(store_dir,
                                   stem + PAYLOAD_SUFFIX), "rb") as f:
                payload = f.read()
            header["record_digest"] = _record_digest(header, payload)
            with open(path, "w") as f:
                json.dump(header, f, indent=1)
            rewritten += 1
    return rewritten


class TestV3Compat:
    """Pre-slicing stores load and degrade to whole-pid cutoff."""

    @pytest.fixture
    def v3_store_dir(self, tmp_path):
        w = sliced_workload(4, clients_per_binding=1)
        b = SmartBuilder(w.project)
        b.build()
        store_dir = str(tmp_path / "bins")
        b.store.save_directory(store_dir)
        assert downgrade_store_to_v3(store_dir) == 5
        return w, store_dir

    def test_v3_records_load_cleanly(self, v3_store_dir):
        _w, store_dir = v3_store_dir
        store = BinStore.load_directory(store_dir)
        assert store.health.ok
        assert not store.health.stale
        assert len(store) == 5
        for name in store.names():
            assert store.get(name).binding_pids == {}
            assert store.get(name).used_bindings == {}

    def test_smart_degrades_to_whole_pid_cutoff(self, v3_store_dir):
        w, store_dir = v3_store_dir
        w.edit_binding_interface(0)
        b = SmartBuilder(w.project,
                         store=BinStore.load_directory(store_dir))
        report = b.build()
        # No slice data: every client of the pid-changed provider
        # recompiles, exactly as cutoff would -- never a crash, never
        # a missed rebuild.
        assert len(report.compiled) == 5
        decision = b.ledger.get(w.client_name(1, 0))
        assert decision.verdict == "recompiled"
        assert "no slice data" in decision.detail

    def test_rebuild_restores_slice_data(self, v3_store_dir):
        w, store_dir = v3_store_dir
        w.edit_binding_interface(0)
        b = SmartBuilder(w.project,
                         store=BinStore.load_directory(store_dir))
        b.build()
        b.store.save_directory(store_dir)
        # The recompile re-recorded the slices: the next sibling edit
        # is sliced again.
        w.edit_binding_interface(2)
        b2 = SmartBuilder(w.project,
                          store=BinStore.load_directory(store_dir))
        report = b2.build()
        assert report.compiled == sorted(["iface"] + w.users_of(2))


def store_files(store_dir: str) -> dict[str, bytes]:
    """Every store file's bytes, transient locks excluded."""
    out = {}
    for entry in sorted(os.listdir(store_dir)):
        if entry == LOCK_NAME or entry.endswith(".rlock"):
            continue
        with open(os.path.join(store_dir, entry), "rb") as f:
            out[entry] = f.read()
    return out


class TestSlicedParallelDeterminism:
    """Serial and --jobs 4 sliced builds leave byte-identical stores
    (headers with binding_pids/used_bindings, payloads, MANIFEST)."""

    def flow(self, store_dir: str, jobs: int) -> None:
        w = sliced_workload(6, clients_per_binding=2)
        b = SmartBuilder(w.project)
        if jobs == 0:
            b.build()
        else:
            Supervisor(jobs=jobs, pool="thread").build(b)
        b.store.save_directory(store_dir)
        w.edit_binding_interface(4)
        b2 = SmartBuilder(w.project,
                          store=BinStore.load_directory(store_dir))
        if jobs == 0:
            report = b2.build()
        else:
            report = Supervisor(jobs=jobs, pool="thread").build(b2)
        assert report.compiled == sorted(["iface"] + w.users_of(4))
        b2.store.save_directory(store_dir)

    def test_serial_and_jobs4_byte_identical(self, tmp_path):
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "par4")
        self.flow(serial_dir, jobs=0)
        self.flow(parallel_dir, jobs=4)
        want = store_files(serial_dir)
        got = store_files(parallel_dir)
        assert MANIFEST_NAME in want
        assert got == want
