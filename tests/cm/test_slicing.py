"""Interface slicing end-to-end (the per-binding cutoff).

Covers the full slice pipeline: binding pids and used-binding sets in
bin records, the sliced smart builder recompiling only a changed
binding's users, old-format stores recompiling once, the whole-pid
fallback for providers without slice data, and byte-identical serial vs
parallel sliced builds.
"""

import json
import os

import pytest

from repro.cm import (
    BinStore,
    CutoffBuilder,
    Project,
    SmartBuilder,
    Supervisor,
    TimestampBuilder,
)
from repro.cm.stable import stabilize
from repro.cm.store import (
    HEADER_SUFFIX,
    MANIFEST_NAME,
    PAYLOAD_SUFFIX,
)
from repro.pids.crc128 import CRC128, crc128_hex
from repro.workload import sliced_workload

from tests.helpers import store_files


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


SUPERSEDED = {
    "iface": "structure A = struct datatype t = T of int "
             "fun get (T n) = n end "
             "structure B = struct val x = 1 end",
    "client": "structure C = struct type u = A.t val v = A.T 3 end",
}
#: ``B`` grows a binding the client never uses: ``iface``'s pid moves,
#: the client's used slice (``A``) does not.
IFACE_EDITED = ("structure A = struct datatype t = T of int "
                "fun get (T n) = n end "
                "structure B = struct val x = 1 val y = 2 end")
#: Needs ``C.v`` and ``A.get`` to agree on one ``A.t``.
Z_SOURCE = "structure Z = struct val q = A.get C.v end"


def record_fields(store: BinStore) -> dict:
    """Every record field except the logical build time."""
    return {name: (r.source_digest, r.export_pid, r.imports, r.payload,
                   r.binding_pids, r.used_bindings)
            for name in store.names() for r in [store.get(name)]}


class TestSupersededProvider:
    """A sliced reuse whose payload holds stubs into the changed
    provider cannot rehydrate: the stubs name the provider's superseded
    pid.  That is a stale record -- the unit recompiles, the health
    report stays clean -- never a unit bound to the old objects."""

    @pytest.fixture
    def clean(self):
        b = SmartBuilder(Project.from_sources(
            {**SUPERSEDED, "iface": IFACE_EDITED, "z": Z_SOURCE}))
        b.build()
        return record_fields(b.store)

    def test_in_one_builder(self, clean):
        project = Project.from_sources(SUPERSEDED)
        b = SmartBuilder(project)
        b.build()
        project.edit("iface", IFACE_EDITED)
        report = b.build()
        assert sorted(report.compiled) == ["client", "iface"]
        decision = b.ledger.get("client")
        assert decision.verdict == "recompiled"
        assert "superseded interface of iface" in decision.detail
        project.add("z", Z_SOURCE)
        assert b.build().compiled == ["z"]
        assert b.link()["z"].structures["Z"].values["q"] == 3
        assert b.health.ok
        assert record_fields(b.store) == clean

    def test_earlier_damage_does_not_read_as_damage(self):
        # A long-lived builder (a daemon's) keeps its health report:
        # a unit once found damaged, later stale, is explained as stale.
        project = Project.from_sources(SUPERSEDED)
        b = SmartBuilder(project)
        b.build()
        b.health.add("client", "rehydrate-failed", detail="an earlier build")
        project.edit("iface", IFACE_EDITED)
        b.build()
        decision = b.ledger.get("client")
        assert decision.cause == "import-pid-changed"
        assert "superseded interface of iface" in decision.detail

    def test_across_sessions(self, clean, tmp_path):
        store_dir = str(tmp_path / "bins")
        project = Project.from_sources(SUPERSEDED)
        b = SmartBuilder(project)
        b.build()
        b.store.save_directory(store_dir)
        project.edit("iface", IFACE_EDITED)
        project.add("z", Z_SOURCE)
        b2 = SmartBuilder(project,
                          store=BinStore.load_directory(store_dir))
        report = b2.build()
        assert sorted(report.compiled) == ["client", "iface", "z"]
        assert b2.health.ok
        assert b2.link()["z"].structures["Z"].values["q"] == 3
        b2.store.save_directory(store_dir)
        assert BinStore.fsck(store_dir).ok
        assert record_fields(b2.store) == clean


def downgrade_store(store_dir: str, version: int) -> int:
    """Rewrite a saved store as the given older format, the way that
    format wrote it: v4 headers carry a CRC-128 ``payload_crc`` and a
    CRC-128 record digest over the header and the payload; v3 headers
    also lack the slice fields.  Returns the number of records
    rewritten."""
    rewritten = 0
    for entry in sorted(os.listdir(store_dir)):
        path = os.path.join(store_dir, entry)
        if entry == MANIFEST_NAME:
            with open(path) as f:
                manifest = json.load(f)
            manifest["format"] = version
            with open(path, "w") as f:
                json.dump(manifest, f, indent=1, sort_keys=True)
        elif entry.endswith(HEADER_SUFFIX):
            with open(path) as f:
                header = json.load(f)
            stem = entry[:-len(HEADER_SUFFIX)]
            with open(os.path.join(store_dir,
                                   stem + PAYLOAD_SUFFIX), "rb") as f:
                payload = f.read()
            header["format"] = version
            del header["payload_digest"], header["record_digest"]
            if version == 3:
                del header["binding_pids"], header["used_bindings"]
            canon = json.dumps(header, sort_keys=True,
                               separators=(",", ":")).encode("utf-8")
            header["payload_crc"] = crc128_hex(payload)
            header["record_digest"] = \
                CRC128().update(canon).update(payload).hexdigest()
            with open(path, "w") as f:
                json.dump(header, f, indent=1)
            rewritten += 1
    return rewritten


STABLE_LIB = {"lib": "structure A = struct val x = 1 end "
                     "structure B = struct val y = 2 end"}
STABLE_LIB_EDITED = {"lib": "structure A = struct val x = 1 end "
                            "structure B = struct val y = 2 val z = 3 end"}


def stable_archive(sources: dict) -> bytes:
    builder = CutoffBuilder(Project.from_sources(sources))
    builder.build()
    return stabilize(builder, sorted(sources))


class TestV3Compat:
    """Stores written before the current format recompile once, and a
    provider without slice data degrades smart to whole-pid cutoff."""

    @staticmethod
    def old_store(tmp_path, version):
        w = sliced_workload(4, clients_per_binding=1)
        b = SmartBuilder(w.project)
        b.build()
        store_dir = str(tmp_path / "bins")
        b.store.save_directory(store_dir)
        assert downgrade_store(store_dir, version) == 5
        return w, store_dir

    @pytest.mark.parametrize("version", [3, 4])
    def test_old_format_store_recompiles_once(self, tmp_path, version):
        w, store_dir = self.old_store(tmp_path, version)
        store = BinStore.load_directory(store_dir)
        # Version skew is a stale miss, not damage.
        assert store.health.ok
        assert sorted(store.health.stale) == sorted(w.project.names())
        assert len(store) == 0
        b = SmartBuilder(w.project, store=store)
        assert b.build().compiled == sorted(w.project.names())
        b.store.save_directory(store_dir)
        again = BinStore.load_directory(store_dir)
        assert again.health.ok and not again.health.stale
        assert len(again) == 5
        report = SmartBuilder(w.project, store=again).build()
        assert report.compiled == []
        assert sorted(report.loaded) == sorted(w.project.names())

    def test_smart_degrades_to_whole_pid_cutoff(self, tmp_path):
        # A stable-library provider carries no binding pids, so the
        # client's record pins empty slice pids for it.  A provider
        # edit the client never uses still recompiles it, exactly as
        # cutoff would -- never a crash, never a missed rebuild.
        project = Project.from_sources(
            {"client": "structure C = struct val v = A.x end"})
        b = SmartBuilder(project)
        b.add_stable_archive(stable_archive(STABLE_LIB))
        b.build()
        assert b.store.get("client").used_bindings == {
            "lib": {"structures:A": ""}}
        store_dir = str(tmp_path / "bins")
        b.store.save_directory(store_dir)

        b2 = SmartBuilder(project, store=BinStore.load_directory(store_dir))
        b2.add_stable_archive(stable_archive(STABLE_LIB_EDITED))
        report = b2.build()
        assert report.compiled == ["client"]
        decision = b2.ledger.get("client")
        assert decision.verdict == "recompiled"
        assert "no slice data" in decision.detail
        assert b2.link()["client"].structures["C"].values["v"] == 1

    def test_rebuild_restores_slice_data(self, tmp_path):
        w, store_dir = self.old_store(tmp_path, 3)
        w.edit_binding_interface(0)
        b = SmartBuilder(w.project,
                         store=BinStore.load_directory(store_dir))
        b.build()
        b.store.save_directory(store_dir)
        # The recompile recorded the slices: the next sibling edit is
        # sliced.
        w.edit_binding_interface(2)
        b2 = SmartBuilder(w.project,
                          store=BinStore.load_directory(store_dir))
        report = b2.build()
        assert report.compiled == sorted(["iface"] + w.users_of(2))


class TestSlicedParallelDeterminism:
    """Serial and --jobs 4 sliced builds leave byte-identical stores
    (headers with binding_pids/used_bindings, payloads, MANIFEST)."""

    def flow(self, store_dir: str, jobs: int) -> None:
        w = sliced_workload(6, clients_per_binding=2)
        b = SmartBuilder(w.project)
        if jobs == 0:
            b.build()
        else:
            Supervisor(jobs=jobs).build(b)
        b.store.save_directory(store_dir)
        w.edit_binding_interface(4)
        b2 = SmartBuilder(w.project,
                          store=BinStore.load_directory(store_dir))
        if jobs == 0:
            report = b2.build()
        else:
            report = Supervisor(jobs=jobs).build(b2)
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
