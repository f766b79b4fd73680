"""The differential store-backend conformance suite.

Every :class:`~repro.cm.backend.StoreBackend` implementation -- the
``.bin`` directory and remote-with-local-cache -- must honor the same
contracts the flat store earned in PRs 2/3/6:

- **Round trip** (PR 1): a save/load cycle reproduces every record
  byte-identically, and the export pids match the flat baseline --
  placement (wire frames, cache dirs) must never leak into meaning.
- **Crash sweep** (PR 2): a client killed before *every single*
  client-side filesystem mutation of a save, torn or clean, leaves a
  store a fresh session loads without raising and converges from.
- **Damage at rest** (PR 2): every taxonomy fault injected where the
  authoritative pairs live (the server directory, for remote) becomes a
  typed quarantined miss in the next client, never an exception.
- **Disk full** (PR 6): ENOSPC at every client-side write either aborts
  the save cleanly (``StoreFullError``) or leaves quarantinable damage;
  recovery always converges.
- **Racing writers**: interleaved saves from two clients leave a
  healthy store holding every record.
- **fsck/quarantine** (PR 6): ``--fsck`` sees the damage and
  ``--fsck --quarantine`` moves it aside, whichever backend fronts the
  store.

Tier 1 runs every test here against both backends.
"""

import io
import contextlib
import os

import pytest

from repro.cm import BinStore, CutoffBuilder, Project, StoreFullError
from repro.cm.__main__ import main as cm_main
from repro.cm.faults import (
    FaultPlan,
    FaultyFS,
    InjectedCrash,
    TwoWriterInterleaver,
    bit_flip,
    delete_file,
    garbage_header,
    header_path,
    payload_path,
    truncate_file,
)
from repro.cm.store import QUARANTINE_DIR

from tests.helpers import kill_at_save

SOURCES = {
    "base": "structure Base = struct fun triple x = 3 * x end",
    "mid": "structure Mid = struct fun six x = Base.triple (2 * x) end",
    "app": "structure App = struct val answer = Mid.six 7 end",
}

ANSWER = 42


@pytest.fixture(scope="module")
def clean_build():
    """A pristine in-memory build: the differential baseline every
    backend must reproduce byte-for-byte."""
    builder = CutoffBuilder(Project.from_sources(SOURCES))
    builder.build()
    pids = {name: unit.export_pid for name, unit in builder.units.items()}
    payloads = {name: builder.store.get(name).payload
                for name in builder.store.names()}
    return builder, pids, payloads


def save_through(harness, source_builder, fs=None):
    """One client session writing ``source_builder``'s records through
    a fresh backend of the harness's kind."""
    backend = harness.backend(fs=fs)
    store = BinStore(fs=fs, backend=backend)
    for name in source_builder.store.names():
        store.put(source_builder.store.get(name))
    stats = store.save_directory(backend.root)
    return backend, stats


def fresh_session(harness, clean_pids, fresh_cache=True, edit=None):
    """A brand-new client over whatever is on disk/server: must not
    raise, must converge to the clean build's pids and answer."""
    backend = harness.backend(fresh_cache=fresh_cache)
    project = Project.from_sources(SOURCES)
    if edit:
        project.edit(*edit)
    store = BinStore.load_directory(backend.root, backend=backend)
    builder = CutoffBuilder(project, store=store)
    builder.build()
    exports = builder.link()
    assert exports["app"].structures["App"].values["answer"] == ANSWER
    for name, pid in clean_pids.items():
        assert builder.units[name].export_pid == pid, name
    return builder


class TestRoundTrip:
    def test_loads_what_was_saved_byte_identical(self, store_harness,
                                                 clean_build):
        builder, pids, payloads = clean_build
        save_through(store_harness, builder)
        fresh = store_harness.backend(fresh_cache=True)
        loaded = BinStore.load_directory(fresh.root, backend=fresh)
        assert loaded.health.ok, loaded.health.render_text()
        assert loaded.names() == sorted(SOURCES)
        for name in SOURCES:
            record = loaded.get(name)
            assert record.payload == payloads[name], name
            assert record.export_pid == pids[name], name

    def test_no_recompile_on_warm_load(self, store_harness, clean_build):
        builder, pids, _payloads = clean_build
        save_through(store_harness, builder)
        fresh = store_harness.backend(fresh_cache=True)
        store = BinStore.load_directory(fresh.root, backend=fresh)
        session = CutoffBuilder(Project.from_sources(SOURCES), store=store)
        report = session.build()
        assert report.compiled == []
        assert sorted(report.loaded) == sorted(SOURCES)

    def test_fsck_healthy_after_save(self, store_harness, clean_build):
        builder, _pids, _payloads = clean_build
        backend, _stats = save_through(store_harness, builder)
        report = BinStore.fsck(backend.root, backend=backend)
        assert report.ok, report.render_text()
        assert report.loaded == sorted(SOURCES)


class TestCrashSweep:
    """Kill the saving client before its N-th client-side filesystem
    mutation, for every N a save performs, torn and clean.  For the
    remote backend the mutations counted are the *cache* writes; the
    server keeps whatever the client managed to push, and the fresh
    session must cope with that partial server state too."""

    @pytest.mark.parametrize("torn", [False, True],
                             ids=["clean-cut", "torn-write"])
    def test_crash_at_every_point_of_save(self, store_harness, torn,
                                          clean_build, tmp_path):
        builder, pids, _payloads = clean_build

        counter_harness = type(store_harness)(store_harness.kind,
                                              tmp_path / "dry")
        try:
            counter = FaultyFS(FaultPlan())
            save_through(counter_harness, builder, fs=counter)
            total = counter.mutations
        finally:
            counter_harness.close()
        assert total > 6  # lock + 2 files x 3 records + manifest, at least

        for crash_at in range(total):
            harness = type(store_harness)(store_harness.kind,
                                          tmp_path / f"c{int(torn)}_{crash_at}")
            try:
                fs = FaultyFS(FaultPlan(crash_at_mutation=crash_at,
                                        torn=torn, lock_pid=-1))
                with pytest.raises(InjectedCrash):
                    save_through(harness, builder, fs=fs)
                fresh_session(harness, pids)
            finally:
                harness.close()


class TestDiskFull:
    def test_enospc_at_every_write(self, store_harness, clean_build,
                                   tmp_path):
        builder, pids, _payloads = clean_build

        counter_harness = type(store_harness)(store_harness.kind,
                                              tmp_path / "dry")
        try:
            counter = FaultyFS(FaultPlan())
            save_through(counter_harness, builder, fs=counter)
            total = counter.writes
        finally:
            counter_harness.close()
        assert total > 0

        for fail_at in range(total):
            harness = type(store_harness)(store_harness.kind,
                                          tmp_path / f"e{fail_at}")
            try:
                fs = FaultyFS(FaultPlan(enospc_at_write=fail_at,
                                        lock_pid=-1))
                try:
                    save_through(harness, builder, fs=fs)
                except StoreFullError:
                    pass  # the clean abort: typed, nothing corrupted
                builder2 = fresh_session(harness, pids)
                backend = harness.backend()
                builder2.store.save_directory(backend.root)
                report = BinStore.fsck(backend.root, backend=backend)
                assert report.ok, report.render_text()
            finally:
                harness.close()


def fault_truncate_payload(at_rest, name):
    truncate_file(payload_path(at_rest, name))


def fault_garbage_header(at_rest, name):
    garbage_header(header_path(at_rest, name))


def fault_bit_flip_payload(at_rest, name):
    bit_flip(payload_path(at_rest, name), offset=5)


def fault_orphan_header(at_rest, name):
    delete_file(payload_path(at_rest, name))


def fault_delete_record(at_rest, name):
    delete_file(header_path(at_rest, name))
    delete_file(payload_path(at_rest, name))


AT_REST_FAULTS = [
    fault_truncate_payload,
    fault_garbage_header,
    fault_bit_flip_payload,
    fault_orphan_header,
    fault_delete_record,
]


class TestDamageAtRest:
    """Damage injected where the authoritative pairs live.  For the
    remote backend that is the *server's* directory: the damage rides
    the wire verbatim (frames carry their own checksums, so this is
    at-rest damage, not transport damage) and the client's taxonomy
    must classify it exactly as if the files were local."""

    @pytest.mark.parametrize("fault", AT_REST_FAULTS,
                             ids=lambda f: f.__name__[6:])
    def test_damage_is_typed_miss_then_convergence(self, store_harness,
                                                   clean_build, fault):
        builder, pids, _payloads = clean_build
        save_through(store_harness, builder)
        fault(store_harness.at_rest_dir, "mid")
        session = fresh_session(store_harness, pids)
        assert not session.health.ok
        assert "mid" in {c.name for c in session.health.corrupt}
        assert session.store.get("mid") is not None  # recompiled

    @pytest.mark.parametrize("fault", AT_REST_FAULTS,
                             ids=lambda f: f.__name__[6:])
    def test_store_self_heals_after_resave(self, store_harness,
                                           clean_build, fault):
        builder, pids, _payloads = clean_build
        save_through(store_harness, builder)
        fault(store_harness.at_rest_dir, "mid")
        session = fresh_session(store_harness, pids)
        backend = session.store.backend
        session.store.save_directory(backend.root)
        report = BinStore.fsck(backend.root, backend=backend)
        assert report.ok, report.render_text()
        assert report.loaded == sorted(SOURCES)


class TestTwoWriters:
    """Two live clients racing saves must leave a healthy store holding
    every record -- whatever the interleaving, whatever the backend.
    For remote, each writer gets its own cache directory (two
    machines), so no lock orders them; the server's atomic puts and
    manifest writes keep its store healthy."""

    SCHEDULES = {
        "strict-alternation": "AB" * 120,
        "a-head-start": "A" * 5 + "B" * 200,
    }

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_interleaved_merge_saves_converge(self, store_harness,
                                              clean_build, schedule):
        builder, pids, payloads = clean_build
        drv = TwoWriterInterleaver(self.SCHEDULES[schedule])

        def writer(fs, fresh_cache):
            backend = store_harness.backend(fs=fs, fresh_cache=fresh_cache)
            store = BinStore(fs=fs, backend=backend)
            for name in builder.store.names():
                store.put(builder.store.get(name))
            return backend, store

        backend_a, store_a = writer(drv.fs("A"), fresh_cache=False)
        backend_b, store_b = writer(drv.fs("B"), fresh_cache=True)

        stats_a, stats_b = drv.run(
            lambda: store_a.save_directory(backend_a.root),
            lambda: store_b.save_directory(backend_b.root))
        assert stats_a.records_written + stats_b.records_written \
            >= len(SOURCES)

        fresh = store_harness.backend(fresh_cache=True)
        loaded = BinStore.load_directory(fresh.root, backend=fresh)
        assert loaded.health.ok, loaded.health.render_text()
        assert loaded.names() == sorted(SOURCES)
        for name in SOURCES:
            assert loaded.get(name).payload == payloads[name], name


class TestCheckpointResume:
    def test_killed_build_resumes_through_any_backend(self, store_harness):
        """Checkpoints route through any backend, so a killed build's
        rerun over a fresh backend on the same storage loads every
        unit that finished."""
        from repro.cm import SupervisePolicy, Supervisor
        from repro.workload import generate_workload, layered

        shape = layered([3, 3, 3], seed=1)
        backend = store_harness.backend()
        bin_dir = backend.root

        # Session 1: killed right after its second checkpoint.
        workload = generate_workload(shape, helpers_per_unit=1)
        first = CutoffBuilder(
            workload.project,
            store=BinStore.load_directory(bin_dir, backend=backend))
        partial = kill_at_save(
            Supervisor(jobs=2, policy=SupervisePolicy()), first, 2)
        finished = set(partial.compiled)
        assert 0 < len(finished) < len(shape)

        # Session 2: the same build through a fresh backend over the
        # same storage.  Completed units load and only the missing
        # wave compiles.
        backend2 = store_harness.backend()
        workload2 = generate_workload(shape, helpers_per_unit=1)
        store = BinStore.load_directory(bin_dir, backend=backend2)
        assert store.health.ok, store.health.render_text()
        second = CutoffBuilder(workload2.project, store=store)
        report = Supervisor(jobs=2,
                            policy=SupervisePolicy()).build(second)
        assert not report.failed and not report.skipped
        assert set(report.loaded) == finished
        assert set(report.compiled) == \
            set(workload2.project.names()) - finished

        # A fresh client reads back a clean serial build's records.
        serial = CutoffBuilder(
            generate_workload(shape, helpers_per_unit=1).project)
        serial.build()
        fresh = store_harness.backend(fresh_cache=True)
        loaded = BinStore.load_directory(fresh.root, backend=fresh)
        assert loaded.names() == serial.store.names()
        for name in serial.store.names():
            want = serial.store.get(name)
            assert loaded.get(name).payload == want.payload, name
            assert loaded.get(name).export_pid == want.export_pid, name


class TestFsckAndQuarantine:
    """The ``--fsck`` / ``--fsck --quarantine`` CLI against every
    backend (the PR-9 regression: both used to assume a flat root)."""

    def run_cli(self, harness, *extra):
        if harness.kind == "remote":
            backend_args = ["--store-url", harness.url]
            # fsck a brand-new client cache so damage must come over
            # the wire, not from a warm local copy
            target = harness.backend(fresh_cache=True).root
        else:
            backend_args = []
            target = harness.at_rest_dir
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cm_main([target, "--fsck", *backend_args, *extra])
        return code, buf.getvalue()

    def test_fsck_sees_damage(self, store_harness, clean_build):
        builder, _pids, _payloads = clean_build
        save_through(store_harness, builder)
        bit_flip(payload_path(store_harness.at_rest_dir, "mid"), offset=3)
        code, out = self.run_cli(store_harness)
        assert code != 0
        assert "DAMAGED" in out and "payload-checksum-mismatch" in out

    def test_fsck_quarantine_moves_damage_aside(self, store_harness,
                                                clean_build):
        builder, _pids, _payloads = clean_build
        save_through(store_harness, builder)
        bit_flip(payload_path(store_harness.at_rest_dir, "mid"), offset=3)
        code, out = self.run_cli(store_harness, "--quarantine")
        assert code != 0  # damage was found (and moved aside)
        qdir = os.path.join(store_harness.at_rest_dir, QUARANTINE_DIR)
        assert os.path.isdir(qdir) and len(os.listdir(qdir)) >= 1
        # the damaged pair is gone from the live store...
        assert not os.path.exists(
            payload_path(store_harness.at_rest_dir, "mid"))
        # ...and a rebuild + resave restores full health
        backend = store_harness.backend(fresh_cache=True)
        store = BinStore.load_directory(backend.root, backend=backend)
        session = CutoffBuilder(Project.from_sources(SOURCES), store=store)
        session.build()
        session.store.save_directory(backend.root)
        assert BinStore.fsck(backend.root, backend=backend).ok
