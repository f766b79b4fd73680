"""The daemon differential conformance matrix (tier 1).

The contract under test: **every answer the daemon gives is
byte-identical to the batch build it replaces.**  For every workload
shape x edit kind x jobs count, a warm :class:`BuildDaemon` serving
requests against an on-disk source tree must leave exactly the store
bytes (records, headers, MANIFEST.json) and export pids of a fresh
``python -m repro.cm --jobs N`` batch run over the same sources --
despite everything the daemon does differently: persistent sessions,
incremental mtime-based source refresh, ready-set dispatch instead of
wave barriers, supervision, per-request checkpoints.

The crash-mid-request variant drives a request through a unit that
fails to compile and checks the degradation contract: the store is left
a valid, fsck-clean prefix (the store's crash safety), the report names
the casualties (supervision), and the next clean request converges to
the exact batch bytes.
"""

import os

import pytest

from repro.cm import (
    BinStore,
    BuildDaemon,
    CutoffBuilder,
    Project,
    SmartBuilder,
    SupervisePolicy,
    TimestampBuilder,
)
from repro.cm.__main__ import main as cli_main
from repro.cm.seam import FileSystem
from repro.workload import generate_workload
from repro.workload.shapes import chain, diamond, fanout

from tests.helpers import store_files

SHAPES = {
    "chain": lambda: chain(5),
    "diamond": lambda: diamond(2, 2),
    "fanout": lambda: fanout(5),
}

#: edit name -> (workload edit method, unit to edit)
EDITS = {
    "clean": None,
    "comment-edit": ("edit_comment", "u001"),
    "interface-edit": ("edit_interface", "u000"),
}

JOBS = [1, 2, 4]

#: Fast supervision for tests (tiny backoffs; behaviourally identical).
POLICY = SupervisePolicy(retries=1, backoff_base=0.001, backoff_cap=0.01)


def write_tree(srcdir, project, only=None):
    """Render a project to ``.sml`` files; ``only`` limits the write to
    the named units (so untouched files keep their mtimes, exactly like
    a real editor session)."""
    os.makedirs(srcdir, exist_ok=True)
    for name in project.names():
        if only is not None and name not in only:
            continue
        with open(os.path.join(srcdir, name + ".sml"), "w",
                  encoding="utf-8") as fh:
            fh.write(project.source(name))


def batch_build(srcdir, jobs, cls=CutoffBuilder):
    """One fresh-process batch build: load store, build, save.  Returns
    the builder (its units carry the export pids)."""
    bin_dir = os.path.join(srcdir, ".bin")
    store = (BinStore.load_directory(bin_dir)
             if os.path.isdir(bin_dir) else BinStore())
    builder = cls(Project.from_directory(srcdir), store=store)
    builder.build(jobs=jobs)
    store.save_directory(bin_dir)
    return builder


def daemon_flow(shape, edit, jobs, srcdir, cls_name="cutoff"):
    """Clean request + (optionally) edit + warm request, one daemon."""
    workload = generate_workload(SHAPES[shape](), helpers_per_unit=1)
    write_tree(srcdir, workload.project)
    daemon = BuildDaemon(manager=cls_name, jobs=jobs, policy=POLICY)
    try:
        daemon.request(srcdir)
        if EDITS[edit] is not None:
            method, unit = EDITS[edit]
            getattr(workload, method)(unit)
            write_tree(srcdir, workload.project, only={unit})
            daemon.request(srcdir)
        builder = daemon._state_for(srcdir).builder
        pids = {n: u.export_pid for n, u in builder.units.items()}
    finally:
        daemon.shutdown()
    return pids, store_files(os.path.join(srcdir, ".bin"))


def batch_flow(shape, edit, jobs, srcdir, cls=CutoffBuilder):
    """The same incremental flow served by fresh batch builds."""
    workload = generate_workload(SHAPES[shape](), helpers_per_unit=1)
    write_tree(srcdir, workload.project)
    builder = batch_build(srcdir, jobs, cls=cls)
    if EDITS[edit] is not None:
        method, unit = EDITS[edit]
        getattr(workload, method)(unit)
        write_tree(srcdir, workload.project, only={unit})
        builder = batch_build(srcdir, jobs, cls=cls)
    pids = {n: u.export_pid for n, u in builder.units.items()}
    return pids, store_files(os.path.join(srcdir, ".bin"))


_batch_memo = {}


def batch_reference(shape, edit, tmp_path_factory, cls=CutoffBuilder):
    """Batch bytes are jobs-invariant (PR 3's matrix), so one serial
    batch flow per (shape, edit, manager) anchors every daemon cell."""
    key = (shape, edit, cls.__name__)
    if key not in _batch_memo:
        dest = str(tmp_path_factory.mktemp("batch"))
        _batch_memo[key] = batch_flow(shape, edit, 1, dest, cls=cls)
    return _batch_memo[key]


class TestDaemonMatrix:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("jobs", JOBS)
    def test_daemon_matches_batch_byte_for_byte(
            self, tmp_path, tmp_path_factory, shape, edit, jobs):
        want_pids, want_files = batch_reference(shape, edit,
                                                tmp_path_factory)
        got_pids, got_files = daemon_flow(shape, edit, jobs,
                                          str(tmp_path / "served"))
        assert got_pids == want_pids
        assert got_files == want_files  # headers, payloads, MANIFEST

    @pytest.mark.parametrize("cls,name",
                             [(SmartBuilder, "smart"),
                              (TimestampBuilder, "make")],
                             ids=["smart", "make"])
    def test_other_managers_deterministic_too(self, tmp_path,
                                              tmp_path_factory, cls,
                                              name):
        want = batch_reference("diamond", "interface-edit",
                               tmp_path_factory, cls=cls)
        got = daemon_flow("diamond", "interface-edit", 2,
                          str(tmp_path / "served"), cls_name=name)
        assert got == want

    def test_warm_request_is_all_cached(self, tmp_path):
        """The warm path really is warm: an unchanged tree re-requested
        on the same daemon is 100% cached verdicts -- no store reads,
        no recompiles -- and the second request leaves the bytes
        untouched."""
        srcdir = str(tmp_path / "src")
        workload = generate_workload(SHAPES["diamond"](),
                                     helpers_per_unit=1)
        write_tree(srcdir, workload.project)
        daemon = BuildDaemon(jobs=2, policy=POLICY)
        try:
            first = daemon.request(srcdir)
            before = store_files(os.path.join(srcdir, ".bin"))
            second = daemon.request(srcdir)
        finally:
            daemon.shutdown()
        assert len(first.report.compiled) == len(workload.project)
        assert len(second.report.cached) == len(workload.project)
        assert second.sources_refreshed == 0
        assert not second.store_reloaded
        assert store_files(os.path.join(srcdir, ".bin")) == before

    def test_touch_does_not_rebuild(self, tmp_path):
        """A pure mtime bump (same text) is re-read but compiles
        nothing -- matching batch behaviour, where an unchanged digest
        never recompiles."""
        srcdir = str(tmp_path / "src")
        workload = generate_workload(SHAPES["chain"](),
                                     helpers_per_unit=1)
        write_tree(srcdir, workload.project)
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        try:
            daemon.request(srcdir)
            target = os.path.join(srcdir, "u001.sml")
            os.utime(target, ns=(os.stat(target).st_mtime_ns + 10_000,
                                 os.stat(target).st_mtime_ns + 10_000))
            reply = daemon.request(srcdir)
        finally:
            daemon.shutdown()
        assert reply.sources_refreshed == 1  # re-read, text unchanged
        assert not reply.report.compiled


def request_broken(daemon, srcdir, unit):
    """Serve one request while ``unit`` fails to compile (an unbound
    identifier appended to its source), then restore the source."""
    path = os.path.join(srcdir, unit + ".sml")
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original + "\nstructure Broken = "
                 "struct val x = no_such_thing end\n")
    try:
        return daemon.request(srcdir)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)


class TestCrashMidRequest:
    def test_poisoned_request_degrades_then_converges(
            self, tmp_path, tmp_path_factory):
        """A request through a unit that fails to compile degrades to
        the crash-safety and supervision guarantees -- valid store
        prefix, named casualties -- and the next request, over the
        fixed source, converges to exact batch bytes."""
        srcdir = str(tmp_path / "served")
        workload = generate_workload(SHAPES["fanout"](),
                                     helpers_per_unit=1)
        write_tree(srcdir, workload.project)
        daemon = BuildDaemon(jobs=2, policy=POLICY)
        try:
            broken = request_broken(daemon, srcdir, "u003")
            # Degraded, not corrupted: the failing unit failed, its
            # dependents were skipped, everything else built.  A
            # compile error is not retryable.
            assert broken.report.failed == ["u003"]
            assert broken.report.skipped == ["u006"]  # the fanout top
            assert broken.report.retries == 0
            bin_dir = os.path.join(srcdir, ".bin")
            assert BinStore.fsck(bin_dir).ok
            loaded = BinStore.load_directory(bin_dir)
            assert loaded.health.ok
            assert "u003" not in loaded.names()

            # The source is fixed again: the next request finishes the
            # build and matches batch byte-for-byte.
            fixed = daemon.request(srcdir)
            assert not fixed.report.failed and not fixed.report.skipped
        finally:
            daemon.shutdown()
        want_pids, want_files = batch_reference("fanout", "clean",
                                                tmp_path_factory)
        assert store_files(bin_dir) == want_files


class TestStoreSignature:
    """A request lists the store once, to see whether another writer
    moved it, and writes the store only when it changed something."""

    def test_cli_build_between_requests_reloads(self, tmp_path, capsys):
        srcdir = str(tmp_path / "served")
        workload = generate_workload(SHAPES["diamond"](),
                                     helpers_per_unit=1)
        write_tree(srcdir, workload.project)
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        try:
            assert not daemon.request(srcdir).store_reloaded
            workload.edit_interface("u000")
            write_tree(srcdir, workload.project, only={"u000"})
            assert cli_main([srcdir, "--no-link"]) == 0
            reply = daemon.request(srcdir)
            assert reply.store_reloaded
            assert not reply.report.compiled  # the CLI build compiled
            assert not daemon.request(srcdir).store_reloaded
        finally:
            daemon.shutdown()
        want = str(tmp_path / "batch")
        write_tree(want, workload.project)
        batch_build(want, 1)
        assert store_files(os.path.join(srcdir, ".bin")) == \
            store_files(os.path.join(want, ".bin"))

    def test_remote_signature_is_the_servers_revision(self, tmp_path,
                                                      capsys):
        """Through a store server, the daemon's own saves re-read the
        server's revision, so only another client's write reloads."""
        from repro.cm import (
            StoreServer,
            register_loopback,
            unregister_loopback,
        )

        url = register_loopback("daemon-signature",
                                StoreServer(str(tmp_path / "server")))
        srcdir = str(tmp_path / "served")
        other = str(tmp_path / "other")
        workload = generate_workload(SHAPES["diamond"](),
                                     helpers_per_unit=1)
        write_tree(srcdir, workload.project)
        daemon = BuildDaemon(jobs=1, policy=POLICY, store_url=url)
        try:
            daemon.request(srcdir)
            assert not daemon.request(srcdir).store_reloaded
            workload.edit_interface("u000")
            write_tree(other, workload.project)
            assert cli_main([other, "--store-url", url, "--no-link"]) == 0
            write_tree(srcdir, workload.project, only={"u000"})
            reply = daemon.request(srcdir)
            assert reply.store_reloaded
            # This request saved what it compiled: its own writes moved
            # the revision, and the kept signature follows them.
            assert reply.report.compiled
            assert not daemon.request(srcdir).store_reloaded
        finally:
            daemon.shutdown()
            unregister_loopback("daemon-signature")

    def test_null_request_lists_the_store_once_and_writes_nothing(
            self, tmp_path, monkeypatch):
        srcdir = str(tmp_path / "served")
        bin_dir = os.path.join(srcdir, ".bin")
        workload = generate_workload(SHAPES["diamond"](),
                                     helpers_per_unit=1)
        write_tree(srcdir, workload.project)
        calls = []

        def logged(op, real):
            def run(fs, path, *args):
                calls.append((op, os.path.dirname(path), path))
                return real(fs, path, *args)
            return run

        for op in ("listdir", "write_bytes", "replace", "remove",
                   "create_exclusive"):
            monkeypatch.setattr(FileSystem, op,
                                logged(op, getattr(FileSystem, op)))
        daemon = BuildDaemon(jobs=1, policy=POLICY)
        try:
            daemon.request(srcdir)
            before = store_files(bin_dir)
            del calls[:]
            reply = daemon.request(srcdir)
        finally:
            daemon.shutdown()
        assert len(reply.report.cached) == len(workload.project)
        assert [c for c in calls if c[0] == "listdir"] == \
            [("listdir", srcdir, bin_dir)]
        # Only the build profile under .bin/profiles/ is rewritten.
        assert [c for c in calls
                if c[0] != "listdir" and c[1] == bin_dir] == []
        assert store_files(bin_dir) == before
