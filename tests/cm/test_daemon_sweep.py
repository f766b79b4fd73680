"""Startup sweep: a killed prior run must not haunt the daemon.

A ``kill -9`` mid-build can leave orphaned ``.rlock`` record locks in
a store directory whose owner pid is dead (merge-savers skip locked
records, so a dead owner's lock would shadow its record forever).
:func:`repro.cm.store.sweep_stale_artifacts` removes them on the
daemon's first contact with a group; live locks are left alone.
"""

import json
import os
import subprocess
import sys

from repro.cm import (
    BinStore,
    BuildDaemon,
    CutoffBuilder,
    Project,
    SupervisePolicy,
    sweep_stale_artifacts,
)
from repro.workload import generate_workload
from repro.workload.shapes import chain

POLICY = SupervisePolicy(retries=1, backoff_base=0.001, backoff_cap=0.01)


def seeded_group(srcdir):
    """A built source tree whose store is then littered with debris
    from a (simulated) killed run: an orphaned dead-owner lock, an
    unreadable lock, and one *live* lock that must survive the
    sweep."""
    workload = generate_workload(chain(3), helpers_per_unit=1)
    os.makedirs(srcdir)
    for name in workload.project.names():
        with open(os.path.join(srcdir, name + ".sml"), "w",
                  encoding="utf-8") as fh:
            fh.write(workload.project.source(name))
    bin_dir = os.path.join(srcdir, ".bin")
    builder = CutoffBuilder(Project.from_directory(srcdir))
    builder.build()
    builder.store.save_directory(bin_dir)

    # The debris.  A really-dead pid: a child that has already exited.
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    with open(os.path.join(bin_dir, "u000.rlock"), "w") as fh:
        fh.write(json.dumps({"pid": child.pid}))
    with open(os.path.join(bin_dir, "u001.rlock"), "w") as fh:
        fh.write("garbage, not json")  # unreadable == stale
    with open(os.path.join(bin_dir, "zzz.rlock"), "w") as fh:
        fh.write(json.dumps({"pid": os.getpid()}))  # live: keep
    return workload, bin_dir


def test_sweep_function_removes_exactly_the_debris(tmp_path):
    _workload, bin_dir = seeded_group(str(tmp_path / "grp"))
    swept = sweep_stale_artifacts(bin_dir)
    assert sorted(swept) == ["u000.rlock", "u001.rlock"]
    left = sorted(os.listdir(bin_dir))
    assert "u000.rlock" not in left and "u001.rlock" not in left
    assert "zzz.rlock" in left  # live owner: untouched
    # Idempotent (the live lock is not debris), and harmless on
    # directories that don't exist.
    assert sweep_stale_artifacts(bin_dir) == []
    assert sweep_stale_artifacts(str(tmp_path / "nope")) == []


def test_daemon_first_contact_sweeps_orphaned_locks(tmp_path):
    srcdir = str(tmp_path / "grp")
    workload, bin_dir = seeded_group(srcdir)
    daemon = BuildDaemon(jobs=2, pool="thread", policy=POLICY)
    try:
        first = daemon.request(srcdir)
        second = daemon.request(srcdir)
    finally:
        daemon.shutdown()
    assert sorted(first.swept) == ["u000.rlock", "u001.rlock"]
    # The store served every unit (all loaded, none recompiled).
    assert not first.report.compiled
    assert len(first.report.loaded) == len(workload.project)
    # Sweep happens once, on first contact.
    assert second.swept == []
    assert os.path.exists(os.path.join(bin_dir, "zzz.rlock"))
    assert BinStore.fsck(bin_dir).ok
