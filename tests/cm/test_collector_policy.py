"""The batch collector policy of ``python -m repro.cm``.

A batch command (a directory or ``.cm`` build, ``--fsck``) runs under
:data:`repro.cm.__main__.BATCH_GC_THRESHOLDS`: young objects are still
collected, but the full collections that re-scan a build's long-lived
heap stop running mid-build.  ``main`` restores the caller's thresholds
when it returns or raises, and the daemon -- through ``--serve`` or in
process -- builds under the caller's thresholds, CPython's defaults.
"""

import gc
import io
import os
import subprocess
import sys

import pytest

from repro.cm import BuildDaemon, SupervisePolicy, Supervisor
from repro.cm import __main__ as cli
from repro.cm.base import BaseBuilder
from repro.workload import generate_workload
from repro.workload.shapes import layered

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")

#: Counts the generation-2 collections that run inside one ``main``
#: call in a fresh interpreter, and prints ``FULL <n>``.
PROBE = (
    "import gc, sys\n"
    "from repro.cm.__main__ import main\n"
    "full = []\n"
    "def count(phase, info):\n"
    "    if phase == 'stop' and info['generation'] == 2:\n"
    "        full.append(info)\n"
    "gc.callbacks.append(count)\n"
    "rc = main(sys.argv[1:])\n"
    "gc.callbacks.remove(count)\n"
    "print('FULL', len(full))\n"
    "sys.exit(rc)\n"
)


def write_project(srcdir, shape, helpers):
    workload = generate_workload(shape, helpers_per_unit=helpers)
    os.makedirs(srcdir, exist_ok=True)
    for name in workload.project.names():
        with open(os.path.join(srcdir, name + ".sml"), "w",
                  encoding="utf-8") as fh:
            fh.write(workload.project.source(name))
    return workload


@pytest.fixture
def small(tmp_path):
    srcdir = str(tmp_path / "small")
    write_project(srcdir, layered([1, 2, 2], seed=7), helpers=1)
    return srcdir


def test_cold_build_runs_no_full_collection(tmp_path):
    """31 units with nine helpers each: the smallest generated project
    whose cold ``--no-link`` build ran a full collection (one) under
    CPython's default thresholds.  Under the batch policy it runs
    none."""
    srcdir = str(tmp_path / "proj")
    write_project(srcdir, layered([1, 5, 10, 10, 5], seed=7), helpers=9)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, srcdir, "--no-link"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert "31 compiled" in proc.stdout
    assert "FULL 0" in proc.stdout.splitlines()


def observe_thresholds(monkeypatch, cls, method):
    """Record ``gc.get_threshold()`` each time ``cls.method`` runs."""
    seen = []
    real = getattr(cls, method)

    def observed(*args, **kwargs):
        seen.append(gc.get_threshold())
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, method, observed)
    return seen


@pytest.fixture
def thresholds():
    """Give the test process its own thresholds, and put them back."""
    saved = gc.get_threshold()
    gc.set_threshold(1234, 5, 6)
    yield (1234, 5, 6)
    gc.set_threshold(*saved)


class TestBatch:
    def test_build_runs_under_the_policy(self, small, monkeypatch,
                                         thresholds, capsys):
        seen = observe_thresholds(monkeypatch, BaseBuilder, "build")
        assert cli.main([small, "--no-link"]) == 0
        assert seen == [cli.BATCH_GC_THRESHOLDS]
        assert gc.get_threshold() == thresholds

    def test_main_restores_thresholds_when_it_raises(self, small,
                                                     monkeypatch,
                                                     thresholds):
        def boom(args, tracer):
            assert gc.get_threshold() == cli.BATCH_GC_THRESHOLDS
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_build_directory", boom)
        with pytest.raises(RuntimeError):
            cli.main([small])
        assert gc.get_threshold() == thresholds

    def test_fsck_and_usage_errors_restore_thresholds(self, small,
                                                      thresholds, capsys):
        assert cli.main([small, "--fsck"]) == 0
        with pytest.raises(SystemExit):
            cli.main([small, "--json"])
        assert gc.get_threshold() == thresholds


class TestDaemonKeepsDefaults:
    def test_serve_builds_under_the_callers_thresholds(self, small,
                                                       monkeypatch):
        seen = observe_thresholds(monkeypatch, Supervisor, "build")
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            '{"op": "build"}\n{"op": "shutdown"}\n'))
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        before = gc.get_threshold()
        assert cli.main(["--serve", small]) == 0
        assert '"ok":true' in sys.stdout.getvalue()
        assert seen == [before]
        assert gc.get_threshold() == before

    def test_in_process_request_keeps_defaults(self, small, monkeypatch):
        seen = observe_thresholds(monkeypatch, Supervisor, "build")
        before = gc.get_threshold()
        daemon = BuildDaemon(jobs=1, policy=SupervisePolicy())
        try:
            reply = daemon.request(small)
        finally:
            daemon.shutdown()
        assert len(reply.report.compiled) == 5
        assert seen == [before]
