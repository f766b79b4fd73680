"""What a CLI process imports.

Start-up is the largest share of a new-session build, and most of it is
importing modules.  A directory build imports the builders, the store
and the compiler; it must not load the daemon, the remote store client,
the pool, the fault harness, the workload generator, the REPL, the
analyzer, the tracer, the profile diff, the linker or the evaluator.
The subprocess tests run ``python -m repro.cm`` in a fresh interpreter
and report, at exit, which of those modules were ever imported.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")

#: Modules a serial ``--no-link`` directory build never needs.
NOT_IMPORTED = (
    "repro.cm.daemon", "repro.cm.remote", "repro.cm.faults",
    "repro.cm.supervise", "repro.cm.parallel",
    "repro.workload", "repro.interactive", "repro.analysis",
    "repro.obs.diff", "repro.obs.tracer", "repro.linker", "repro.dynamic",
    "concurrent.futures", "socket",
)

#: Runs ``python -m repro.cm ARGS...`` and, at interpreter exit, prints
#: which of :data:`NOT_IMPORTED` were imported, as one JSON line.
PROBE = (
    "import atexit, json, runpy, sys\n"
    f"watched = {NOT_IMPORTED!r}\n"
    "atexit.register(lambda: print('IMPORTED', json.dumps(sorted(\n"
    "    m for m in watched if m in sys.modules))))\n"
    "sys.argv = ['repro.cm'] + sys.argv[1:]\n"
    "runpy.run_module('repro.cm', run_name='__main__', alter_sys=True)\n"
)


def python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def imported(out: str) -> list[str]:
    line = next(line for line in out.splitlines()
                if line.startswith("IMPORTED "))
    return json.loads(line[len("IMPORTED "):])


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "a.sml").write_text("structure A = struct val x = 1 end\n")
    (d / "b.sml").write_text("structure B = struct val y = A.x + 1 end\n")
    return d


def test_directory_build_imports_only_what_it_runs(srcdir):
    cold = python(PROBE, str(srcdir), "--no-link")
    assert "2 compiled" in cold
    assert imported(cold) == []

    null = python(PROBE, str(srcdir), "--no-link")
    assert "0 compiled, 2 loaded" in null
    assert imported(null) == []

    (srcdir / "b.sml").write_text(
        "structure B = struct val y = A.x + 2 end\n")
    edit = python(PROBE, str(srcdir), "--no-link")
    assert "[compiled] b  (source changed)" in edit
    assert imported(edit) == []


def test_print_build_links_and_prints(srcdir):
    python(PROBE, str(srcdir), "--no-link")
    out = python(PROBE, str(srcdir), "--print", "B.y")
    assert "B.y = 2" in out
    assert {"repro.linker", "repro.dynamic"} <= set(imported(out))


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    out = python(
        "import importlib, json, sys\n"
        "import repro\n"
        "first = sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "counts = {}\n"
        "for pkg in ('repro', 'repro.cm', 'repro.obs', 'repro.analysis'):\n"
        "    module = importlib.import_module(pkg)\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
        "    assert set(module.__all__) <= set(dir(module))\n"
        "    counts[pkg] = len(module.__all__)\n"
        "print(json.dumps({'first': first, 'counts': counts}))\n")
    result = json.loads(out)
    # ``import repro`` alone loads no subsystem.
    assert result["first"] == ["repro", "repro._lazy"]
    assert result["counts"] == {"repro": 33, "repro.cm": 39,
                                "repro.obs": 21, "repro.analysis": 25}


def test_star_import_and_submodule_import_still_work():
    out = python(
        "from repro import *\n"
        "from repro.cm import base, daemon\n"
        "from repro import CutoffBuilder\n"
        "from repro.cm.manager import CutoffBuilder as direct\n"
        "assert CutoffBuilder is direct\n"
        "assert base.BaseBuilder and daemon.BuildDaemon\n"
        "assert generate_workload and REPL and Linker\n"
        "print('ok')\n")
    assert out.strip() == "ok"


def test_unknown_package_attribute_is_an_attribute_error():
    import repro.cm

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.cm.no_such_name  # noqa: B018


def test_fault_harness_reexports_the_production_seam():
    from repro.cm import faults, seam

    assert faults.FileSystem is seam.FileSystem
    assert faults.REAL_FS is seam.REAL_FS
    assert faults.TransportError is seam.TransportError
    assert faults.TransportTimeout is seam.TransportTimeout
    assert issubclass(faults.FaultyFS, seam.FileSystem)
    assert issubclass(faults.SlowFS, seam.FileSystem)


def test_no_production_module_imports_the_fault_harness():
    importers = []
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for filename in files:
            path = os.path.join(dirpath, filename)
            if not filename.endswith(".py") or path.endswith(
                    os.path.join("cm", "faults.py")):
                continue
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}"
                        for alias in node.names]
                if "repro.cm.faults" in names:
                    importers.append(os.path.relpath(path, SRC))
    assert importers == []

