"""The layer-tracing shim's view of a pooled CLI build (tier 1).

``python -m bench.shim`` wraps public functions of each layer and
attributes time by span nesting, so the build must keep two promises:
a pooled build starts its pool through ``repro.cm.parallel.make_executor``
and blocks on worker futures, and exactly one ``cm.build`` span covers
each build -- a nested pair would count its work twice.  Both the
fail-fast and the supervised (``--retries``) paths are checked.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

UNITS = {
    "a": "structure A = struct val x = 1 end\n",
    "b": "structure B = struct val y = A.x + 1 end\n",
    "c": "structure C = struct val z = A.x + 2 end\n",
    "d": "structure D = struct val w = B.y + C.z end\n",
}


@pytest.mark.parametrize("extra", [[], ["--retries", "1"]],
                         ids=["fail-fast", "supervised"])
def test_pooled_build_keeps_the_shim_contract(tmp_path, extra):
    project = tmp_path / "proj"
    project.mkdir()
    for name, text in UNITS.items():
        (project / f"{name}.sml").write_text(text)
    out = tmp_path / "spans.json"
    env = dict(os.environ, BENCH_SHIM_OUT=str(out),
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(REPO, "src"), REPO]))
    run = subprocess.run(
        [sys.executable, "-m", "bench.shim", str(project), "--jobs", "2",
         "--no-link", *extra],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    dump = json.loads(out.read_text())
    fired = dump["fired"]
    assert fired["repro.cm.parallel.make_executor"] > 0
    assert fired["concurrent.futures._base.Future.result"] > 0

    spans = dump["spans"]
    builds = [k for k, span in enumerate(spans) if span[0] == "cm.build"]
    assert builds
    for index in builds:
        parent = spans[index][3]
        while parent >= 0:
            assert spans[parent][0] != "cm.build", "nested cm.build spans"
            parent = spans[parent][3]
