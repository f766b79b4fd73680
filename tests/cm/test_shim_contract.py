"""The layer-tracing shim's view of a CLI build (tier 1).

``python -m bench.shim`` wraps public functions of each layer and
attributes time by span nesting, so the build must keep these promises:

- a pooled build starts its pool through
  ``repro.cm.parallel.make_executor`` and blocks on worker futures, and
  exactly one ``cm.build`` span covers each build -- a nested pair would
  count its work twice.  Both the fail-fast and the supervised
  (``--retries``) paths are checked;
- dependency analysis runs through ``repro.cm.base.analyze`` and parses
  through ``repro.cm.depend.parse_program``, and a new session parses
  only the sources edited since the last one (the others' summaries
  come from their bin headers);
- each build writes its profile through one call of
  ``repro.obs.history.BuildHistory.record`` (the ``obs.history.record``
  layer; a workload in which a wrapped site never fires fails).
"""

import json
import os
import subprocess
import sys

import pytest

from bench.layers import SpanTree

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

UNITS = {
    "a": "structure A = struct val x = 1 end\n",
    "b": "structure B = struct val y = A.x + 1 end\n",
    "c": "structure C = struct val z = A.x + 2 end\n",
    "d": "structure D = struct val w = B.y + C.z end\n",
}


def write_units(project, units=UNITS):
    project.mkdir(exist_ok=True)
    for name, text in units.items():
        (project / f"{name}.sml").write_text(text)


def run_shim(tmp_path, project, *args):
    """One traced CLI build; returns the shim's span dump."""
    out = tmp_path / "spans.json"
    env = dict(os.environ, BENCH_SHIM_OUT=str(out),
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(REPO, "src"), REPO]))
    run = subprocess.run(
        [sys.executable, "-m", "bench.shim", str(project), "--no-link",
         *args],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("extra", [[], ["--retries", "1"]],
                         ids=["fail-fast", "supervised"])
def test_pooled_build_keeps_the_shim_contract(tmp_path, extra):
    project = tmp_path / "proj"
    write_units(project)
    dump = run_shim(tmp_path, project, "--jobs", "2", *extra)
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


def analysis_parses(dump) -> int:
    """The benchmark's ``cm.depend.sources_parsed``: ``lang.parser.parse``
    spans under ``cm.depend.analyze``."""
    tree = SpanTree(dump["spans"])
    return sum(1 for index in tree.named("lang.parser.parse")
               if tree.has_ancestor(index, "cm.depend.analyze"))


def test_new_session_parses_only_edited_sources(tmp_path):
    project = tmp_path / "proj"
    write_units(project)
    first = run_shim(tmp_path, project)
    assert first["fired"]["repro.cm.base.analyze"] == 1
    assert analysis_parses(first) == len(UNITS)

    null = run_shim(tmp_path, project)
    assert null["fired"]["repro.cm.base.analyze"] == 1
    assert analysis_parses(null) == 0

    write_units(project, {"b": "(* edited *)\n" + UNITS["b"]})
    assert analysis_parses(run_shim(tmp_path, project)) == 1


def test_a_build_records_its_profile_once(tmp_path):
    project = tmp_path / "proj"
    write_units(project)
    dump = run_shim(tmp_path, project)
    assert dump["fired"]["repro.obs.history.BuildHistory.record"] == 1
    assert [span[0] for span in dump["spans"]].count(
        "obs.history.record") == 1
