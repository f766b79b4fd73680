"""Each source is parsed once (tier 1).

The dependency memo owns the tree the analysis parsed until the first
compile of that exact source text takes it; from then on the tree is
the compiled unit's code, and nothing else refers to it:

- a serial build compiles each unit from the very tree its analysis
  parsed, the memo keeps only the summary, and ``DepGraph.parsed``
  reads a fresh parse;
- a tree never crosses a process boundary: a pickled ``CompileTask``
  carries the source text only;
- the elaborator annotates a tree in place, so a tree goes to one
  compile attempt: a supervisor retry and a rerun after a damaged
  import was mended parse afresh, and the store stays byte-identical
  to a clean serial build's;
- a daemon keeps one tree per compiled source: after its prime and an
  interface edit, no memo entry holds a tree for a source it compiled;
- each parse is traced once: the analysis's as a ``parse`` span under
  ``analyze``, a compile's only when it had to parse.
"""

import os
import pickle

from repro.cm import (
    BinRecord,
    BinStore,
    BuildDaemon,
    CutoffBuilder,
    Project,
    SupervisePolicy,
    Supervisor,
    depend,
    parallel,
)
from repro.cm.faults import WorkerFaults, faulty_executors
from repro.lang.parser import parse_program
from repro.obs.tracer import Tracer
from repro.units import pipeline
from repro.workload import generate_workload
from repro.workload.shapes import diamond, fanout

from tests.helpers import store_files


def compile_parses(monkeypatch, project: Project) -> dict[str, int]:
    """unit -> how often a compile parsed its source, filled as the
    compile site ``repro.units.pipeline.parse_program`` fires."""
    by_source = {project.source(name): name for name in project.names()}
    counts: dict[str, int] = {}

    def counting(source):
        name = by_source[source]
        counts[name] = counts.get(name, 0) + 1
        return parse_program(source)

    monkeypatch.setattr(pipeline, "parse_program", counting)
    return counts


def test_serial_build_compiles_the_analysis_tree(monkeypatch):
    project = generate_workload(diamond(2, 2), helpers_per_unit=1).project
    trees = {}

    def recording(source):
        trees[source] = parse_program(source)
        return trees[source]

    monkeypatch.setattr(depend, "parse_program", recording)
    compiled_parses = compile_parses(monkeypatch, project)
    builder = CutoffBuilder(project)
    report = builder.build()
    assert sorted(report.compiled) == sorted(project.names())
    assert compiled_parses == {}
    for name in project.names():
        assert builder.units[name].code is trees[project.source(name)]
        assert builder._dep_cache[name].tree is None
    graph = builder.last_graph
    for name in project.names():
        assert graph.parsed[name] == parse_program(project.source(name))
        assert graph.parsed[name] is not builder.units[name].code


def parse_spans_by_parent(tracer: Tracer) -> dict[str, list[str]]:
    """parent span name -> the units of the ``parse`` spans under it."""
    out: dict[str, list[str]] = {}
    for span in tracer.all_spans():
        for child in span.children:
            if child.name == "parse":
                out.setdefault(span.name, []).append(child.args["unit"])
    return {name: sorted(units) for name, units in out.items()}


def test_each_parse_is_traced_once():
    workload = generate_workload(fanout(2), helpers_per_unit=1)
    project = workload.project
    tracer = Tracer()
    builder = CutoffBuilder(project, meter=tracer)
    report = builder.build()
    assert parse_spans_by_parent(tracer) == {
        "analyze": sorted(project.names())}
    assert all(o.times.parse > 0 for o in report.outcomes)

    # The dependents of an interface edit were parsed by an earlier
    # compile, which kept the tree: their compiles parse again.
    workload.edit_interface("u000")
    tracer = Tracer()
    builder.meter = tracer
    report = builder.build()
    dependents = sorted(set(report.compiled) - {"u000"})
    assert dependents
    assert parse_spans_by_parent(tracer) == {"analyze": ["u000"],
                                             "unit": dependents}


def test_a_pickled_compile_task_carries_no_tree():
    project = generate_workload(fanout(2), helpers_per_unit=1).project
    builder = CutoffBuilder(project)
    graph = builder.analyze()
    name = graph.order[0]
    task = parallel._make_task(builder, graph, name)
    assert task.tree is not None
    assert builder._dep_cache[name].tree is None  # the task took it
    shipped = pickle.loads(pickle.dumps(task))
    assert shipped.tree is None
    assert shipped == task  # every other field crossed
    # A second task for the same source finds no tree to take.
    assert parallel._make_task(builder, graph, name, attempt=1).tree is None


def test_a_retried_attempt_parses_afresh(tmp_path, monkeypatch):
    shape = fanout(3)
    serial_dir = str(tmp_path / "serial")
    reference = CutoffBuilder(
        generate_workload(shape, helpers_per_unit=1).project)
    reference.build()
    reference.store.save_directory(serial_dir)

    project = generate_workload(shape, helpers_per_unit=1).project
    parses = compile_parses(monkeypatch, project)
    builder = CutoffBuilder(project)
    report = Supervisor(
        jobs=1, policy=SupervisePolicy(retries=1),
        executor_factory=faulty_executors(WorkerFaults(
            crash_units=frozenset({"u002"})))).build(builder)
    assert report.pool == "inline"
    assert report.retries == 1
    assert sorted(report.compiled) == sorted(project.names())
    assert parses == {"u002": 1}
    out_dir = str(tmp_path / "supervised")
    builder.store.save_directory(out_dir)
    assert store_files(out_dir) == store_files(serial_dir)


def test_a_rerun_after_a_mend_parses_afresh(tmp_path, monkeypatch):
    """``c``'s first compile takes its analysis tree and fails decoding
    its import ``b``, whose payload is damaged; ``b`` is mended from
    source, and ``c``'s rerun parses its own source afresh."""
    sources = {
        "a": "structure A = struct val x = 1 end\n",
        "b": "structure B = struct val y = A.x + 1 end\n",
        "c": "structure C = struct val z = B.y + 1 end\n",
    }
    srcdir = tmp_path / "abc"
    srcdir.mkdir()
    for name, text in sources.items():
        (srcdir / f"{name}.sml").write_text(text)
    bin_dir = str(srcdir / ".bin")
    first = CutoffBuilder(Project.from_directory(str(srcdir)))
    first.build()
    record = first.store.get("b")
    first.store.put(BinRecord(
        record.name, record.source_digest, record.export_pid,
        record.imports, b"\x0a\x63garbage", built_at=record.built_at,
        binding_pids=record.binding_pids, dep_summary=record.dep_summary))
    first.store.save_directory(bin_dir)
    (srcdir / "c.sml").write_text(sources["c"].replace("end",
                                                       "(* edited *) end"))

    project = Project.from_directory(str(srcdir))
    parses = compile_parses(monkeypatch, project)
    builder = CutoffBuilder(project, store=BinStore.load_directory(bin_dir))
    report = builder.build()
    assert sorted(report.compiled) == ["b", "c"]
    assert parses == {"b": 1, "c": 1}
    assert builder.link()["c"].structures["C"].values["z"] == 3


def write_tree(srcdir: str, project: Project, only=None) -> None:
    os.makedirs(srcdir, exist_ok=True)
    for name in project.names():
        if only is None or name in only:
            with open(os.path.join(srcdir, f"{name}.sml"), "w",
                      encoding="utf-8") as fh:
                fh.write(project.source(name))


def test_daemon_memo_keeps_no_tree_of_a_compiled_source(tmp_path):
    srcdir = str(tmp_path / "served")
    workload = generate_workload(diamond(2, 2), helpers_per_unit=1)
    write_tree(srcdir, workload.project)
    daemon = BuildDaemon(jobs=1, policy=SupervisePolicy(retries=1))
    try:
        prime = daemon.request(srcdir).report
        workload.edit_interface("u000")
        write_tree(srcdir, workload.project, only={"u000"})
        edit = daemon.request(srcdir).report
        memo = daemon._state_for(srcdir).builder._dep_cache
    finally:
        daemon.shutdown()
    assert sorted(prime.compiled) == sorted(workload.project.names())
    assert "u000" in edit.compiled and len(edit.compiled) > 1
    for name in set(prime.compiled) | set(edit.compiled):
        assert memo[name].tree is None
