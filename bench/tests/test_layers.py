import json

from repro.workload import chain

from bench.layers import SpanTree, request_layers
from bench.metrics import load_spec
from bench.project import BenchProject
from bench.runner import run_cli

BUILD = {"compiled": ["b"], "loaded": 1, "cached": 1, "decided": 3,
         "jobs": 1, "pool": "serial",
         "phases": {"parse": 0.5, "elaborate": 1.0, "hash": 0.2,
                    "dehydrate": 0.3},
         "compiled_bytes": 50, "closure": ["a"], "closure_units": 1,
         "closure_bytes": 100}

SPANS = [
    ["cli.main", 0.0, 10.0, -1, None],
    ["cm.store.load", 0.5, 1.5, 0, {"records": 3, "bytes": 300}],
    ["cm.build", 2.0, 9.0, 0, BUILD],
    ["cm.depend.analyze", 2.0, 5.0, 2, None],
    ["lang.parser.parse", 2.0, 3.0, 3, None],
    ["lang.parser.parse", 3.0, 4.0, 3, None],
    ["units.pipeline.rehydrate", 5.0, 6.0, 2, {"unit": "a", "bytes": 100}],
    ["units.pipeline.compile", 6.0, 8.0, 2, {"unit": "b"}],
    ["lang.parser.parse", 6.0, 6.5, 7, None],
]


def test_request_layers_attribute_synthetic_spans():
    layers = request_layers(SpanTree(SPANS), 0, wall=11.0, startup=0.5,
                            cascade_size=2)
    assert layers["cm.depend.analyze_s"] == 3.0
    assert layers["cm.depend.sources_parsed"] == 2
    assert layers["lang.parser.parse_s"] == 2.5
    assert layers["cm.build.self_s"] == 7.0 - 3.0 - 1.0 - 2.0
    assert layers["cli.main.self_s"] == 10.0 - 1.0 - 7.0
    assert layers["bench.unattributed_s"] == 11.0 - 0.5 - 10.0
    assert layers["cm.store.records_read"] == 3
    assert layers["cm.store.hit_ratio"] == 2 / 3
    assert layers["units.pipeline.rehydrate_useful_ratio"] == 1.0
    assert layers["cm.cutoff.recompile_ratio"] == 0.5
    # A serial build ships nothing and has no workers.
    assert layers["cm.parallel.worker_busy_s"] == 0
    assert layers["cm.parallel.busy_ratio"] is None


def test_worker_phases_count_for_process_pools():
    build = dict(BUILD, jobs=2, pool="process")
    spans = [["cli.main", 0.0, 4.0, -1, None],
             ["cm.build", 0.0, 4.0, 0, build]]
    layers = request_layers(SpanTree(spans), 0, wall=4.0)
    assert layers["units.pipeline.compile_calls"] == 1
    assert layers["elab.elaborate_s"] == 1.0
    assert layers["cm.parallel.worker_busy_s"] == 2.0
    assert layers["cm.parallel.busy_ratio"] == 2.0 / (2 * 4.0)
    assert layers["cm.parallel.closure_bytes"] == 100


def test_per_layer_metrics_are_what_the_trace_reports():
    reported = set(request_layers(SpanTree(SPANS), 0, wall=11.0))
    reported.add("bench.trace_overhead_ratio")
    assert {m["name"] for m in load_spec()["per_layer"]} == reported


def test_shim_traces_a_real_build(tmp_path):
    project = BenchProject(chain(3))
    project.write(str(tmp_path))
    spans = tmp_path / "spans.json"
    run = run_cli([str(tmp_path), "--no-link"], str(tmp_path / "log"), 60,
                  spans_path=str(spans))
    assert run.returncode == 0, run.output
    dump = json.loads(spans.read_text())
    assert dump["fired"]["repro.cm.base.compile_unit"] == 4
    assert dump["fired"]["repro.cm.parallel.compile_unit"] == 0
    tree = SpanTree(dump["spans"])
    layers = request_layers(tree, tree.named("cli.main")[0], run.wall,
                            startup=dump["entered"] - run.spawned)
    assert layers["cm.depend.sources_parsed"] == 4
    assert layers["units.pipeline.compile_calls"] == 4
    assert layers["cm.store.records_written"] == 4
    assert 0 < layers["cli.startup_s"] < run.wall
    assert 0 <= layers["bench.unattributed_s"] < run.wall
