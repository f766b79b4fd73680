"""``--trace`` / ``--trace-out`` / ``--explain`` from the CLI (tier 1).

The acceptance gates live here: the emitted file is valid Chrome
``trace_event`` JSON, its spans cover (almost) all of the measured
wall-clock, and the embedded decision ledger attributes every unit.
"""

import gc
import json
import os

import pytest

from repro.cm import __main__ as cli
from repro.cm.__main__ import main


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "base.sml").write_text(
        "structure Base = struct fun triple x = 3 * x end\n")
    (d / "mid.sml").write_text(
        "structure Mid = struct val six = Base.triple 2 end\n")
    (d / "main.sml").write_text(
        "structure Main = struct val answer = Base.triple 14 end\n")
    return str(d)


def run_traced(srcdir, tmp_path, capsys, extra_args=()):
    out_file = str(tmp_path / "build.trace.json")
    rc = main([srcdir, "--jobs", "4", "--trace-out", out_file,
               *extra_args])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    with open(out_file, encoding="utf-8") as fh:
        text = fh.read()
    return json.loads(text), text, captured


class TestTraceOut:
    def test_valid_chrome_trace_json(self, srcdir, tmp_path, capsys):
        doc, text, _ = run_traced(srcdir, tmp_path, capsys)
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "i", "C", "M")
            assert "pid" in ev and "tid" in ev
            if ev["ph"] == "X":
                assert ev["dur"] >= 0 and ev["ts"] >= 0
        # sort_keys=True: re-serialising reproduces the file.
        assert json.dumps(doc, indent=1, sort_keys=True) == text.rstrip()

    def test_spans_cover_95_percent_of_wall_clock(self, srcdir,
                                                  tmp_path, capsys):
        doc, _text, _ = run_traced(srcdir, tmp_path, capsys)
        wall_us = doc["wallSeconds"] * 1e6
        assert wall_us > 0
        run = next(e for e in doc["traceEvents"]
                   if e["ph"] == "X" and e["name"] == "run")
        assert run["dur"] >= 0.95 * wall_us

    def test_ledger_attributes_every_unit(self, srcdir, tmp_path,
                                          capsys):
        doc, _text, _ = run_traced(srcdir, tmp_path, capsys)
        decisions = doc["buildDecisions"]["units"]
        assert sorted(decisions) == ["base", "main", "mid"]
        for entry in decisions.values():
            assert entry["verdict"] in ("recompiled", "reused")
            assert entry["cause"]
        assert doc["criticalPath"]["chain"]
        assert set(doc["phaseTotals"]) >= {"parse", "elaborate"}

    def test_incremental_trace_explains_the_cascade(self, srcdir,
                                                    tmp_path, capsys):
        run_traced(srcdir, tmp_path, capsys)
        with open(os.path.join(srcdir, "base.sml"), "w") as fh:
            fh.write("structure Base = struct fun triple x = x * 3"
                     "  fun extra y = y end\n")
        doc, _text, _ = run_traced(srcdir, tmp_path, capsys)
        units = doc["buildDecisions"]["units"]
        assert units["base"]["cause"] == "source-changed"
        assert units["mid"]["cause"] == "import-pid-changed"
        assert units["mid"]["changes"][0]["unit"] == "base"

    def test_worker_tracks_present_for_parallel_build(self, srcdir,
                                                      tmp_path, capsys):
        doc, _text, _ = run_traced(srcdir, tmp_path, capsys)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert "main" in names
        assert any(n.startswith("w") for n in names)

    def test_collector_pauses_are_gc_spans(self, srcdir, tmp_path,
                                           capsys, monkeypatch):
        """Each collection during a traced build is a ``gc`` span on
        its own track, and the callback is gone once ``main``
        returns."""
        real = cli._build_directory

        def collecting(args, tracer):
            gc.collect(0)  # at least one collection, whatever the load
            return real(args, tracer)

        monkeypatch.setattr(cli, "_build_directory", collecting)
        callbacks = list(gc.callbacks)
        doc, _text, _ = run_traced(srcdir, tmp_path, capsys)
        assert gc.callbacks == callbacks
        tracks = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
                  if e["ph"] == "M"}
        pauses = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "gc"]
        assert pauses
        assert {tracks[e["tid"]] for e in pauses} == {"gc"}
        assert any(e["args"]["generation"] == 0 for e in pauses)
        assert all(set(e["args"]) == {"generation", "collected"}
                   for e in pauses)
        assert doc["phaseRollup"]["gc"]["count"] == len(pauses)

    def test_unwritable_output_is_an_error(self, srcdir, capsys):
        rc = main([srcdir, "--no-link", "--trace-out",
                   "/nonexistent/dir/t.json"])
        assert rc == 1
        assert "cannot write" in capsys.readouterr().err


class TestTraceReport:
    def test_trace_prints_tree_and_critical_path(self, srcdir, tmp_path,
                                                 capsys):
        assert main([srcdir, "--trace", "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "ms wall" in out
        assert "build" in out
        assert "critical path" in out
        assert "counters:" in out

    def test_explain_all_units(self, srcdir, capsys):
        assert main([srcdir, "--explain", "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "build decisions (3 unit(s))" in out
        assert "store-miss" in out

    def test_explain_single_unit(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        assert main([srcdir, "--explain", "mid", "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "mid: reused (all-import-pids-stable)" in out
        assert "base:" not in out

    def test_untraced_build_output_unchanged(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "trace" not in out
        assert "build decisions" not in out
