"""Dependency summaries persisted in bin-record headers.

A new session takes each unchanged unit's summary (the module names its
source defines and mentions) from its record header instead of parsing
the source.  The graph it builds must equal a full parse of the same
sources whatever changed in between, and damage to the field must stay
a cache miss.
"""

import json

import pytest

from repro.cm import BinStore, CutoffBuilder, Project, analyze, depend
from repro.cm.__main__ import main
from repro.cm.faults import header_path
from repro.cm.store import _record_digest

SOURCES = {
    "a": "structure A = struct val x = 1 end\n",
    "b": ("signature SB = sig val y : int end\n"
          "structure B : SB = struct val y = A.x + 1 end\n"),
    "c": ("structure C = struct val z = A.x + 2 end\n"
          "structure C2 = struct val q = 5 end\n"
          "functor F (X : SB) = struct val w = X.y end\n"),
    "d": ("structure D = struct\n"
          "  structure G = F (B)\n"
          "  val w = G.w + C.z + C2.q\n"
          "end\n"),
}


def no_edit(sources):
    return sources


def comment_edit(sources):
    return dict(sources, d="(* edited *)\n" + sources["d"])


def interface_edit(sources):
    return dict(sources,
                a="structure A = struct val x = 1 val extra = 2 end\n")


def move_structure(sources):
    """Move ``C2`` from unit c to unit b; its user d is unchanged, but
    d's edges must follow the move."""
    moved = "structure C2 = struct val q = 5 end\n"
    return dict(sources, b=sources["b"] + moved,
                c=sources["c"].replace(moved, ""))


def add_unit(sources):
    return dict(sources, e="structure E = struct val v = D.w + B.y end\n")


def remove_unit(sources):
    return {name: text for name, text in sources.items() if name != "d"}


def first_session(tmp_path, sources=SOURCES):
    """Build ``sources`` and save the store; returns the store dir."""
    builder = CutoffBuilder(Project.from_sources(sources))
    builder.build()
    bin_dir = str(tmp_path / "bins")
    builder.store.save_directory(bin_dir)
    return bin_dir


def count_parses(monkeypatch):
    """Count the dependency analyzer's parses (compiles parse through
    the pipeline's own reference and are not counted)."""
    calls = []
    real = depend.parse_program

    def counting(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(depend, "parse_program", counting)
    return calls


def rewrite_header(bin_dir, name, change, resign=True):
    """Apply ``change`` to a saved header; ``resign`` recomputes the
    record digest so only the change itself can be objected to."""
    path = header_path(bin_dir, name)
    with open(path) as f:
        header = json.load(f)
    change(header)
    if resign:
        header["record_digest"] = _record_digest(header)
    with open(path, "w") as f:
        json.dump(header, f)


@pytest.mark.parametrize("edit", [no_edit, comment_edit, interface_edit,
                                  move_structure, add_unit, remove_unit],
                         ids=lambda edit: edit.__name__)
def test_graph_from_summaries_equals_a_full_parse(tmp_path, monkeypatch,
                                                  edit):
    bin_dir = first_session(tmp_path)
    sources = edit(SOURCES)
    project = Project.from_sources(sources)
    parses = count_parses(monkeypatch)
    builder = CutoffBuilder(project, store=BinStore.load_directory(bin_dir))
    report = builder.build()
    assert not report.failed

    changed = {name for name, text in sources.items()
               if SOURCES.get(name) != text}
    assert sorted(parses) == sorted(sources[name] for name in changed)

    got = builder.last_graph
    want = analyze(Project.from_sources(sources))
    assert got.deps == want.deps
    assert got.dependents == want.dependents
    assert got.order == want.order
    assert got.uses == want.uses
    assert dict(got.parsed) == dict(want.parsed)


def test_records_carry_the_summary_a_parse_gives(tmp_path):
    store = BinStore.load_directory(first_session(tmp_path))
    for name, source in SOURCES.items():
        decs = depend.parse_program(source)
        assert store.get(name).dep_summary == \
            depend.DepSummary.of_decs(decs)
    # Mentions are conservative: the functor parameter X is mentioned
    # and not defined at module level, so it is kept (it resolves to no
    # provider).
    with open(header_path(str(tmp_path / "bins"), "c")) as f:
        assert json.load(f)["dep_summary"] == {
            "defines": ["functors:F", "structures:C", "structures:C2"],
            "mentions": ["signatures:SB", "structures:A", "structures:X"],
        }


@pytest.mark.parametrize("bad", [
    "structures:B",
    {"defines": "structures:B", "mentions": []},
    {"defines": ["values:b"], "mentions": []},
    {"defines": ["structures:B", "signatures:SB"], "mentions": []},
    {"defines": [], "mentions": [], "extra": []},
], ids=["not-a-table", "not-a-list", "bad-namespace", "unsorted",
        "extra-key"])
def test_malformed_summary_is_a_malformed_header(tmp_path, bad):
    bin_dir = first_session(tmp_path)
    rewrite_header(bin_dir, "b",
                   lambda header: header.update(dep_summary=bad))
    builder = CutoffBuilder(Project.from_sources(SOURCES),
                            store=BinStore.load_directory(bin_dir))
    report = builder.build()
    assert builder.health.kinds_for("b") == ["malformed-header"]
    assert "b" in report.compiled


def test_tampered_summary_is_a_record_digest_mismatch(tmp_path):
    """A forged summary could hide an edge; the record digest covers
    the whole header, so the record is dropped instead."""
    bin_dir = first_session(tmp_path)
    rewrite_header(bin_dir, "d",
                   lambda header: header["dep_summary"].update(mentions=[]),
                   resign=False)
    builder = CutoffBuilder(Project.from_sources(SOURCES),
                            store=BinStore.load_directory(bin_dir))
    report = builder.build()
    assert builder.health.kinds_for("d") == ["record-digest-mismatch"]
    assert "d" in report.compiled
    assert builder.last_graph.deps["d"] == ["b", "c"]


def test_record_without_summary_loads_and_its_unit_is_parsed(
        tmp_path, monkeypatch):
    bin_dir = first_session(tmp_path)
    rewrite_header(bin_dir, "c", lambda header: header.pop("dep_summary"))
    store = BinStore.load_directory(bin_dir)
    assert store.health.ok
    assert store.get("c").dep_summary is None
    parses = count_parses(monkeypatch)
    builder = CutoffBuilder(Project.from_sources(SOURCES), store=store)
    report = builder.build()
    assert parses == [SOURCES["c"]]
    assert report.loaded == ["a", "b", "c", "d"]
    # Loading does not rewrite a record just to add the field.
    assert store.save_directory(bin_dir).records_written == 0
    assert store.get("c").dep_summary is None


def test_analyze_in_a_second_session_prints_the_same(tmp_path, capsys):
    srcdir = tmp_path / "proj"
    srcdir.mkdir()
    for name, text in SOURCES.items():
        (srcdir / f"{name}.sml").write_text(text)

    def analysis_output() -> str:
        assert main([str(srcdir), "--analyze", "--no-link"]) == 0
        out = capsys.readouterr().out
        # Drop the per-unit build lines, which say compiled vs loaded.
        return out.split(" cached\n", 1)[1]

    first = analysis_output()
    second = analysis_output()
    assert "SC003" in first
    assert second == first
