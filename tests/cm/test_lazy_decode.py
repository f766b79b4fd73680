"""Header-backed units: a bin payload is decoded on first demand.

A loaded unit carries its record's header (pids, imports, payload) and
decodes its static environment and code only when a compile, the link
or a stub first needs them.  These tests count decodes through the
builder meter's ``rehydrate`` spans, which fire at that first demand,
and hold every build path to a clean serial build's store, pids and
linked program.  They also pin the damage path: a payload that passes
its digests but does not decode is mended wherever it is first
demanded -- recompiled from source with reason ``bin file
unreadable``, filed as ``rehydrate-failed`` and saved healed.
"""

import os

import pytest

from repro.basis import BASIS_PID
from repro.cm import BinRecord, BinStore, CutoffBuilder, Project
from repro.cm.__main__ import main
from repro.cm.base import UNREADABLE
from repro.dynamic.evaluate import apply_value
from repro.obs.tracer import Tracer
from repro.units import Session, compile_unit
from repro.units.pipeline import load_unit
from repro.workload import generate_workload
from repro.workload.shapes import layered

#: A payload with valid digests that does not decode: an object of the
#: unknown class tag 99.
GARBAGE = b"\x0a\x63garbage"

ABC = {
    "a": "structure A = struct val x = 1 end\n",
    "b": "structure B = struct val y = A.x + 1 end\n",
    "c": "structure C = struct val z = B.y + 1 end\n",
}
C_EDITED = "structure C = struct val z = B.y + 1 (* edited *) end\n"


def damage(bin_dir: str, name: str) -> None:
    """Replace ``name``'s payload with :data:`GARBAGE`, digests and all:
    the store loads it as healthy."""
    store = BinStore.load_directory(bin_dir)
    r = store.get(name)
    store.put(BinRecord(r.name, r.source_digest, r.export_pid, r.imports,
                        GARBAGE, built_at=r.built_at,
                        binding_pids=r.binding_pids,
                        dep_summary=r.dep_summary))
    store.save_directory(bin_dir)


@pytest.fixture
def abc_dir(tmp_path):
    """``a <- b <- c`` on disk, built, with ``b``'s payload damaged."""
    d = tmp_path / "abc"
    d.mkdir()
    for name, text in ABC.items():
        (d / f"{name}.sml").write_text(text)
    bin_dir = str(d / ".bin")
    builder = CutoffBuilder(Project.from_directory(str(d)))
    builder.build()
    builder.store.save_directory(bin_dir)
    damage(bin_dir, "b")
    return str(d)


def assert_store_heals(srcdir: str) -> None:
    """The next new session over the store files no damage, even when
    it decodes everything."""
    bin_dir = os.path.join(srcdir, ".bin")
    store = BinStore.load_directory(bin_dir)
    builder = CutoffBuilder(Project.from_directory(srcdir), store=store)
    report = builder.build()
    assert report.compiled == []
    assert builder.link()["c"].structures["C"].values["z"] == 3
    assert builder.health.ok
    assert BinStore.fsck(bin_dir).ok


class TestUnreadablePayload:
    """The same damage, first demanded by the serial compile, by the
    CLI's compile and link, and on a pool worker."""

    def test_serial_compile_mends_the_import(self, abc_dir):
        with open(os.path.join(abc_dir, "c.sml"), "w") as fh:
            fh.write(C_EDITED)
        bin_dir = os.path.join(abc_dir, ".bin")
        builder = CutoffBuilder(Project.from_directory(abc_dir),
                                store=BinStore.load_directory(bin_dir))
        report = builder.build()
        outcomes = {o.name: (o.action, o.reason) for o in report.outcomes}
        assert outcomes["b"] == ("compiled", UNREADABLE)
        assert outcomes["c"][0] == "compiled"
        assert builder.health.kinds_for("b") == ["rehydrate-failed"]
        decision = builder.ledger.get("b")
        assert (decision.action, decision.detail) == ("compiled",
                                                      UNREADABLE)
        assert builder.link()["c"].structures["C"].values["z"] == 3
        builder.store.save_directory(bin_dir)
        assert_store_heals(abc_dir)

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs-2"])
    def test_cli_print_mends_the_import(self, abc_dir, capsys, jobs):
        with open(os.path.join(abc_dir, "c.sml"), "w") as fh:
            fh.write(C_EDITED)
        assert main([abc_dir, "--print", "C.z", "--explain", "b",
                     "--jobs", str(jobs)]) == 0
        out = capsys.readouterr().out
        assert f"[compiled] b  ({UNREADABLE})" in out
        assert "damage: rehydrate-failed" in out
        assert "C.z = 3" in out
        assert_store_heals(abc_dir)

    def test_daemon_worker_names_the_import(self, abc_dir):
        # The daemon's inline worker decodes b's payload for c's
        # compile; its error names b, which the pump mends in the
        # parent before relaunching c.
        from repro.cm.daemon import BuildDaemon

        with open(os.path.join(abc_dir, "c.sml"), "w") as fh:
            fh.write(C_EDITED)
        daemon = BuildDaemon(jobs=1)
        try:
            report = daemon.request(abc_dir).report
        finally:
            daemon.shutdown()
        outcomes = {o.name: (o.action, o.reason) for o in report.outcomes}
        assert outcomes["b"] == ("compiled", UNREADABLE)
        assert outcomes["c"][0] == "compiled"
        assert report.retries == 0 and not report.failed
        assert_store_heals(abc_dir)

    def test_link_mends_a_unit_no_build_demanded(self, abc_dir, capsys):
        # Nothing is edited: the build decodes nothing, so the link is
        # the first demand, and the CLI saves the mended record too.
        assert main([abc_dir, "--print", "C.z"]) == 0
        out = capsys.readouterr().out
        assert f"[compiled] b  ({UNREADABLE})" in out
        assert "C.z = 3" in out
        assert_store_heals(abc_dir)

    def test_null_build_without_link_leaves_it_loaded(self, abc_dir,
                                                      capsys):
        # The one behaviour a header-backed unit changes: nothing
        # demanded b's payload, so nothing found it damaged.
        assert main([abc_dir, "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "[  loaded] b" in out
        assert "0 compiled, 3 loaded" in out


def layered_workload():
    """Ten units in four layers; every interface mentions its first
    import's type, so an interface edit moves pids downstream."""
    return generate_workload(layered([2, 3, 3, 2], fan_in=2, seed=3),
                             helpers_per_unit=1, leak_types=True)


def record_fields(store: BinStore) -> dict:
    """Every record field except the logical build time."""
    return {name: (r.source_digest, r.export_pid, r.imports, r.payload,
                   r.binding_pids, r.used_bindings)
            for name in store.names() for r in [store.get(name)]}


def run_values(exports, names) -> dict:
    """What each unit's linked code computes: ``value (make 3)``."""
    out = {}
    for name in names:
        struct = exports[name].structures[f"M{name[1:]}"]
        made = apply_value(struct.values["make"], 3)
        out[name] = apply_value(struct.values["value"], made)
    return out


def closure(graph, roots) -> set[str]:
    out: set[str] = set()
    frontier = [dep for root in roots for dep in graph.deps[root]]
    while frontier:
        dep = frontier.pop()
        if dep not in out:
            out.add(dep)
            frontier.extend(graph.deps[dep])
    return out


def decodes(tracer: Tracer) -> list[str]:
    return sorted(span.args["unit"]
                  for span in tracer.spans_named("rehydrate"))


class TestWhatABuildDecodes:
    @pytest.fixture
    def saved(self, tmp_path):
        """A layered workload built and saved; returns (workload,
        bin_dir)."""
        w = layered_workload()
        builder = CutoffBuilder(w.project)
        builder.build()
        bin_dir = str(tmp_path / "bins")
        builder.store.save_directory(bin_dir)
        return w, bin_dir

    @staticmethod
    def new_session(w, bin_dir):
        tracer = Tracer()
        builder = CutoffBuilder(w.project,
                                store=BinStore.load_directory(bin_dir),
                                meter=tracer)
        return builder, tracer

    @staticmethod
    def assert_like_clean(w, builder):
        """Store records, export pids and linked program equal a clean
        serial build's of the same sources."""
        clean = CutoffBuilder(Project.from_sources(
            {n: w.project.source(n) for n in w.names()}))
        clean.build()
        assert record_fields(builder.store) == record_fields(clean.store)
        assert ({n: u.export_pid for n, u in builder.units.items()}
                == {n: u.export_pid for n, u in clean.units.items()})
        names = w.names()
        assert (run_values(builder.link(), names)
                == run_values(clean.link(), names))

    def test_null_build_decodes_nothing(self, saved):
        w, bin_dir = saved
        builder, tracer = self.new_session(w, bin_dir)
        report = builder.build()
        assert sorted(report.loaded) == sorted(w.names())
        assert decodes(tracer) == []
        self.assert_like_clean(w, builder)

    def test_comment_edit_decodes_the_import_closure(self, saved):
        w, bin_dir = saved
        target = "u007"
        w.edit_comment(target)
        builder, tracer = self.new_session(w, bin_dir)
        report = builder.build()
        assert report.compiled == [target]
        expected = closure(builder.last_graph, [target])
        assert expected and decodes(tracer) == sorted(expected)
        self.assert_like_clean(w, builder)

    def test_interface_edit_decodes_the_recompiled_closures(self, saved):
        w, bin_dir = saved
        w.edit_interface("u002")
        builder, tracer = self.new_session(w, bin_dir)
        report = builder.build()
        recompiled = set(report.compiled)
        assert len(recompiled) > 1
        expected = closure(builder.last_graph, recompiled) - recompiled
        assert decodes(tracer) == sorted(expected)
        self.assert_like_clean(w, builder)

    def test_link_decodes_every_unit_once(self, saved):
        w, bin_dir = saved
        builder, tracer = self.new_session(w, bin_dir)
        builder.build()
        builder.link()
        assert decodes(tracer) == sorted(w.names())
        link = tracer.spans_named("link")[0]
        assert {s.args["unit"] for s in link.walk()
                if s.name == "rehydrate"} == set(w.names())
        self.assert_like_clean(w, builder)

    def test_pooled_cold_build_parent_decodes_nothing_before_link(self):
        w = layered_workload()
        tracer = Tracer()
        builder = CutoffBuilder(w.project, meter=tracer)
        report = builder.build(jobs=2)
        assert sorted(report.compiled) == sorted(w.names())
        assert decodes(tracer) == []
        assert not any(u.decoded for u in builder.units.values())
        builder.link()
        assert decodes(tracer) == sorted(w.names())
        self.assert_like_clean(w, builder)


class TestHeaderBackedUnit:
    A = "structure A = struct datatype t = T of int val x = T 1 end"
    B = "structure B = struct val y = A.x end"

    @pytest.fixture
    def compiled(self):
        session = Session()
        a = compile_unit("a", self.A, [], session)
        b = compile_unit("b", self.B, [a], session)
        return a, b

    def test_load_decodes_nothing_until_read(self, compiled):
        a, b = compiled
        session = Session()
        a2 = load_unit("a", a.export_pid, [], a.payload, session)
        b2 = load_unit("b", b.export_pid, [a2], b.payload, session)
        assert not a2.decoded and not b2.decoded
        assert session.pids() == {BASIS_PID, a.export_pid, b.export_pid}
        assert "B" in b2.static_env.structures  # decodes a2, then b2
        assert a2.decoded and b2.decoded
        assert session.pids() == {BASIS_PID, a.export_pid, b.export_pid}

    def test_a_stub_decodes_the_unit_it_names(self, compiled):
        a, _b = compiled
        session = Session()
        a2 = load_unit("a", a.export_pid, [], a.payload, session)
        obj = session.resolve(a.export_pid, 0)
        assert a2.decoded and obj is a2.export_index[0]

    def test_a_retired_unit_never_registers(self, compiled):
        a, _b = compiled
        session = Session()
        a2 = load_unit("a", a.export_pid, [], a.payload, session)
        session.retire(a.export_pid)
        a2.decode()
        assert session.pids() == {BASIS_PID}
        with pytest.raises(KeyError):
            session.resolve(a.export_pid, 0)

    def test_a_failed_decode_names_its_unit(self, compiled):
        from repro.units.unit import UnitDecodeError

        a, b = compiled
        session = Session()
        a2 = load_unit("a", a.export_pid, [], GARBAGE, session)
        b2 = load_unit("b", b.export_pid, [a2], b.payload, session)
        with pytest.raises(UnitDecodeError) as info:
            b2.decode()
        assert info.value.unit is a2
        assert "unknown class tag 99" in str(info.value.cause)
        assert not a2.decoded and not b2.decoded
        # a2 no longer stands for its pid; b2 still does.
        assert session.pids() == {BASIS_PID, b.export_pid}
