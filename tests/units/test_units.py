"""Compilation units: compile / execute / load / sessions."""

import pytest

from repro.elab.errors import ElabError
from repro.units import Session, compile_unit, execute_unit
from repro.units.pipeline import load_unit, source_digest


@pytest.fixture
def session(basis):
    return Session(basis)


A_SRC = """
structure Counter = struct
  datatype t = C of int
  val zero = C 0
  fun inc (C n) = C (n + 1)
  fun get (C n) = n
end
"""

B_SRC = """
structure Use = struct
  val two = Counter.get (Counter.inc (Counter.inc Counter.zero))
end
"""


class TestCompile:
    def test_basic(self, session):
        unit = compile_unit("a", A_SRC, [], session)
        assert unit.name == "a"
        assert len(unit.export_pid) == 32
        assert unit.imports == []
        assert "Counter" in unit.static_env.structures

    def test_import_records(self, session):
        a = compile_unit("a", A_SRC, [], session)
        b = compile_unit("b", B_SRC, [a], session)
        assert b.imports == [("a", a.export_pid)]

    def test_elab_error_propagates(self, session):
        with pytest.raises(ElabError):
            compile_unit("bad", "structure S = struct val x = 1 + true end",
                         [], session)

    def test_missing_import_fails(self, session):
        with pytest.raises(ElabError, match="unbound"):
            compile_unit("b", B_SRC, [], session)

    def test_source_digest_recorded(self, session):
        unit = compile_unit("a", A_SRC, [], session)
        assert unit.source_digest == source_digest(A_SRC)

    def test_phase_times_populated(self, session):
        unit = compile_unit("a", A_SRC, [], session)
        assert unit.times.parse > 0
        assert unit.times.elaborate > 0
        assert unit.times.hash > 0
        assert unit.times.dehydrate > 0

    def test_payload_nonempty(self, session):
        unit = compile_unit("a", A_SRC, [], session)
        assert len(unit.payload) > 50


class TestExecute:
    def test_chain(self, session):
        a = compile_unit("a", A_SRC, [], session)
        b = compile_unit("b", B_SRC, [a], session)
        dyn_a = execute_unit(a, [], session)
        dyn_b = execute_unit(b, [dyn_a], session)
        assert dyn_b.structures["Use"].values["two"] == 2

    def test_execute_records_time(self, session):
        a = compile_unit("a", A_SRC, [], session)
        execute_unit(a, [], session)
        assert a.times.execute > 0

    def test_export_isolation(self, session):
        # Two executions of the same unit yield independent exports.
        a = compile_unit(
            "a", "structure R = struct val cell = ref 0 end", [], session)
        d1 = execute_unit(a, [], session)
        d2 = execute_unit(a, [], session)
        d1.structures["R"].values["cell"].value = 99
        assert d2.structures["R"].values["cell"].value == 0


class TestLoad:
    def test_load_roundtrip(self, session, basis):
        a = compile_unit("a", A_SRC, [], session)
        fresh = Session(basis)
        a2 = load_unit("a", a.export_pid, [], a.payload, fresh)
        assert "Counter" in a2.static_env.structures
        assert a2.export_pid == a.export_pid

    def test_compile_against_loaded(self, session, basis):
        a = compile_unit("a", A_SRC, [], session)
        fresh = Session(basis)
        a2 = load_unit("a", a.export_pid, [], a.payload, fresh)
        b = compile_unit("b", B_SRC, [a2], fresh)
        dyn_a = execute_unit(a2, [], fresh)
        dyn_b = execute_unit(b, [dyn_a], fresh)
        assert dyn_b.structures["Use"].values["two"] == 2

    def test_loaded_unit_same_pid_when_recompiled(self, session, basis):
        # compile in session 1, load in session 2, recompile the same
        # source in session 2: pids agree.
        a = compile_unit("a", A_SRC, [], session)
        fresh = Session(basis)
        load_unit("a", a.export_pid, [], a.payload, fresh)
        a_re = compile_unit("a", A_SRC, [], fresh)
        assert a_re.export_pid == a.export_pid

    def test_dependent_pid_stable_across_load_vs_compile(self, session,
                                                         basis):
        # b compiled against freshly-compiled a, vs b compiled against
        # *rehydrated* a: identical pid (stub indices must line up).
        a = compile_unit("a", A_SRC, [], session)
        b = compile_unit("b", B_SRC, [a], session)

        fresh = Session(basis)
        a2 = load_unit("a", a.export_pid, [], a.payload, fresh)
        b2 = compile_unit("b", B_SRC, [a2], fresh)
        assert b2.export_pid == b.export_pid

    def test_rehydrate_time_recorded(self, session, basis):
        a = compile_unit("a", A_SRC, [], session)
        fresh = Session(basis)
        a2 = load_unit("a", a.export_pid, [], a.payload, fresh)
        assert a2.times.rehydrate > 0


class TestSession:
    def test_basis_registered(self, session):
        from repro.basis import BASIS_PID

        assert BASIS_PID in session.pids()

    def test_extern_for_unit_exports(self, session):
        a = compile_unit("a", A_SRC, [], session)
        tycon = a.static_env.structures["Counter"].env.tycons["t"]
        pid, index = session.extern(tycon.stamp.id)
        assert pid == a.export_pid
        assert session.resolve(pid, index) is tycon

    def test_unknown_stamp_raises(self, session):
        with pytest.raises(KeyError):
            session.extern(999_999_999)
